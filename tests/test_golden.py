"""Golden output digests: the same configuration writes the same bytes.

Each digest was recorded before the change that added it, so a
refactor of any kernel, plan or evaluator must leave every record of these
runs byte-identical.  A digest changes only with a deliberate change of the
record schema or of a check's stated congruence, named in CHANGES.md.
"""
import hashlib

import pytest

from wolstenholme.cli import main

GOLDEN = {
    ("verify", "--checks", "all", "--primes", "2..300"):
        "82dfd6f5024f810c3d202211f0d94aae2a89bdd9a906abf01f34be888184197f",
    # the one Wolstenholme prime in reach, so the Wolstenholme-only checks run
    ("verify", "--checks", "all", "--at", "16843"):
        "5e1a473c7b6fc6bde817a19752c2fd5c3a6a5454f0d14582a4239383ae79453f",
    # the two checks of the exact-oracle era, to Zhao's cap 1666
    ("verify", "--checks", "sun_wan_p5,zhao_eq4_p5", "--primes", "2..1700"):
        "e7974156c59252afcdc6a5a43c70cea23894b837a4ce6d248d06bd1aebc8317d",
    # two reads per prime, below the sweep's threshold: every B_n off direct passes
    ("verify", "--checks", "glaisher_p4,lehmer_p3", "--primes", "2..3000"):
        "45d84a7617ae8e8cac71fe091ca5a7f712fb8b4f5c781c20885dd19ab511de23",
    ("scan", "--criterion", "binomial", "--primes", "2..3000"):
        "f314fd537a83cb71a179c68b2a0f4aa9e06aa29f5ca9d67c7849702692f45cba",
    ("scan", "--criterion", "r1p3", "--primes", "2..3000"):
        "85584a021bfa43978a4804ec4e967d5ab889d3b9c413a455d156ec87289e1816",
    ("scan", "--criterion", "bp3", "--primes", "2..3000"):
        "92d06a73296e1426623f4c12fd68e2a49dfcba10af7be4fc8aa2d8a92ff2da8f",
    ("scan", "--criterion", "cor1second", "--primes", "2..3000"):
        "eb27c33c089601f78c2efb3f424541a473547be5555ee6aeeec8a7a87796a425",
}


@pytest.mark.parametrize("argv", list(GOLDEN),
                         ids=lambda argv: " ".join(argv if "--at" in argv else argv[:3]))
def test_jsonl_matches_golden_digest(argv, tmp_path):
    out = tmp_path / "out.jsonl"
    main([*argv, "--output", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


#: The csv and pretty writers on two of the runs above.
GOLDEN_FORMATS = {
    ("verify", "--checks", "all", "--primes", "2..300", "--format", "csv"):
        "d75007d2373266706a28f3ab3a0aac6835fac3894a49fc59a7410980e0618ec3",
    ("verify", "--checks", "all", "--primes", "2..300", "--format", "pretty"):
        "a4caa09487457f53b07244cf04d5efdbfe31e231372a46ec62cfb1f6e9c677c0",
    ("scan", "--criterion", "r1p3", "--primes", "2..3000", "--format", "csv"):
        "1b44f35691c9a64bff59852df6fc62a68753208ee17c7f23c3e51dac2d18771c",
    ("scan", "--criterion", "r1p3", "--primes", "2..3000", "--format", "pretty"):
        "f0831bff93fa99ebdc332e0a430629b93bd4a18de55266d270b1099c36009928",
}


@pytest.mark.parametrize("argv", list(GOLDEN_FORMATS),
                         ids=lambda argv: " ".join((argv[-1], *argv[:3])))
def test_writer_matches_golden_digest(argv, tmp_path):
    out = tmp_path / "out.txt"
    main([*argv, "--output", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FORMATS[argv]
