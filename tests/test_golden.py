"""Golden jsonl digests: the same configuration writes the same bytes.

Each digest was recorded before the change that added this file, so a
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
    ("scan", "--criterion", "binomial", "--primes", "2..3000"):
        "f314fd537a83cb71a179c68b2a0f4aa9e06aa29f5ca9d67c7849702692f45cba",
    ("scan", "--criterion", "r1p3", "--primes", "2..3000"):
        "85584a021bfa43978a4804ec4e967d5ab889d3b9c413a455d156ec87289e1816",
    ("scan", "--criterion", "bp3", "--primes", "2..3000"):
        "92d06a73296e1426623f4c12fd68e2a49dfcba10af7be4fc8aa2d8a92ff2da8f",
    ("scan", "--criterion", "cor1second", "--primes", "2..3000"):
        "eb27c33c089601f78c2efb3f424541a473547be5555ee6aeeec8a7a87796a425",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv[:3]))
def test_jsonl_matches_golden_digest(argv, tmp_path):
    out = tmp_path / "out.jsonl"
    main([*argv, "--output", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]
