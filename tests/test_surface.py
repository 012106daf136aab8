"""The package's public surface: a name added to or removed from
``wolstenholme.__all__`` shows here first."""
import wolstenholme


def test_public_names():
    assert sorted(wolstenholme.__all__) == [
        "BernoulliExact", "BernoulliResidue", "BinomialResidue", "CheckOutcome",
        "CongruenceCheck", "Criterion", "PrimePowerModulus", "Residue",
        "ScanRecord", "Scope", "SieveConfig", "all_check_ids", "bernoulli_exact",
        "bernoulli_mod", "bernoulli_ratio", "central_binomial_mod",
        "embed_rational", "exact_binomial", "high_index_bernoulli",
        "high_index_ratio", "inverse", "is_prime", "lookup", "make_modulus",
        "max_exponent", "reduce_high_index", "registry", "run_check", "run_suite",
        "sieve_primes", "valuation", "wolstenholme_scan", "zhao_quotient_check",
    ]


def test_star_import_binds_no_submodule():
    # A name listed but not bound would raise here; a submodule is not listed.
    namespace = {}
    exec("from wolstenholme import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wolstenholme.__all__)
