"""The package's public surface: a name added to or removed from
``wolstenholme.__all__`` shows here first."""
import wolstenholme


def test_public_names():
    assert sorted(wolstenholme.__all__) == [
        "BernoulliExact", "BernoulliResidue", "BinomialResidue", "CheckOutcome",
        "CongruenceCheck", "Criterion", "PrimePowerModulus", "Residue",
        "ScanRecord", "Scope", "SieveConfig", "all_check_ids", "bernoulli",
        "bernoulli_exact", "bernoulli_mod", "bernoulli_ratio", "binomial",
        "central_binomial_mod", "checks", "embed_rational", "errors",
        "exact_binomial", "harmonic", "high_index_bernoulli", "high_index_ratio",
        "inverse", "is_prime", "lookup", "make_modulus", "max_exponent",
        "modring", "parallel", "plan", "reduce_high_index", "registry",
        "run_check", "run_suite", "scan", "sieve_primes", "valuation",
        "wolstenholme_scan", "zhao_quotient_check",
    ]
