"""Congruences for Wolstenholme primes: residue rings, harmonic and
Bernoulli engines, a registry of named congruence checks, and range scans.
"""

__version__ = "0.1.0"

from .bernoulli import (
    BernoulliExact,
    BernoulliResidue,
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_ratio,
    high_index_bernoulli,
    high_index_ratio,
    reduce_high_index,
)
from .binomial import (
    BinomialResidue,
    central_binomial_mod,
    exact_binomial,
)
from .checks import (
    CheckOutcome,
    CongruenceCheck,
    Scope,
    all_check_ids,
    lookup,
    registry,
    run_check,
    run_suite,
)
from .modring import (
    PrimePowerModulus,
    Residue,
    embed_rational,
    inverse,
    is_prime,
    make_modulus,
    valuation,
)
from .scan import (
    Criterion,
    ScanRecord,
    SieveConfig,
    sieve_primes,
    wolstenholme_scan,
)

__all__ = [
    "BernoulliExact", "BernoulliResidue", "BinomialResidue", "CheckOutcome",
    "CongruenceCheck", "Criterion", "PrimePowerModulus", "Residue",
    "ScanRecord", "Scope", "SieveConfig", "all_check_ids", "bernoulli_exact",
    "bernoulli_mod", "bernoulli_ratio", "central_binomial_mod",
    "embed_rational", "exact_binomial", "high_index_bernoulli",
    "high_index_ratio", "inverse", "is_prime", "lookup", "make_modulus",
    "reduce_high_index", "registry", "run_check", "run_suite", "sieve_primes",
    "valuation", "wolstenholme_scan",
]
