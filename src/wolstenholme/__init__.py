"""Congruences for Wolstenholme primes: residue rings, harmonic and
Bernoulli engines, a registry of named congruence checks, and range scans.
"""

__version__ = "0.1.0"

from .bernoulli import (
    BernoulliExact,
    BernoulliResidue,
    KummerReduction,
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_ratio,
    high_index_bernoulli,
    high_index_ratio,
    kummer_alternating_check,
    kummer_reduce,
    reduce_high_index,
    vsc_denominator,
)
from .binomial import (
    BinomialResidue,
    central_binomial_mod,
    exact_binomial,
    is_wolstenholme_prime,
    zhao_quotient_check,
)
from .checks import (
    CheckOutcome,
    CongruenceCheck,
    Scope,
    all_check_ids,
    cor4_equivalence,
    lookup,
    registry,
    run_check,
    run_suite,
)
from .harmonic import (
    SumProfile,
    WolstenholmeQuotient,
    elementary_symmetric,
    power_sum,
    power_sum_inverses,
    wolstenholme_quotient,
)
from .modring import (
    ExactRational,
    PrimePowerModulus,
    Residue,
    batch_inverses,
    embed_rational,
    inverse,
    is_prime,
    make_modulus,
    max_exponent,
    valuation,
)
from .scan import (
    Criterion,
    ScanRecord,
    SieveConfig,
    remark1_experiment,
    sieve_primes,
    wolstenholme_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
