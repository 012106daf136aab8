"""Prime generation and Wolstenholme-prime range scans.

Four criteria, equivalent for p >= 7 where stated:

* ``BINOMIAL_P4``   — v_p(C(2p-1,p-1) - 1) >= 4 (the defining congruence),
* ``HARMONIC_R1_P3`` — v_p(R_1(p)) >= 3 (T_1 = R_1/p mod p^2 off the half
  walk over a primitive root's powers; the fast default),
* ``BERNOULLI_BP3`` — p divides B_{p-3} (through the half sum S_{p-4} mod p),
* ``COR1_SECOND_P7`` — C(2p-1,p-1) = 1 + 2p R_1 + (2/3) p^3 R_3 (mod p^7),
  the two-sum characterization; below 1e5 only 16843 satisfies it.

The two-sum criterion never forms C or R_3.  Over the pairs (k, p-k) with
v = 1/(k(p-k)) and T_i = sum v^i (see ``harmonic``), p divides T_1 = R_1/p
(Wolstenholme's theorem, which the scan checks at each prime) and the
residual is

    2p^6 ((T_1/p)^2 + T_3)   (mod p^7),

so one half walk over a primitive root's powers decides it, inverting
nothing: T_1 mod p^2 in blocks, T_3 mod p as a geometric series (``harmonic``).
"""
from __future__ import annotations

import time
from enum import Enum
from functools import partial
from itertools import compress
from math import isqrt
from typing import Iterator, NamedTuple, Optional

from .bernoulli import bernoulli_mod
from .binomial import central_binomial_mod
from .errors import DivisionNotExact, RangeError, RangeTooLarge
from .harmonic import _inverse_power_sums_raw, _least_prime_factors, _walk_pair_sums_raw
from .modring import Frozen, _set, capped_valuation
from .parallel import ordered_map

SIEVE_LIMIT = 10 ** 8

#: Numbers per block of the segmented sieve.
SEGMENT_SIZE = 1 << 16

_SCAN_MIN_PRIME = 7


class Criterion(Enum):
    BINOMIAL_P4 = "binomial"
    HARMONIC_R1_P3 = "r1p3"
    BERNOULLI_BP3 = "bp3"
    COR1_SECOND_P7 = "cor1second"


#: Valuation a prime must reach under each criterion to be flagged.
THRESHOLDS = {
    Criterion.BINOMIAL_P4: 4,
    Criterion.HARMONIC_R1_P3: 3,
    Criterion.BERNOULLI_BP3: 1,
    Criterion.COR1_SECOND_P7: 7,
}


class SieveConfig(Frozen):
    """The range [lo, hi) to sieve in segments, validated on construction."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo < 2 or hi <= lo:
            raise RangeError(f"bad range [{lo}, {hi})")
        if hi > SIEVE_LIMIT:
            raise RangeTooLarge(f"hi = {hi} beyond {SIEVE_LIMIT}")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __repr__(self) -> str:
        return "SieveConfig(lo={}, hi={})".format(*self._key())


class ScanRecord(NamedTuple):
    p: int
    criterion: Criterion
    observed_valuation: Optional[int] = None
    flagged: bool = False
    elapsed_ns: int = 0
    skipped: bool = False
    reason: Optional[str] = None


def sieve_primes(cfg: SieveConfig) -> Iterator[int]:
    """Exactly the primes in [lo, hi), ascending, via a segmented sieve; its
    base primes up to sqrt(hi) come off ``harmonic._least_prime_factors``."""
    root = isqrt(cfg.hi - 1)
    lpf = _least_prime_factors(root + 1)
    base_primes = [q for q in range(2, root + 1) if not lpf[q]]
    for seg_lo in range(cfg.lo, cfg.hi, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE, cfg.hi)
        seg = bytearray([1]) * (seg_hi - seg_lo)
        for q in base_primes:
            start = max(q * q, (seg_lo + q - 1) // q * q)
            if start >= seg_hi:
                continue
            seg[start - seg_lo:: q] = bytes((seg_hi - 1 - start) // q + 1)
        yield from compress(range(seg_lo, seg_hi), seg)


def _r1_valuation(p: int) -> int:
    """v_p of R_1(p), computed mod p^3 (R_1 = p T_1, T_1 mod p^2 off the half
    walk) and capped there."""
    return capped_valuation(_inverse_power_sums_raw(p, 1, p ** 3)[1], p, 3)


def _cor1second_residual(p: int) -> int:
    """C(2p-1,p-1) - 1 - 2p R_1 - (2/3) p^3 R_3 mod p^7, for p >= 5.

    Pairing k with p-k (see ``harmonic``), v = 1/(k(p-k)) and T_i = sum v^i:

        C(2p-1,p-1) = prod (1 + p/k)(1 + p/(p-k)) = prod (1 + 2p^2 v)
                    = 1 + 2p^2 e_1 + 4p^4 e_2 + 8p^6 e_3    (mod p^7),

    with e_1 = T_1, e_2 = (T_1^2 - T_2)/2, e_3 = (T_1^3 - 3T_1T_2 + 2T_3)/6
    by Newton's identities, and R_1 = p T_1, R_3 = p(p^2 T_3 - 3T_2).  So

        lhs - rhs = 2p^4 T_1^2 + p^6 ((4/3) T_1^3 - 4 T_1 T_2 + 2 T_3)
                                                             (mod p^7).

    p divides T_1 = R_1/p (Wolstenholme's theorem, checked here: a
    DivisionNotExact otherwise), so the T_1^3 and T_1 T_2 terms vanish and

        lhs - rhs = 2p^6 ((T_1/p)^2 + T_3)   (mod p^7),

    which needs T_1 mod p^2 and T_3 mod p: one half walk over the powers of
    a primitive root, T_3 a geometric series, with no inversion (``harmonic``).
    """
    t1, t3 = _walk_pair_sums_raw(p)
    if t1 % p:
        raise DivisionNotExact(f"T_1({p}) is not divisible by {p}")
    return 2 * p ** 6 * ((t1 // p) ** 2 + t3) % p ** 7


def _cor1second_valuation(p: int) -> int:
    """v_p of the two-sum residual mod p^7, capped at 7."""
    return capped_valuation(_cor1second_residual(p), p, 7)


def _evaluate(p: int, criterion: Criterion) -> int:
    if criterion is Criterion.BINOMIAL_P4:
        return central_binomial_mod(p, 4).wolstenholme_valuation
    if criterion is Criterion.HARMONIC_R1_P3:
        return _r1_valuation(p)
    if criterion is Criterion.BERNOULLI_BP3:
        return bernoulli_mod(p - 3, p, 1).value.valuation()
    return _cor1second_valuation(p)


def _scan_one(p: int, criterion: Criterion) -> ScanRecord:
    if p < _SCAN_MIN_PRIME:
        return ScanRecord(p, criterion, skipped=True,
                          reason=f"below minimum prime {_SCAN_MIN_PRIME}")
    start = time.perf_counter_ns()
    try:
        v = _evaluate(p, criterion)
    except Exception as exc:  # per-prime errors are recorded, not raised
        return ScanRecord(p, criterion, elapsed_ns=time.perf_counter_ns() - start,
                          reason=f"error: {exc}")
    return ScanRecord(p, criterion, v, v >= THRESHOLDS[criterion],
                      time.perf_counter_ns() - start)


def wolstenholme_scan(
    cfg: SieveConfig,
    criterion: Criterion = Criterion.HARMONIC_R1_P3,
    parallelism: int = 1,
) -> Iterator[ScanRecord]:
    """One record per prime in the range, in ascending order."""
    return ordered_map(partial(_scan_one, criterion=criterion),
                       sieve_primes(cfg), parallelism, chunk=32)
