"""Prime generation and Wolstenholme-prime range scans.

Four criteria, equivalent for p >= 7 where stated:

* ``BINOMIAL_P4``   — v_p(C(2p-1,p-1) - 1) >= 4 (the defining congruence),
* ``HARMONIC_R1_P3`` — v_p(R_1(p)) >= 3 (one batch inversion mod p^3; the
  fast default),
* ``BERNOULLI_BP3`` — p divides B_{p-3} (through P_{p-3}(p) mod p^2),
* ``COR1_SECOND_P7`` — C(2p-1,p-1) = 1 + 2p R_1 + (2/3) p^3 R_3 (mod p^7),
  the two-sum characterization; below 1e5 only 16843 satisfies it.

The two-sum criterion never forms C or R_3.  Over the pairs (k, p-k) with
v = 1/(k(p-k)) and T_i = sum v^i (see ``harmonic``), its residual is

    2p^4 T_1^2 + (4/3) p^6 T_1^3 - 4p^6 T_1 T_2 + 2p^6 T_3   (mod p^7),

so one sweep over (p-1)/2 pairs mod p^3 decides it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import isqrt
from typing import Iterator, Optional

from .bernoulli import bernoulli_mod
from .binomial import central_binomial_mod
from .errors import RangeTooLarge
from .harmonic import _inverse_power_sums_raw, _pair_power_sums_raw
from .modring import capped_valuation
from .parallel import ordered_map

SIEVE_LIMIT = 10 ** 8
MIN_SEGMENT_SIZE = 8
REMARK1_LIMIT = 10 ** 6

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


@dataclass(frozen=True)
class SieveConfig:
    lo: int
    hi: int
    segment_size: int = 1 << 16

    def __post_init__(self):
        if self.lo < 2 or self.hi <= self.lo:
            raise ValueError(f"bad range [{self.lo}, {self.hi})")
        if self.hi > SIEVE_LIMIT:
            raise RangeTooLarge(f"hi = {self.hi} beyond {SIEVE_LIMIT}")
        if self.segment_size < MIN_SEGMENT_SIZE:
            raise ValueError("segment_size too small")


@dataclass(frozen=True)
class ScanRecord:
    p: int
    criterion: Criterion
    observed_valuation: Optional[int] = None
    flagged: bool = False
    elapsed_ns: int = 0
    skipped: bool = False
    reason: Optional[str] = None


def sieve_primes(cfg: SieveConfig) -> Iterator[int]:
    """Exactly the primes in [lo, hi), ascending, via a segmented sieve."""
    root = isqrt(cfg.hi - 1)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, isqrt(root) + 1):
        if base[i]:
            base[i * i:: i] = bytes((root - i * i) // i + 1)
    base_primes = [i for i in range(2, root + 1) if base[i]]
    for seg_lo in range(cfg.lo, cfg.hi, cfg.segment_size):
        seg_hi = min(seg_lo + cfg.segment_size, cfg.hi)
        seg = bytearray([1]) * (seg_hi - seg_lo)
        for q in base_primes:
            start = max(q * q, (seg_lo + q - 1) // q * q)
            if start >= seg_hi:
                continue
            seg[start - seg_lo:: q] = bytes((seg_hi - 1 - start) // q + 1)
        for i, flag in enumerate(seg):
            if flag:
                yield seg_lo + i


def _r1_valuation(p: int) -> int:
    """v_p of R_1(p), computed mod p^3 and capped there."""
    return capped_valuation(int(_inverse_power_sums_raw(p, 1, p ** 3)[1]), p, 3)


def _cor1second_residual(p: int) -> int:
    """C(2p-1,p-1) - 1 - 2p R_1 - (2/3) p^3 R_3 mod p^7, for p >= 5.

    Pairing k with p-k (see ``harmonic``), v = 1/(k(p-k)) and T_i = sum v^i:

        C(2p-1,p-1) = prod (1 + p/k)(1 + p/(p-k)) = prod (1 + 2p^2 v)
                    = 1 + 2p^2 e_1 + 4p^4 e_2 + 8p^6 e_3    (mod p^7),

    with e_1 = T_1, e_2 = (T_1^2 - T_2)/2, e_3 = (T_1^3 - 3T_1T_2 + 2T_3)/6
    by Newton's identities, and R_1 = p T_1, R_3 = p(p^2 T_3 - 3T_2).  So

        lhs - rhs = 2p^4 T_1^2 + p^6 ((4/3) T_1^3 - 4 T_1 T_2 + 2 T_3)
                                                             (mod p^7),

    which needs T_1 mod p^3 and T_2, T_3 mod p: one pair sweep mod p^3.
    Every term is kept, so the residual is exact by algebra alone.
    """
    _, t1, t2, t3 = _pair_power_sums_raw(p, 3, p ** 3)
    tail = (4 * pow(3, -1, p) * t1 ** 3 - 4 * t1 * t2 + 2 * t3) % p
    return int((2 * p ** 4 * t1 * t1 + p ** 6 * tail) % p ** 7)


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


def remark1_experiment(limit: int, parallelism: int = 1) -> list[int]:
    """Primes 11 <= p < limit satisfying the mod-p^7 two-sum congruence."""
    if limit > REMARK1_LIMIT:
        raise RangeTooLarge(f"limit {limit} beyond {REMARK1_LIMIT}")
    if limit <= 11:
        return []
    records = wolstenholme_scan(SieveConfig(11, limit), Criterion.COR1_SECOND_P7,
                                parallelism)
    return [r.p for r in records if r.flagged]
