"""Prime generation and Wolstenholme-prime range scans.

Four criteria, equivalent for p >= 7 where stated:

* ``BINOMIAL_P4``   — v_p(C(2p-1,p-1) - 1) >= 4 (the defining congruence),
* ``HARMONIC_R1_P3`` — v_p(R_1(p)) >= 3 (one batch inversion mod p^3; the
  fast default),
* ``BERNOULLI_BP3`` — p divides B_{p-3} (through P_{p-3}(p) mod p^2),
* ``COR1_SECOND_P7`` — C(2p-1,p-1) = 1 + 2p R_1 + (2/3) p^3 R_3 (mod p^7),
  the two-sum characterization; below 1e5 only 16843 satisfies it.
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
from .harmonic import _inverse_chunks, _inverse_power_sums_raw
from .modring import capped_valuation, mpz, powmod
from .parallel import ordered_map

SIEVE_LIMIT = 10 ** 8
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
        if self.segment_size < 8:
            raise ValueError("segment_size too small")


@dataclass(frozen=True)
class ScanRecord:
    p: int
    criterion: Criterion
    observed_valuation: Optional[int]
    flagged: bool
    elapsed_ns: int
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


def _cor1second_valuation(p: int) -> int:
    """v_p of C(2p-1,p-1) - 1 - 2p R_1 - (2/3) p^3 R_3, mod p^7 (capped).

    One chunked batch inversion of 1..p-1 mod p^7 feeds all three pieces:
    R_1, R_3 (mod p^4 suffices under the p^3 coefficient), and the product
    expansion of the binomial coefficient.
    """
    m = mpz(p) ** 7
    m4 = mpz(p) ** 4
    s1 = 0
    s3 = 0
    prod = mpz(1)
    for chunk in _inverse_chunks(p, m):
        s1 += sum(chunk)
        for iv in chunk:
            iv4 = iv % m4
            s3 += iv4 * iv4 % m4 * iv4
            prod = prod * (1 + p * iv) % m
    r1 = s1 % m
    r3 = s3 % m4
    rhs = (1 + 2 * p * r1 + 2 * powmod(3, -1, m) * p ** 3 % m * r3) % m
    return capped_valuation(int((prod - rhs) % m), p, 7)


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
        return ScanRecord(
            p=p, criterion=criterion, observed_valuation=None, flagged=False,
            elapsed_ns=0, skipped=True,
            reason=f"below minimum prime {_SCAN_MIN_PRIME}")
    start = time.perf_counter_ns()
    try:
        v = _evaluate(p, criterion)
    except Exception as exc:  # per-prime errors are recorded, not raised
        return ScanRecord(
            p=p, criterion=criterion, observed_valuation=None, flagged=False,
            elapsed_ns=time.perf_counter_ns() - start, skipped=False,
            reason=f"error: {exc}")
    return ScanRecord(
        p=p, criterion=criterion, observed_valuation=v,
        flagged=v >= THRESHOLDS[criterion],
        elapsed_ns=time.perf_counter_ns() - start)


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
    cfg = SieveConfig(11, limit)
    return [
        r.p
        for r in wolstenholme_scan(cfg, Criterion.COR1_SECOND_P7, parallelism)
        if r.flagged
    ]
