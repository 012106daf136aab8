"""Bernoulli numbers two ways: exact rationals and residues mod p^r.

The exact side follows the defining recurrence of x/(e^x - 1), capped at
index 400; it exists as an oracle.  The residue side inverts the classical
power-sum expansion

    P_n(p) = sum over s of (1/s) C(n, s-1) p^s B_{n+1-s}   (mod p^c)

truncated at s <= min(c, n+1), which is exact for p >= 7 and c <= 5: any
omitted term with ord_p(s) = e >= 1 has valuation at least
s - e - 1 >= p - 2 >= 5, and omitted p-integral terms at least s - 1 >= c.
Solving the triangle top-down yields p*B_n mod p^c for arbitrary n, even at
positions with p-1 | n where only p*B_n (not B_n) is p-integral: the inner
indices of such a position are all regular, so no precision is lost.

Large indices of the shape p^n - p^(n-1) - s reduce to indices below n*p
through the Kummer congruences:

    B_m/m = B_n/n (mod p^r)   when  n = m (mod phi(p^r)), m != 0 (mod p-1),

and the vanishing r-th finite difference  sum((-1)^k C(r,k)
B_{m+k(p-1)}/(m+k(p-1)), k=0..r) = 0 (mod p^r), which combine into

    B_{p^n-p^(n-1)-s}/(p^n-p^(n-1)-s)
        = sum((-1)^(k+1) C(n,k) B_{k(p-1)-s}/(k(p-1)-s), k=1..n) (mod p^n).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import (
    ExactDivisionFailed,
    IndexTooLarge,
    IrregularPosition,
    NoValidTarget,
    NotPrime,
    OddIndex,
    RangeError,
)
from .harmonic import power_sum_raw
from .modring import Residue, embed_rational, is_prime, make_modulus, mpz

#: Exact rationals stop here; everything larger goes through residues.
EXACT_INDEX_CAP = 400

#: Residue exponent cap: the truncated power-sum expansion is exact to p^5.
RESIDUE_EXPONENT_CAP = 4

_exact: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


@dataclass(frozen=True)
class BernoulliExact:
    index: int
    value: Fraction


@dataclass(frozen=True)
class BernoulliResidue:
    """B_index mod p^r; only regular positions (index != 0 mod p-1) exist."""

    index: int
    p: int
    r: int
    value: Residue
    regular: bool


def bernoulli_exact(m: int) -> BernoulliExact:
    """B_m as an exact rational, via sum(C(m+1, j) B_j, j=0..m) = 0."""
    if not 0 <= m <= EXACT_INDEX_CAP:
        raise IndexTooLarge(f"index {m} outside 0..{EXACT_INDEX_CAP}")
    while len(_exact) <= m:
        j = len(_exact)
        if j % 2 and j >= 3:
            _exact.append(Fraction(0))
            continue
        acc = Fraction(0)
        for i in range(j):
            if _exact[i]:
                acc += comb(j + 1, i) * _exact[i]
        _exact.append(-acc / (j + 1))
    return BernoulliExact(index=m, value=_exact[m])


def vsc_denominator(m: int) -> int:
    """Denominator of B_m: the product of primes q with q-1 | m."""
    if m < 2 or m % 2:
        raise OddIndex(f"index {m} must be even and >= 2")
    den = 1
    for d in range(1, m + 1):
        if m % d == 0 and is_prime(d + 1):
            den *= d + 1
    return den


def is_regular_position(n: int, p: int) -> bool:
    """True when B_n has p-free denominator (n odd, or n != 0 mod p-1)."""
    return n % 2 == 1 or n % (p - 1) != 0 or n == 0


def _falling_binomial(n: int, k: int, m) -> int:
    """C(n, k) mod m for huge n and tiny k."""
    num = mpz(1)
    for t in range(k):
        num = num * ((n - t) % m) % m
    return int(num * pow(factorial(k), -1, int(m)) % m)


@lru_cache(maxsize=1)
def _memo(p: int) -> dict:
    """(n, c) -> p * B_n mod p^c at p, for the last p only (as the moment
    table of ``harmonic.power_sum_raw``), so a sweep over any number of
    primes holds one prime's entries."""
    return {}


def _p_times_bernoulli(n: int, p: int, c: int) -> int:
    """p * B_n mod p^c for any n >= 0 (p >= 7, c <= 5).

    Works at irregular positions too: the s = 1 term of the power-sum
    expansion is p*B_n itself, and every inner index n+1-s with s >= 2 is
    either odd (B = 0) or regular, so the recursion never needs an
    irregular value at more precision than it has.
    """
    m = p ** c
    if n == 0:
        return p % m
    if n == 1:
        return -p * pow(2, -1, m) % m
    if n % 2:
        return 0
    memo = _memo(p)
    if (n, c) in memo:
        return memo[n, c]
    mm = mpz(m)
    acc = mpz(power_sum_raw(p, n, mm))
    for s in range(2, min(c, n + 1) + 1):
        idx = n + 1 - s
        if idx == 0:
            pb = p % m
        elif idx == 1:
            pb = -p * pow(2, -1, m) % m
        elif idx % 2:
            continue
        else:
            pb = _p_times_bernoulli(idx, p, c - s + 1)
            if pb == 0:
                continue
        coeff = _falling_binomial(n, s - 1, mm)
        term = coeff * pow(s, -1, m) % mm * (p ** (s - 1)) % mm * pb % mm
        acc -= term
    memo[n, c] = int(acc % mm)
    return memo[n, c]


def _check_residue_args(n: int, p: int, r: int) -> None:
    if p < 7 or not is_prime(p):
        raise NotPrime(f"p must be a prime >= 7, got {p}")
    if not 1 <= r <= RESIDUE_EXPONENT_CAP:
        raise ValueError(f"exponent r must be in 1..{RESIDUE_EXPONENT_CAP}")
    if n < 0 or n >= p ** 6:
        raise IndexTooLarge(f"index {n} outside 0..p^6")


def bernoulli_mod(n: int, p: int, r: int) -> BernoulliResidue:
    """B_n mod p^r through P_n(p) mod p^(r+1) and exact division by p.

    Odd n >= 3 returns 0; positions with p-1 | n are rejected because
    B_n there has p in its denominator.
    """
    _check_residue_args(n, p, r)
    modulus = make_modulus(p, r)
    if n == 0:
        return BernoulliResidue(n, p, r, modulus.residue(1), True)
    if n % 2:
        if n == 1:
            raise ValueError("B_1 is not served by the residue path; use the oracle")
        return BernoulliResidue(n, p, r, modulus.residue(0), True)
    if not is_regular_position(n, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {n}")
    lifted = _p_times_bernoulli(n, p, r + 1)
    if lifted % p:
        raise ExactDivisionFailed(
            f"p*B_{n} mod {p}^{r + 1} is not divisible by {p}"
        )
    return BernoulliResidue(n, p, r, modulus.residue(lifted // p), True)


def bernoulli_ratio(n: int, p: int, r: int) -> Residue:
    """B_n/n mod p^r for even regular n (p | n allowed; the ratio is integral)."""
    _check_residue_args(n, p, r)
    if n < 2 or n % 2:
        raise ValueError("ratio defined for even n >= 2")
    if not is_regular_position(n, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {n}")
    v = 0
    unit = n
    while unit % p == 0:
        unit //= p
        v += 1
    if r + v > RESIDUE_EXPONENT_CAP:
        raise IndexTooLarge(
            f"B_{n}/{n} mod p^{r} needs exponent {r + v} > {RESIDUE_EXPONENT_CAP}"
        )
    modulus = make_modulus(p, r)
    b = bernoulli_mod(n, p, r + v).value.value
    if b % p ** v:
        raise ExactDivisionFailed(f"B_{n} not divisible by {p}^{v}")
    return modulus.residue(b // p ** v) * embed_rational(
        Fraction(1, unit), modulus
    )


@dataclass(frozen=True)
class KummerReduction:
    """Certified transfer B_source = factor * B_target (mod p^r)."""

    source: int
    target: int
    p: int
    r: int
    factor: Residue


def kummer_reduce(m: int, p: int, r: int) -> KummerReduction:
    """Least even target n > r with n = m (mod phi(p^r)) and the factor m/n."""
    if p < 7 or not is_prime(p):
        raise NotPrime(f"p must be a prime >= 7, got {p}")
    if not 1 <= r <= RESIDUE_EXPONENT_CAP:
        raise ValueError(f"exponent r must be in 1..{RESIDUE_EXPONENT_CAP}")
    if m < 2 or m % 2:
        raise OddIndex(f"index {m} must be even and >= 2")
    if not is_regular_position(m, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {m}")
    if r > m - 1:
        raise NoValidTarget(f"r = {r} exceeds m-1 = {m - 1}")
    phi = p ** (r - 1) * (p - 1)
    n = m % phi
    if n <= r:
        n += phi
    modulus = make_modulus(p, r)
    # p may divide both indices (for r >= 2 they agree mod p^(r-1)); the
    # factor is then the ratio of the p-free parts, still p-integral.
    v = 0
    n_unit, m_unit = n, m
    while n_unit % p == 0:
        n_unit //= p
        v += 1
        if m_unit % p:
            raise NoValidTarget(
                f"cannot certify an integral factor for {m} -> {n} at p = {p}")
        m_unit //= p
    factor = modulus.residue(m_unit) * modulus.residue(n_unit).inverse()
    return KummerReduction(source=m, target=n, p=p, r=r, factor=factor)


def kummer_alternating_check(m: int, p: int, r: int) -> int:
    """Valuation of sum((-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)), k=0..r) mod p^r.

    The r-th finite difference of k -> B_{m+k(p-1)}/(m+k(p-1)) vanishes
    mod p^r; the returned valuation is capped there.
    """
    if m < 2 or m % 2:
        raise OddIndex(f"index {m} must be even and >= 2")
    if not 1 <= r <= min(RESIDUE_EXPONENT_CAP, m - 1):
        raise ValueError(f"need 1 <= r <= min({RESIDUE_EXPONENT_CAP}, m-1)")
    if not is_regular_position(m, p):
        raise IrregularPosition(f"p-1 = {p - 1} divides index {m}")
    modulus = make_modulus(p, r)
    acc = modulus.residue(0)
    for k in range(r + 1):
        coeff = (-1) ** k * comb(r, k)
        acc = acc + coeff * bernoulli_ratio(m + k * (p - 1), p, r)
    return acc.valuation()


def reduce_high_index(n: int, s: int, p: int) -> list[tuple[int, int]]:
    """Expansion of B_{p^n-p^(n-1)-s}/(p^n-p^(n-1)-s) modulo p^n.

    Returns [(coefficient, index)] with coefficient (-1)^(k+1) C(n, k) and
    index k(p-1) - s for k = 1..n.  Every index must come out even, >= 2,
    and coprime to p: the congruence genuinely fails when p divides an
    index (at p = 7, s = 4, n = 3 the index 14 appears and the exact
    residual only reaches valuation 1), so such shapes are refused.  All
    indices are coprime whenever n + s < p.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if s % 2 or s < 2:
        raise OddIndex(f"offset s = {s} must be even and >= 2")
    if s % (p - 1) == 0:
        raise IrregularPosition(f"p-1 = {p - 1} divides offset {s}")
    pairs = []
    for k in range(1, n + 1):
        idx = k * (p - 1) - s
        if idx < 2:
            raise RangeError(f"index {idx} below 2 at k = {k}; p too small for s = {s}")
        if idx % p == 0:
            raise RangeError(
                f"index {idx} at k = {k} is divisible by p = {p};"
                " the expansion does not hold there")
        pairs.append(((-1) ** (k + 1) * comb(n, k), idx))
    return pairs


def high_index_ratio(n: int, s: int, p: int) -> Residue:
    """B_M/M mod p^n for M = p^n - p^(n-1) - s, via the low-index expansion."""
    if not 1 <= n <= RESIDUE_EXPONENT_CAP:
        raise ValueError(f"exponent n must be in 1..{RESIDUE_EXPONENT_CAP}")
    modulus = make_modulus(p, n)
    acc = modulus.residue(0)
    for coeff, idx in reduce_high_index(n, s, p):
        acc = acc + coeff * bernoulli_ratio(idx, p, n)
    return acc


def high_index_bernoulli(n: int, s: int, p: int) -> Residue:
    """B_M mod p^n for M = p^n - p^(n-1) - s (M is coprime to p)."""
    big = p ** n - p ** (n - 1) - s
    return high_index_ratio(n, s, p) * big
