"""Binomial-coefficient residues at prime-power moduli.

The central object is C(2p-1, p-1), computed through the product expansion

    C(2p-1, p-1) = prod((p + i)/i for i in 1..p-1)
                 = 1 + sum(p^j H_j(p) for j in 1..p-1),

evaluated with one modular inversion.  ``exact_binomial`` is the exact
big-integer oracle for desk-scale arguments, and ``zhao_quotient_check``
evaluates the quotient law C(np, rp)/C(n, r) = 1 + w_p n r (n-r) p^3
(mod p^5) for every shape 1 <= r <= n <= 6.  The Granville and Sun-Wan
congruences live in the check registry (``granville_p5``, ``sun_wan_p5``),
which reads both products off the pair sums (``plan``) and takes the
exact binomials here; ``_shifted_product_raw`` stays their independent
check.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import NotPrime, RangeError
from .harmonic import wolstenholme_quotient
from .modring import (
    Residue,
    capped_valuation,
    is_prime,
    make_modulus,
    max_exponent,
    mpz,
)

#: Bound on exact binomial arguments; factorial-scale integers stay small.
ORACLE_CAP = 5000

#: Sun-Wan needs C(4p-1, 2p-1) exactly, so p is capped separately.
SUN_WAN_PRIME_CAP = 400

#: Largest k served by ``central_binomial_mod``.
CENTRAL_EXPONENT_CAP = 9

#: Extra exponent margin so "exactly k" and ">= k+1" stay distinguishable.
VALUATION_MARGIN = 2


@dataclass(frozen=True)
class BinomialResidue:
    """C(2p-1, p-1) mod p^k with the observed valuation of C - 1.

    ``wolstenholme_valuation`` is capped at k + 2 (width permitting); it is
    at least 3 for every prime p >= 5, and p is a Wolstenholme prime
    exactly when it is >= 4.
    """

    p: int
    k: int
    value: Residue
    wolstenholme_valuation: int


def exact_binomial(n: int, r: int) -> int:
    """Exact C(n, r) for 0 <= r <= n <= 5000."""
    if not 0 <= r <= n <= ORACLE_CAP:
        raise RangeError(f"need 0 <= r <= n <= {ORACLE_CAP}")
    return comb(n, r)


def _shifted_product_raw(p: int, shift: int, m) -> int:
    """prod((shift*p + i)/i for i in 1..p-1) mod m, one inversion.

    shift = 1 gives C(2p-1, p-1); shift = 2 gives C(3p, 2p)/3.
    """
    m = mpz(m)
    base = shift * p
    num = mpz(1)
    den = mpz(1)
    for i in range(1, p):
        num = num * (base + i) % m
        den = den * i % m
    return int(num * pow(int(den), -1, int(m)) % m)


def _central_raw(p: int, m) -> int:
    """C(2p-1, p-1) mod m."""
    return _shifted_product_raw(p, 1, m)


def central_binomial_mod(p: int, k: int) -> BinomialResidue:
    """C(2p-1, p-1) mod p^k plus the valuation of C - 1."""
    if p < 5 or not is_prime(p):
        raise NotPrime(f"p must be a prime >= 5, got {p}")
    if not 1 <= k <= CENTRAL_EXPONENT_CAP:
        raise RangeError(f"exponent k must be in 1..{CENTRAL_EXPONENT_CAP}, got {k}")
    modulus = make_modulus(p, k)
    eval_exp = max(k, min(k + VALUATION_MARGIN, max_exponent(p)))
    wide = _central_raw(p, p ** eval_exp)
    return BinomialResidue(
        p=p,
        k=k,
        value=modulus.residue(wide),
        wolstenholme_valuation=capped_valuation(wide - 1, p, eval_exp),
    )


def is_wolstenholme_prime(p: int) -> bool:
    """C(2p-1, p-1) = 1 (mod p^4), the defining congruence."""
    if p < 5 or not is_prime(p):
        return False
    return _central_raw(p, p ** 4) == 1


def zhao_quotient_check(n: int, r: int, p: int) -> int:
    """Valuation of C(np, rp)/C(n, r) - (1 + w_p n r (n-r) p^3) in Z/p^5 Z.

    Returns at least 5 (the cap) when the congruence holds.
    """
    if p < 7 or not is_prime(p):
        raise NotPrime(f"p must be a prime >= 7, got {p}")
    if not 1 <= r <= n <= 6:
        raise RangeError("need 1 <= r <= n <= 6")
    if n * p > ORACLE_CAP:
        raise RangeError(f"np = {n * p} beyond the exact oracle bound")
    modulus = make_modulus(p, 5)
    lhs = modulus.residue(exact_binomial(n * p, r * p)) * modulus.residue(
        exact_binomial(n, r)
    ).inverse()
    w = wolstenholme_quotient(p).w
    rhs = modulus.residue(1 + w * n * r * (n - r) * p ** 3)
    return (lhs - rhs).valuation()
