"""Binomial-coefficient residues at prime-power moduli.

The central object is C(2p-1, p-1), computed through the product expansion

    C(2p-1, p-1) = prod((p + i)/i for i in 1..p-1)
                 = 1 + sum(p^j H_j(p) for j in 1..p-1),

evaluated with one modular inversion.  ``exact_binomial`` is the exact
big-integer oracle for desk-scale arguments (``binom N R``, and the tests'
check of the plan's products).  The check registry reads every binomial
off the products E(s) = prod(1 + sp/k, k < p), s = 1, 2, 3, that an
evaluation plan builds from its pair sums (``plan``);
``_shifted_product_raw`` stays their independent check.
"""
from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import NotPrime, RangeError
from .modring import Residue, capped_valuation, eval_exponent, is_prime, make_modulus

#: Bound on exact binomial arguments; factorial-scale integers stay small.
ORACLE_CAP = 5000

#: Largest k served by ``central_binomial_mod``.
CENTRAL_EXPONENT_CAP = 9


class BinomialResidue(NamedTuple):
    """C(2p-1, p-1) mod p^k with the observed valuation of C - 1 (a named tuple).

    ``wolstenholme_valuation`` is capped at k + 2; it is at least 3 for
    every prime p >= 5, and p is a Wolstenholme prime exactly when it is >= 4.
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

    shift = 1 gives C(2p-1, p-1), 2 gives C(3p, 2p)/3 and 3 gives C(4p, p)/4.
    """
    base = shift * p
    num = den = 1
    for i in range(1, p):
        num = num * (base + i) % m
        den = den * i % m
    return num * pow(den, -1, m) % m


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
    eval_exp = eval_exponent(k)
    wide = _central_raw(p, p ** eval_exp)
    return BinomialResidue(
        p=p,
        k=k,
        value=modulus.residue(wide),
        wolstenholme_valuation=capped_valuation(wide - 1, p, eval_exp),
    )

