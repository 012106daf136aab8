"""Exact residue arithmetic in Z/p^k Z for prime p and exponent k <= 10.

Values are plain Python integers underneath, so every operation is exact
at any width: p^10 is served at every prime, only slower as it widens.
All objects are immutable and safe to share across threads (``Frozen``).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DenominatorNotCoprime,
    ExponentOutOfRange,
    ModulusMismatch,
    NotInvertible,
    NotPrime,
    PrimalityUndecided,
)

Rationalish = Union[int, Fraction]

MAX_EXPONENT = 10
_set = object.__setattr__  # fills a slot past ``Frozen.__setattr__``

#: Miller-Rabin witnesses: the first 13 primes.  Together they are
#: deterministic below psi_13 = 3317044064679887385961981 (about 3.317e24);
#: the first 12 alone fail at psi_12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n below 3.317e24.

    Above that bound a failed witness still proves n composite, but an n
    that passes every witness is only a probable prime, so it raises
    PrimalityUndecided instead of being reported prime.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_DETERMINISTIC_BOUND:
        raise PrimalityUndecided(
            f"{n} passes all {len(_MR_WITNESSES)} Miller-Rabin witnesses but lies"
            f" above their deterministic bound {MR_DETERMINISTIC_BOUND}")
    return True


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def capped_valuation(n: int, p: int, cap: int) -> int:
    """min(v_p(n), cap), with 0 mapping to the cap (a residue mod p^cap)."""
    if n == 0:
        return cap
    return min(int_valuation(n, p), cap)


def valuation(q: Rationalish, p: int) -> Union[int, float]:
    """p-adic valuation of a rational, v_p(num) - v_p(den); +inf for 0."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = int_valuation(q.numerator, p)
    if q.denominator != 1:
        v -= int_valuation(q.denominator, p)
    return v


def eval_exponent(stated: int, cap: int = MAX_EXPONENT) -> int:
    """The exponent to evaluate a mod-p^stated congruence at: two above it, so
    "exactly" and "beyond" stay apart, within ``cap``."""
    return max(stated, min(stated + 2, cap))


class Frozen:
    """Immutable ``__slots__`` base: ``__init__`` fills the slots through ``_set``;
    equality, hash, pickling and copies go by the slot values, ``_key()``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._key()

    def __eq__(self, other):
        return (self._key() == other._key() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())


class PrimePowerModulus(Frozen):
    """The ambient ring Z/p^k Z: prime base p, exponent k, value m = p^k."""

    __slots__ = ("p", "k", "m")

    def __init__(self, p: int, k: int, m: int):
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "m", m)

    def residue(self, value: int) -> "Residue":
        """Canonically reduced residue of an integer."""
        return Residue(int(value) % self.m, self)

    def embed(self, q: Rationalish) -> "Residue":
        """Residue of a rational with p-free denominator."""
        return embed_rational(q, self)

    def __repr__(self) -> str:
        return f"PrimePowerModulus({self.p}^{self.k})"


def make_modulus(p: int, k: int) -> PrimePowerModulus:
    """Validated construction of Z/p^k Z."""
    if not 1 <= k <= MAX_EXPONENT:
        raise ExponentOutOfRange(f"exponent {k} outside 1..{MAX_EXPONENT}")
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return PrimePowerModulus(p, k, p ** k)


class Residue(Frozen):
    """An element of Z/p^k Z, always held in canonical form 0 <= value < m.

    Arithmetic accepts other residues of the same modulus, integers, and
    rationals with p-free denominator; anything else is rejected.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: PrimePowerModulus):
        _fill_value(self, value)
        _fill_modulus(self, modulus)

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.modulus.m != self.modulus.m:
                raise ModulusMismatch(
                    f"mixed moduli {self.modulus!r} and {other.modulus!r}"
                )
            return other
        if isinstance(other, int):
            return self.modulus.residue(other)
        if isinstance(other, Fraction):
            return embed_rational(other, self.modulus)
        return NotImplemented

    def _binary(op):
        """The operator ``op`` on values, reduced; NotImplemented for operands
        ``_coerce`` does not take."""
        def method(self, other):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            return Residue(op(self.value, other.value) % self.modulus.m, self.modulus)
        return method

    __add__ = __radd__ = _binary(operator.add)
    __sub__ = _binary(operator.sub)
    __rsub__ = _binary(lambda a, b: b - a)
    __mul__ = __rmul__ = _binary(operator.mul)
    del _binary

    def __neg__(self):
        return Residue(-self.value % self.modulus.m, self.modulus)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return pow(inverse(self), -exponent)
        return Residue(pow(self.value, exponent, self.modulus.m), self.modulus)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if isinstance(other, Residue):
            return self.modulus.m == other.modulus.m and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus.m))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.modulus.p}^{self.modulus.k})"

    def inverse(self) -> "Residue":
        return inverse(self)

    def valuation(self) -> int:
        """v_p of the value, capped at the exponent k (0 maps to the cap)."""
        return capped_valuation(self.value, self.modulus.p, self.modulus.k)


#: The slots' own setters: a quarter cheaper than ``_set`` per Residue built.
_fill_value, _fill_modulus = Residue.value.__set__, Residue.modulus.__set__


def inverse(a: Residue) -> Residue:
    """Multiplicative inverse in Z/p^k Z (extended-Euclid, not Fermat)."""
    try:
        inv = pow(a.value, -1, a.modulus.m)
    except ValueError:
        raise NotInvertible(
            f"{a.value} shares the factor {a.modulus.p} with the modulus"
        ) from None
    return Residue(inv, a.modulus)


def embed_rational(q: Rationalish, modulus: PrimePowerModulus) -> Residue:
    """num * den^-1 mod p^k; the denominator must be coprime to p."""
    q = Fraction(q)
    if q.denominator % modulus.p == 0:
        raise DenominatorNotCoprime(
            f"denominator of {q} is divisible by {modulus.p}"
        )
    value = q.numerator % modulus.m
    if q.denominator != 1:
        value = value * pow(q.denominator, -1, modulus.m) % modulus.m
    return Residue(value, modulus)


def _batch_invert_raw(raw: Sequence[int], m) -> list:
    """Inverses of the units raw[i] mod m: prefix products, one inversion.

    The package's one prefix-product loop, fed the k(p-k) by ``harmonic``'s
    full-width pair sweep only; the inverses overwrite the prefixes in place.
    """
    out = []
    acc = 1
    for x in raw:
        acc = acc * x % m
        out.append(acc)
    inv = pow(acc, -1, m)
    for i in range(len(out) - 1, 0, -1):
        out[i] = inv * out[i - 1] % m
        inv = inv * raw[i] % m
    out[0] = inv
    return out
