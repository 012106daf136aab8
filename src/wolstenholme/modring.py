"""Exact residue arithmetic in Z/p^k Z for prime p and exponent k <= 10.

Values are plain Python integers underneath, so every operation is exact;
the width contract is that any modulus below 2**200 is supported
(2124679**8 needs 168 bits).  All objects are immutable and safe to share
across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DenominatorNotCoprime,
    ExponentOutOfRange,
    ModulusMismatch,
    NotInvertible,
    NotPrime,
    PrimalityUndecided,
    WidthExceeded,
)

try:  # optional C-backed big integers; plain int is the fallback
    from gmpy2 import mpz, powmod
except ImportError:  # pragma: no cover
    mpz = int
    powmod = pow

#: Exact rationals are stdlib fractions: always in lowest terms, den >= 1.
ExactRational = Fraction

Rationalish = Union[int, Fraction]

WIDTH_BITS = 200
MAX_EXPONENT = 10

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


def max_exponent(p: int) -> int:
    """Largest k <= 10 with p^k inside the width contract."""
    k = MAX_EXPONENT
    while k > 1 and (p ** k).bit_length() > WIDTH_BITS:
        k -= 1
    return k


@dataclass(frozen=True, slots=True)
class PrimePowerModulus:
    """The ambient ring Z/p^k Z: prime base p, exponent k, value m = p^k."""

    p: int
    k: int
    m: int

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
    m = p ** k
    if m.bit_length() > WIDTH_BITS:
        raise WidthExceeded(f"{p}^{k} needs {m.bit_length()} bits (limit {WIDTH_BITS})")
    return PrimePowerModulus(p, k, m)


@dataclass(frozen=True, slots=True, eq=False)
class Residue:
    """An element of Z/p^k Z, always held in canonical form 0 <= value < m.

    Arithmetic accepts other residues of the same modulus, integers, and
    rationals with p-free denominator; anything else is rejected.
    """

    value: int
    modulus: PrimePowerModulus

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue((self.value + other.value) % self.modulus.m, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue((self.value - other.value) % self.modulus.m, self.modulus)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue((other.value - self.value) % self.modulus.m, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Residue(self.value * other.value % self.modulus.m, self.modulus)

    __rmul__ = __mul__

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

    def reduce_to(self, j: int) -> "Residue":
        """The image in Z/p^j Z for j <= k."""
        if not 1 <= j <= self.modulus.k:
            raise ExponentOutOfRange(f"cannot reduce exponent {self.modulus.k} to {j}")
        lower = make_modulus(self.modulus.p, j)
        return lower.residue(self.value)

    def valuation(self) -> int:
        """v_p of the value, capped at the exponent k (0 maps to the cap)."""
        return capped_valuation(self.value, self.modulus.p, self.modulus.k)


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


def batch_inverses(values: Sequence[Residue]) -> list[Residue]:
    """Elementwise inverses using prefix products and one inversion.

    Raises NotInvertible naming the first index with p | value.
    """
    if not values:
        return []
    modulus = values[0].modulus
    raw = []
    for i, v in enumerate(values):
        if v.modulus.m != modulus.m:
            raise ModulusMismatch("batch entries must share one modulus")
        if v.value % modulus.p == 0:
            raise NotInvertible(f"entry {v.value} not invertible", index=i)
        raw.append(v.value)
    return [Residue(x, modulus) for x in _batch_invert_raw(raw, modulus.m)]


def _batch_invert_raw(raw: Sequence[int], m) -> list:
    """Inverses of the units raw[i] mod m: prefix products, one inversion.

    The package's one prefix-product loop (``harmonic._inverse_chunks``
    feeds it); the inverses overwrite the prefixes in place, one list.
    """
    out = []
    acc = 1
    for x in raw:
        acc = acc * x % m
        out.append(acc)
    inv = pow(int(acc), -1, int(m))
    for i in range(len(out) - 1, 0, -1):
        out[i] = inv * out[i - 1] % m
        inv = inv * raw[i] % m
    out[0] = inv
    return out
