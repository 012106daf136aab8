"""Harmonic-type sums over 1..p-1 as residues modulo p^K.

Three families:

* ``R_n(p) = sum(1/k^n for k in 1..p-1)`` — power sums of inverses,
* ``H_n(p) = sum(1/(i_1*...*i_n))`` over n-subsets — elementary symmetric
  functions of the inverses,
* ``P_n(p) = sum(k^n for k in 1..p-1)`` — ordinary power sums,

plus the quotient w_p, the unique integer in [0, p^2) congruent to
R_1(p)/p^2 modulo p^2 (R_1's numerator is divisible by p^2 for p >= 5).

R and H are linked by Newton's identity

    R_n - H_1 R_{n-1} + H_2 R_{n-2} - ... + (-1)^(n-1) H_{n-1} R_1
        + (-1)^n n H_n = 0,

which is how H is computed and how both families are cross-checked.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt
from typing import Mapping

from .errors import DivisionNotExact, NMaxTooLarge
from .modring import Residue, make_modulus, mpz, powmod

#: Largest sum order this package ever needs (R_8/H_8).
N_MAX_CAP = 8

_CHUNK = 1 << 14


@dataclass(frozen=True)
class SumProfile:
    """R_1..R_n_max and H_1..H_n_max at one prime-power modulus."""

    p: int
    modulus_exponent: int
    n_max: int
    R: Mapping[int, Residue]
    H: Mapping[int, Residue]


@dataclass(frozen=True)
class WolstenholmeQuotient:
    """w_p in [0, p^2) with w_p = R_1(p)/p^2 (mod p^2)."""

    p: int
    w: int


def _inverse_chunks(p: int, m):
    """Inverses of 1..p-1 mod m in blocks, one modular inversion per block."""
    for lo in range(1, p, _CHUNK):
        hi = min(lo + _CHUNK, p)
        prefix = []
        acc = mpz(1)
        for k in range(lo, hi):
            acc = acc * k % m
            prefix.append(acc)
        inv = powmod(acc, -1, m)
        out = [0] * (hi - lo)
        for i in range(hi - lo - 1, 0, -1):
            out[i] = inv * prefix[i - 1] % m
            inv = inv * (lo + i) % m
        out[0] = inv
        yield out


def _inverse_power_sums_raw(p: int, n_max: int, m) -> list:
    """[R_1, .., R_n_max] mod m as raw integers (index 0 unused)."""
    m = mpz(m)
    sums = [0] * (n_max + 1)
    if n_max == 1:
        for chunk in _inverse_chunks(p, m):
            sums[1] += sum(chunk)
    else:
        for chunk in _inverse_chunks(p, m):
            for iv in chunk:
                x = iv
                sums[1] += x
                for n in range(2, n_max + 1):
                    x = x * iv % m
                    sums[n] += x
    return [s % m for s in sums]


def power_sum_inverses(p: int, n: int, K: int) -> Residue:
    """R_n(p) = sum of k^-n over 1..p-1, reduced mod p^K."""
    if p < 3:
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    modulus = make_modulus(p, K)
    return modulus.residue(_inverse_power_sums_raw(p, n, modulus.m)[n])


def elementary_symmetric(p: int, n_max: int, K: int) -> SumProfile:
    """H_1..H_n_max via the Newton recurrence, together with the R values.

    H_n = ((-1)^(n-1)/n) * (R_n + sum((-1)^i H_i R_{n-i} for i in 1..n-1)).
    """
    if n_max > p - 2:
        raise NMaxTooLarge(f"n_max {n_max} exceeds p-2 = {p - 2}")
    if not 1 <= n_max <= N_MAX_CAP:
        raise NMaxTooLarge(f"n_max {n_max} outside 1..{N_MAX_CAP}")
    modulus = make_modulus(p, K)
    m = mpz(modulus.m)
    R = _inverse_power_sums_raw(p, n_max, m)
    H = [0] * (n_max + 1)
    H[1] = R[1]
    for n in range(2, n_max + 1):
        acc = R[n]
        sign = -1
        for i in range(1, n):
            acc += sign * H[i] * R[n - i]
            sign = -sign
        acc = acc % m * powmod(n, -1, m) % m
        if n % 2 == 0:
            acc = -acc % m
        H[n] = acc
    return SumProfile(
        p=p,
        modulus_exponent=K,
        n_max=n_max,
        R={n: modulus.residue(R[n]) for n in range(1, n_max + 1)},
        H={n: modulus.residue(H[n]) for n in range(1, n_max + 1)},
    )


def power_sum(p: int, n: int, K: int) -> Residue:
    """P_n(p) = sum of k^n over 1..p-1, reduced mod p^K."""
    if p < 3:
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    modulus = make_modulus(p, K)
    return modulus.residue(power_sum_raw(p, n, modulus.m))


def _least_prime_factors(n: int) -> array:
    """lpf[k] for 0 <= k < n: the least prime factor of composite k, else 0."""
    lpf = array("I", [0]) * n
    small = [q for q in range(2, isqrt(n - 1) + 1)
             if all(q % d for d in range(2, isqrt(q) + 1))]
    # Descending, so the least prime factor of k is the last one written.
    for q in reversed(small):
        lpf[q * q::q] = array("I", [q]) * len(range(q * q, n, q))
    return lpf


def power_sum_raw(p: int, n: int, m) -> int:
    """P_n(p) = sum of k^n over 1..p-1, mod m, for any n >= 0 and m >= 1.

    k -> k^n mod m is completely multiplicative, so only primes pay a
    powmod: a composite k is pw[q] * pw[k // q] with q its least prime
    factor.  Both factors are at most (p-1)/2, so pw is kept only up to
    there; the upper half is summed unreduced and reduced once.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    m = mpz(m)
    half = (p - 1) // 2
    lpf = _least_prime_factors(p)
    pw = [0, 1 % m]
    for k, q in zip(range(2, half + 1), lpf[2:half + 1]):
        pw.append(pw[q] * pw[k // q] % m if q else powmod(k, n, m))
    total = sum(pw) + sum(
        pw[q] * pw[k // q] if q else powmod(k, n, m)
        for k, q in zip(range(half + 1, p), lpf[half + 1:]))
    return int(total % m)


def wolstenholme_quotient(p: int) -> WolstenholmeQuotient:
    """R_1(p) mod p^4, divided by p^2 exactly, reduced mod p^2."""
    modulus = make_modulus(p, 4)
    r1 = int(_inverse_power_sums_raw(p, 1, modulus.m)[1])
    square = p * p
    if r1 % square:
        raise DivisionNotExact(
            f"R_1({p}) is not divisible by {p}^2; requires p >= 5"
        )
    return WolstenholmeQuotient(p=p, w=(r1 // square) % square)


def euler_index_check(p: int, n: int, e: int) -> bool:
    """Identity R_{phi(p^e)-n} = P_n in Z/p^e Z (Euler's theorem).

    Kept as a consistency probe; direct inverse summation stays the
    computation path.
    """
    phi = p ** (e - 1) * (p - 1)
    if not 1 <= n < phi:
        raise ValueError("need 1 <= n < phi(p^e)")
    modulus = make_modulus(p, e)
    r = _power_sum_inverse_single(p, phi - n, modulus.m)
    return r == power_sum_raw(p, n, modulus.m)


def _power_sum_inverse_single(p: int, n: int, m) -> int:
    """R_n mod m for a single possibly-large n via powmod of inverses."""
    m = mpz(m)
    total = 0
    for chunk in _inverse_chunks(p, m):
        for iv in chunk:
            total += powmod(iv, n, m)
    return int(total % m)
