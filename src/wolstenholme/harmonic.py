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

R is not summed over 1..p-1 but over the pairs (k, p-k), k <= (p-1)/2,
as the paper does for eq19 and lemma13.  With a = k, b = p - k,
a + b = p and ab = q = k(p-k), the pair inverse v = 1/q gives

    1/k = (p-k) v,   1/(p-k) = k v,   1/k^n + 1/(p-k)^n = s_n v^n,

where s_n = a^n + b^n obeys s_0 = 2, s_1 = p, s_n = p s_{n-1} - q s_{n-2}.
Writing s_n = sum_j c_{n,j} p^(n-2j) q^j and T_i = sum_k v_k^i,

    R_n = sum_j c_{n,j} p^(n-2j) T_{n-j}      (R_1 = p T_1,
          R_2 = p^2 T_2 - 2 T_1, R_3 = p^3 T_3 - 3p T_2, ...),

an identity of integers mod any m, so one sweep over half the range,
one modular inversion per block of pairs, gives every R_n.

P is read off Fermat-quotient moments.  With the integer
u_k = (k^(p-1) - 1)/p, k^(j(p-1)+t) = k^t (1 + p u_k)^j, so for every p,
j >= 0 and t (k^t an inverse mod p^c when t < 0)

    P_(j(p-1)+t) = sum(C(j, i) p^i S_it, i < c)  (mod p^c),  S_it = sum_k u_k^i k^t.

Terms i >= c vanish; C(j, i) is an integer, so nothing is divided and a
huge j costs nothing.  Term i carries p^i, so S_it is needed only mod
p^(c-i), and k^(p-1) only mod p^c.  The Bernoulli side asks for P_n at
c <= 5 at the Kummer-reduced indices k(p-1) - s, s in {2, 4}, and at
4 + k(p-1) (t = -2, -4, 4 at c = 5); its recursion descends from even n
to n + 1 - s, s in {3, 5}, at c - s + 1 (t - 2 at c - 2, t - 4 at c - 4).
Closing that with the largest c per t gives the window
{4: 5, 2: 3, 0: 1, -2: 5, -4: 5, -6: 3, -8: 1}: 23 sums S_it, one sweep.
A registry run at p makes 47 such requests; a caller making a few
(``bernoulli_mod``, a Bernoulli scan) gets a direct pass each instead, as
the sweep costs about eight passes.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt
from operator import mul
from typing import Iterator, Mapping

from .errors import DivisionNotExact, NMaxTooLarge
from .modring import Residue, _batch_invert_raw, make_modulus, mpz, powmod

#: Largest sum order this package ever needs (R_8/H_8).
N_MAX_CAP = 8

#: Pairs per block, one modular inversion each.  A block keeps about three
#: lists of this many residues alive, under 1 MB even at p^10, so a sweep's
#: peak memory does not grow with p.
_CHUNK = 1 << 12

#: k's per block of a power-sum pass or the moment sweep.  A block keeps
#: about ten lists of residues alive; 2^10 keeps that under 1 MB at p^5.
_MOMENT_CHUNK = 1 << 10

#: t -> c: the classes n = t (mod p-1) and precisions p^c of every P_n the
#: Bernoulli side asks for (derivation in the module doc).
MOMENT_WINDOW = {4: 5, 2: 3, 0: 1, -2: 5, -4: 5, -6: 3, -8: 1}

#: Window requests at a prime served by direct passes before the sweep:
#: ``bernoulli_mod`` makes at most three, a Bernoulli scan one per prime.
DIRECT_PASSES = 3


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


def _pair_inverses(p: int, m) -> Iterator[tuple[range, list]]:
    """(ks, [v_k for k in ks]) in blocks, v_k = 1/(k(p-k)) mod m.

    The ks run over 1..(p-1)/2, one block of at most _CHUNK pairs at a time.
    """
    end = (p - 1) // 2 + 1
    for lo in range(1, end, _CHUNK):
        ks = range(lo, min(lo + _CHUNK, end))
        yield ks, _batch_invert_raw([k * (p - k) for k in ks], m)


def _pair_power_sums_raw(p: int, n_max: int, m) -> list:
    """[_, T_1, .., T_n_max] mod m, T_i = sum of v_k^i over the pairs."""
    m = mpz(m)
    sums = [0] * (n_max + 1)
    for _, vs in _pair_inverses(p, m):
        sums[1] += sum(vs)
        x = vs
        for i in range(2, n_max):
            x = [a * v % m for a, v in zip(x, vs)]
            sums[i] += sum(x)
        if n_max > 1:  # the top power feeds nothing, so it is summed unreduced
            sums[n_max] += sum(map(mul, x, vs))
    return [s % m for s in sums]


def _inverse_power_sums_raw(p: int, n_max: int, m) -> list:
    """[_, R_1, .., R_n_max] mod m, read off the pair sums T_i (module doc)."""
    m = mpz(m)
    if p == 2:  # no pair: k = p - k = 1, and R_n(2) = 1
        return [0] + [1 % m] * n_max
    T = _pair_power_sums_raw(p, n_max, m)
    # c[n][j], the coefficient of p^(n-2j) q^j in s_n
    c = [[2], [1]]
    for n in range(2, n_max + 1):
        c.append([a - b for a, b in zip(c[n - 1] + [0], [0] + c[n - 2])])
    return [0] + [
        sum(cj * p ** (n - 2 * j) * T[n - j] for j, cj in enumerate(c[n])) % m
        for n in range(1, n_max + 1)]


def power_sum_inverses(p: int, n: int, K: int) -> Residue:
    """R_n(p) = sum of k^-n over 1..p-1, reduced mod p^K."""
    if p < 3:
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    modulus = make_modulus(p, K)
    return modulus.residue(_inverse_power_sums_raw(p, n, modulus.m)[n])


def elementary_symmetric(p: int, n_max: int, K: int) -> SumProfile:
    """H_1..H_n_max via the Newton recurrence, together with the R values."""
    if n_max > p - 2:
        raise NMaxTooLarge(f"n_max {n_max} exceeds p-2 = {p - 2}")
    if not 1 <= n_max <= N_MAX_CAP:
        raise NMaxTooLarge(f"n_max {n_max} outside 1..{N_MAX_CAP}")
    modulus = make_modulus(p, K)
    m = mpz(modulus.m)
    R = _inverse_power_sums_raw(p, n_max, m)
    H = _newton_h_raw(R, n_max, m)
    return SumProfile(
        p=p,
        modulus_exponent=K,
        n_max=n_max,
        R={n: modulus.residue(R[n]) for n in range(1, n_max + 1)},
        H={n: modulus.residue(H[n]) for n in range(1, n_max + 1)},
    )


def _newton_h_raw(R, n_max: int, m) -> list:
    """[_, H_1, .., H_n_max] mod m from [_, R_1, .., R_n_max] (needs n_max < p).

    H_n = ((-1)^(n-1)/n) * (R_n + sum((-1)^i H_i R_{n-i} for i in 1..n-1)).
    """
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
    return H


def power_sum(p: int, n: int, K: int) -> Residue:
    """P_n(p) = sum of k^n over 1..p-1, reduced mod p^K."""
    if p < 3:
        raise ValueError("p must be an odd prime")
    if n < 1:
        raise ValueError("n must be positive")
    modulus = make_modulus(p, K)
    return modulus.residue(power_sum_raw(p, n, modulus.m))


# One sieve per prime: every pass and the window sweep at p share it.
@lru_cache(maxsize=1)
def _least_prime_factors(n: int) -> array:
    """lpf[k] for 0 <= k < n: the least prime factor of composite k, else 0.

    The array is shared by every caller with the same n (memoised for the
    last n only), so callers read or slice it and never write to it.
    """
    lpf = array("I", [0]) * n
    small = [q for q in range(2, isqrt(n - 1) + 1)
             if all(q % d for d in range(2, isqrt(q) + 1))]
    # Descending, so the least prime factor of k is the last one written.
    for q in reversed(small):
        lpf[q * q::q] = array("I", [q]) * len(range(q * q, n, q))
    return lpf


def _powers(p: int, e: int, m) -> Iterator[tuple[range, list]]:
    """(ks, [k^e mod m for k in ks]) in blocks of _MOMENT_CHUNK over 1..p-1.

    The package's one loop over k^e.  k -> k^e is completely multiplicative,
    so only primes pay a powmod: a composite k is pw[q] * pw[k // q] with q
    its least prime factor.  Both factors are at most (p-1)/2, so pw is kept
    only up to there, and the upper half is left unreduced (below m^2).
    """
    half = (p - 1) // 2
    lpf = _least_prime_factors(p)
    pw = [0, 1 % m]
    for k, q in zip(range(2, half + 1), lpf[2:half + 1]):
        pw.append(pw[q] * pw[k // q] % m if q else powmod(k, e, m))
    for lo in range(1, half + 1, _MOMENT_CHUNK):
        ks = range(lo, min(lo + _MOMENT_CHUNK, half + 1))
        yield ks, pw[lo:ks.stop]
    for lo in range(half + 1, p, _MOMENT_CHUNK):
        ks = range(lo, min(lo + _MOMENT_CHUNK, p))
        yield ks, [pw[q] * pw[k // q] if q else powmod(k, e, m)
                   for k, q in zip(ks, lpf[lo:ks.stop])]


def _block_powers(ks: range, low: int, m) -> Iterator[tuple[int, list]]:
    """(t, [k^t mod m for k in ks]) for t = 4, 2, 0, -2, .., low (even, < 0).

    k^2 and k^4 are exact; k^-2 comes from one block inversion of the k^2
    (``modring._batch_invert_raw``) and each lower power multiplies it on,
    so only the last power and k^-2 are alive at a time.
    """
    x2 = [k * k for k in ks]
    yield 4, [x * x for x in x2]
    yield 2, x2
    yield 0, [1] * len(ks)
    x = step = _batch_invert_raw(x2, m)
    for t in range(-2, low - 1, -2):
        if t < -2:
            x = [a * b % m for a, b in zip(x, step)]
        yield t, x


def _moment_sums_raw(p: int) -> dict:
    """{t: [S_0t, .., S_(c-1)t]} over MOMENT_WINDOW {t: c}, S_it mod p^(c-i)."""
    top = max(MOMENT_WINDOW.values())
    m = mpz(p) ** top
    sums = {t: [0] * c for t, c in MOMENT_WINDOW.items()}
    for ks, fermat in _powers(p, p - 1, m):
        mu = p ** (top - 1)
        u = [(x - 1) // p % mu for x in fermat]  # the Fermat quotients
        us = [None, u]
        for i in range(2, top):
            mi = p ** (top - i)
            us.append([x * y % mi for x, y in zip(us[-1], u)])
        for t, x in _block_powers(ks, min(MOMENT_WINDOW), m):
            s = sums[t]
            s[0] += sum(x)
            for i in range(1, len(s)):  # summed unreduced, reduced once at the end
                s[i] += sum(map(mul, us[i], x))
    return {t: [x % p ** (c - i) for i, x in enumerate(sums[t])]
            for t, c in MOMENT_WINDOW.items()}


@lru_cache(maxsize=1)
def _held(p: int) -> dict:
    """Direct passes made at p and p's window moments, for the last p only."""
    return {"passes": 0, "moments": None}


def power_sum_raw(p: int, n: int, m) -> int:
    """P_n(p) = sum of k^n over 1..p-1, mod m = p^c, for any n >= 0.

    Inside the window (the class t = n (mod p-1), t <= n, held to p^c) the
    first DIRECT_PASSES requests at p are direct passes; later ones read
    P_(j(p-1)+t) = sum(C(j, i) p^i S_it, i < c) (mod p^c) off one sweep of
    the window's moment sums (module doc).  Outside it, a direct pass.
    """
    if p < 3:
        raise ValueError("p must be at least 3")
    c, q = 0, 1
    while q < m:
        c, q = c + 1, q * p
    if q != m:
        raise ValueError(f"modulus {m} is not a power of {p}")
    t = next((t for t, top in MOMENT_WINDOW.items()
              if top >= c and t <= n and (n - t) % (p - 1) == 0), None)
    if t is not None:
        held = _held(p)
        if held["moments"] is None and held["passes"] == DIRECT_PASSES:
            held["moments"] = _moment_sums_raw(p)
        if held["moments"] is not None:
            j = (n - t) // (p - 1)
            return int(sum(comb(j, i) * p ** i * held["moments"][t][i]
                           for i in range(c)) % m)
        held["passes"] += 1
    return int(sum(sum(x) for _, x in _powers(p, n, mpz(m))) % m)


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
    """R_n mod m for a single possibly-large n: powmods of (p-k) v and k v."""
    m = mpz(m)
    total = 0
    for ks, vs in _pair_inverses(p, m):
        for k, v in zip(ks, vs):
            total += powmod((p - k) * v % m, n, m) + powmod(k * v % m, n, m)
    return int(total % m)
