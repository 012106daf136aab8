"""Harmonic-type sums over 1..p-1 modulo p^K, as plain integers: the
kernels that the evaluation plan (``plan``) and the scans read.

Three families:

* ``R_n(p) = sum(1/k^n for k in 1..p-1)`` — power sums of inverses,
* ``H_n(p) = sum(1/(i_1*...*i_n))`` over n-subsets — elementary symmetric
  functions of the inverses,
* ``P_n(p) = sum(k^n for k in 1..p-1)`` — ordinary power sums.

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

Each caller says at which precision it reads T_1 (p^c) and the higher T_i.
Where those fit in p^h, the digit exponent (the largest h <= c with p^h
below one CPython int digit, 2^30 on 64-bit builds; at c = 2, h = 2 below
p = 32768 and 1 above), the sweep inverts each q mod p^h only, in
one-digit arithmetic, and lifts T_1 exactly.  With w = 1/q mod p^h and
u = qw, so that p^h divides 1 - u, and J = ceil(c/h),

    1/q = w (1 + (1-u) + .. + (1-u)^(J-1))
        = sum((-1)^i C(J, i+1) w u^i, i < J)   (mod p^c),

so T_1 is an integer combination of the block sums of w u^i, and
T_i = sum w^i (mod p^h) for i >= 2.  The scans need T_1 mod p^2 and T_3
mod p (two-sum) or T_1 mod p^2 (R_1 mod p^3).  Where the higher T_i do
not fit p^h (the plan's T_1..T_6 mod p^top), the same loop runs with
h = c: each block is inverted mod p^c, J = 1 and nothing is lifted.

P is read off Fermat-quotient moments.  With the integer
u_k = (k^(p-1) - 1)/p, k^(j(p-1)+t) = k^t (1 + p u_k)^j, so for every p,
j >= 0 and t (k^t an inverse mod p^c when t < 0)

    P_(j(p-1)+t) = sum(C(j, i) p^i S_it, i < c)  (mod p^c),  S_it = sum_k u_k^i k^t.

Terms i >= c vanish; C(j, i) is an integer, so nothing is divided and a
huge j costs nothing.  Term i carries p^i, so S_it is needed only mod
p^(c-i), and k^(p-1) only mod p^c.  The Bernoulli side asks for P_n at
c <= 5 at the indices j(p-1) - s, s in {2, 4} (the low k(p-1) - s and the
Helou-Terjanian p^n - p^(n-1) - s alike), and at 4 + j(p-1) (t = -2, -4, 4
at c = 5); its recursion descends from even n to n + 1 - s, s in {3, 5},
at c - s + 1 (t - 2 at c - 2, t - 4 at c - 4), and ends at c = 3, as at
c = 1 von Staudt-Clausen gives p B_n with no sum (``bernoulli``).  Closing
that with the largest c per t gives the window
{4: 5, 2: 3, -2: 5, -4: 5, -6: 3}: 21 sums S_it in 5 classes, one sweep.
The sweep costs five to seven direct passes (``power_sum_raw``) mod p^5,
so an evaluation plan (``plan``) makes it only for checks that read
``plan.SWEEP_REQUESTS`` P_n or more at a prime (a registry run's make 24);
a lone ``bernoulli_mod``, a Bernoulli scan or a suite of one small
Bernoulli check takes a pass per request.
"""
from __future__ import annotations

import sys
from array import array
from itertools import repeat
from math import comb, isqrt
from operator import mod, mul
from typing import Iterator

from .modring import _batch_invert_raw, mpz, powmod
# Bound, uncalled, for the benchmark's layer tracer (perfbench/tracer.py).
from .modring import make_modulus  # noqa: F401

#: Pairs per block, one modular inversion each.  A block keeps a few lists
#: of this many residues alive, the widest the unreduced v^i of a T_1..T_6
#: sweep mod p^top: a traced peak of 1.4 MB at 16843 (p^10) and 1.7 MB at
#: 2124679 (p^9), so a sweep's peak memory does not grow with the pairs.
_CHUNK = 1 << 12

#: Bits per CPython int digit: a residue below 2^_DIGIT_BITS is one digit.
_DIGIT_BITS = sys.int_info.bits_per_digit

#: k's per block of a power-sum pass or the moment sweep.  A block keeps
#: about ten lists of residues alive; 2^10 keeps that under 1 MB at p^5.
_MOMENT_CHUNK = 1 << 10

#: t -> c: the classes n = t (mod p-1) and precisions p^c of every P_n the
#: Bernoulli side asks for (derivation in the module doc).
MOMENT_WINDOW = {4: 5, 2: 3, -2: 5, -4: 5, -6: 3}


def _pair_products(p: int) -> Iterator[tuple[range, list]]:
    """(ks, [k(p-k) for k in ks]) in blocks of _CHUNK over 1..(p-1)/2."""
    end = (p - 1) // 2 + 1
    for lo in range(1, end, _CHUNK):
        ks = range(lo, min(lo + _CHUNK, end))
        yield ks, list(map(mul, ks, range(p - lo, p - ks.stop, -1)))


def _exponent(p: int, m) -> int:
    """c with m = p^c; a ValueError for any other modulus."""
    c, q = 0, 1
    while q < m:
        q, c = q * p, c + 1
    if q != m:
        raise ValueError(f"modulus {m} is not a power of {p}")
    return c


def _digit_exponent(p: int, c: int) -> int:
    """The largest h <= c with p^h below one int digit, at least 1."""
    h = 1
    while h < c and p ** (h + 1) < 1 << _DIGIT_BITS:
        h += 1
    return h


def _pair_power_sums_raw(p: int, n_max: int, m, m_high=None) -> list:
    """[_, T_1, .., T_n_max], T_i = sum of v_k^i over the pairs: T_1 mod
    m = p^c, the higher T_i mod m_high (a power of p up to m, default m).

    Each block is inverted mod p^h, h the digit exponent (module doc), and
    T_1 lifted to p^c; where the higher T_i do not fit p^h, h = c and there
    is no lift.  The w^i are summed unreduced, one reduction at the end.
    """
    c = _exponent(p, m)
    m_high = m if m_high is None else m_high
    h = _digit_exponent(p, c)
    if n_max > 1 and _exponent(p, m_high) > h:
        h = c
    ph, J = p ** h, max(1, -(-c // h))
    lift = [0] * J  # lift[i] = sum of w u^i, u = q w = 1 (mod p^h)
    sums = [0] * (n_max + 1)
    for _, qs in _pair_products(p):
        # q < p^2/4 < p^h unless h = 1: only then is q reduced first
        ws = _batch_invert_raw(qs if h > 1 else list(map(mod, qs, repeat(p))), ph)
        u = map(mul, qs, ws)
        lift[0] += sum(ws)
        for i, s in enumerate(_geometric_sums(ws, u if J < 3 else list(u), J - 1), 1):
            lift[i] += s
        for i, s in enumerate(_geometric_sums(ws, ws, n_max - 1), 2):
            sums[i] += s
    t1 = sum((-1) ** i * comb(J, i + 1) * s for i, s in enumerate(lift))
    return [0, t1 % m] + [s % m_high for s in sums[2:]]


def _geometric_sums(x: list, r, n: int) -> Iterator[int]:
    """sum(x r^i) for i = 1..n, elementwise.  r is read n times (an
    iterator serves n = 1), and only a product a later sum needs is kept."""
    for i in range(n):
        x = map(mul, x, r) if i + 1 == n else list(map(mul, x, r))
        yield sum(x)


def _inverse_power_sums_raw(p: int, n_max: int, m) -> list:
    """[_, R_1, .., R_n_max] mod m = p^c, read off the pair sums T_i (module
    doc).  R_1 = p T_1 alone needs T_1 mod p^(c-1) only."""
    m = mpz(m)
    _exponent(p, m)
    if p == 2:  # no pair: k = p - k = 1, and R_n(2) = 1
        return [0] + [1 % m] * n_max
    if n_max == 1:
        return [0, p * _pair_power_sums_raw(p, 1, m // p)[1] % m]
    return _inverse_from_pair_sums(p, _pair_power_sums_raw(p, n_max, m), m)


def _inverse_from_pair_sums(p: int, T: list, m) -> list:
    """[_, R_1, .., R_n] mod m from the pair sums [_, T_1, .., T_n], p odd."""
    # c[n][j], the coefficient of p^(n-2j) q^j in s_n
    c = [[2], [1]]
    for n in range(2, len(T)):
        c.append([a - b for a, b in zip(c[n - 1] + [0], [0] + c[n - 2])])
    return [0] + [
        sum(cj * p ** (n - 2 * j) * T[n - j] for j, cj in enumerate(c[n])) % m
        for n in range(1, len(T))]


def _newton_h_raw(R, n_max: int, m) -> list:
    """[_, H_1, .., H_n_max] mod m from [_, R_1, .., R_n_max] (needs n_max < p).

    H_n = ((-1)^(n-1)/n) * (R_n + sum((-1)^i H_i R_{n-i} for i in 1..n-1)).
    """
    H = [0] * (n_max + 1)
    H[1] = R[1]
    for n in range(2, n_max + 1):
        acc = R[n] + sum((-1) ** i * H[i] * R[n - i] for i in range(1, n))
        H[n] = (-1) ** (n - 1) * (acc % m) * powmod(n, -1, m) % m
    return H


def _least_prime_factors(n: int) -> array:
    """lpf[k] for 0 <= k < n: the least prime factor of composite k, else 0."""
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
    """(t, [k^t mod m for k in ks]) for t = 4, 2, -2, .., low (even, < 0).

    k^2 and k^4 are exact; k^-2 comes from one block inversion of the k^2
    (``modring._batch_invert_raw``) and each lower power multiplies it on,
    so only the last power and k^-2 are alive at a time.
    """
    x2 = [k * k for k in ks]
    yield 4, [x * x for x in x2]
    yield 2, x2
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


def power_sum_raw(p: int, n: int, m) -> int:
    """P_n(p) = sum of k^n over 1..p-1, mod m = p^c, by one direct pass."""
    if p < 3:
        raise ValueError("p must be at least 3")
    _exponent(p, m)
    phi = m // p * (p - 1)  # Euler: k^n = k^e for k prime to p if n = e (mod phi)
    e = (n + phi // 2) % phi - phi // 2  # the e nearest 0 has the fewest bits
    return int(sum(sum(x) for _, x in _powers(p, e, mpz(m))) % m)
