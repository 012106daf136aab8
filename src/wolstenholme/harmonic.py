"""Harmonic-type sums over 1..p-1 modulo p^K, as plain integers: the
kernels that the evaluation plan (``plan``) and the scans read.

Three families:

* ``R_n(p) = sum(1/k^n for k in 1..p-1)`` — power sums of inverses,
* ``H_n(p) = sum(1/(i_1*...*i_n))`` over n-subsets — elementary symmetric
  functions of the inverses,
* ``S_n(p) = sum(k^n for k in 1..(p-1)/2)`` — half power sums, the
  Bernoulli side's one power-sum read.

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
one modular inversion per block of pairs, gives every R_n.  That full-width
sweep serves the plan's T_1..T_6 mod p^10, hence its R_1..R_6 (Zhao's w_p
among them: R_1 mod p^4).

T_1 mod p^2 and T_3 mod p, all the scans and the lone Wolstenholme gate
read, need no inversion.  With g a primitive root, H = (p-1)/2 and g^H = -1,
k = g^i (i mod H) is one member of each pair and r = g^(H-i) = -1/k (mod p).
As 1/k = -r(2 + kr) and 1/(p-k) = -(1/k)(1 + p/k) (mod p^2), for k in [1, p)

    1/(k(p-k)) = -3r^2 + (p - 2k) r^3  (mod p^2),   1/(k(p-k))^3 = -r^6  (mod p).

Over i < H, r runs through g^j, 1 <= j <= H, so the terms needed only mod p
are geometric series: sum r^3 = -2a/(a - 1) with a = g^3 != 1, and T_3 =
-sum r^6 = -H if g^6 = 1 (p = 3, 7) else 0.  The half walk sums the rest,
-3r^2 - 2kr^3: the i < H/2 in blocks of 2^10 with their mirrors H - i, each
the other's r, so K = g^i and R = g^(H-i) add -(K^2 + R^2)(3 + 2KR), one term
per i in a block's one pass; on their own, i = 0 (k = 1, r = p-1) and, for
p = 1 (mod 4), the mirror's fixed point i = H/2 (k = r).

S_n is read by one direct pass over half the range (``power_sum_raw``)
or off Fermat-quotient moments.  With the integer u_k = (k^(p-1) - 1)/p, k^(j(p-1)+t) =
k^t (1 + p u_k)^j, so for every p, j >= 0 and t (k^t an inverse mod p^c
when t < 0)

    S_(j(p-1)+t) = sum(C(j, i) p^i S_it, i < c)  (mod p^c),  S_it = sum_k u_k^i k^t,

k over 1..(p-1)/2.  Terms i >= c vanish; C(j, i) is an integer, so nothing
is divided and a huge j costs nothing.  Term i carries p^i, so S_it is
needed only mod p^(c-i), and k^(p-1) only mod p^c.  The Bernoulli side
reads p B_n mod p^c, c <= 5, off S_(n-1) mod p^(c-1) by the half identity
(``bernoulli``), at the indices j(p-1) - s, s in {2, 4} (the low
k(p-1) - s and the Helou-Terjanian p^n - p^(n-1) - s alike), and at
4 + j(p-1) (t = -2, -4, 4 at c = 5); its tree descends from even n
to n - 2 at c - 2 and n - 4 at c - 4, and ends at c = 3, as at c = 1 von
Staudt-Clausen gives p B_n with no sum.  Closing that with the largest c
per t gives MOMENT_WINDOW, {4: 5, 2: 3, -2: 5, -4: 5, -6: 3}, whose half
sums are its classes t - 1 at c - 1, {3: 4, 1: 2, -3: 4, -5: 4, -7: 2}:
16 sums S_it mod p^4 in 5 classes, one sweep over k <= (p-1)/2.  The
sweep keys each half class t - 1 < 0 by its exponent e = t - 1 + p - 1
(p-4, p-6, p-8, read with j one lower): one half table of k^(p-8) mod p^4
and exact steps times k^2 give k^(p-6) and k^(p-4), and times k^3
k^(p-1), so nothing is inverted, and the Fermat quotients of k^(p-1) mod
p^4 are already below p^3.  It returns each class's c sums, so a reader
takes the window off them.  The sweep packs its classes into one integer
per k, one product sum per i, and costs about three half passes (2.4 to
5.3 ``power_sum_raw`` mod p^4 at an exponent below p, from p = 100003 down
to 101), so an evaluation plan (``plan``) makes it only for checks that
read ``plan.SWEEP_REQUESTS`` sums or more at the prime; a lone
``bernoulli_mod``, a Bernoulli scan or a suite of two Bernoulli reads
takes a direct half pass per half sum.
"""
from __future__ import annotations

from array import array
from itertools import repeat
from math import isqrt
from operator import add, lshift, mod, mul
from typing import Iterator

from .modring import _batch_invert_raw
# Bound, uncalled, for the benchmark's layer tracer (perfbench/tracer.py).
from .modring import make_modulus  # noqa: F401

#: Entries per block of every loop here: pairs of the full-width sweep (one
#: modular inversion each), k's of a half pass or the moment sweep, and
#: i's of the half walk.  A block keeps a few lists of this many residues
#: alive, the widest the unreduced v^i of a T_1..T_6 sweep mod p^10: a
#: traced peak of 0.34 MB at 16843 and 0.44 MB at 2124679, whatever the
#: number of pairs.
_CHUNK = 1 << 10

#: t -> c: the classes n = t (mod p-1) and precisions p^c of every p B_n the
#: Bernoulli side reads off the window, which sweeps their half sums
#: S_(n-1) as the classes t - 1 at c - 1 (derivation in the module doc).
MOMENT_WINDOW = {4: 5, 2: 3, -2: 5, -4: 5, -6: 3}


def _exponent(p: int, m) -> int:
    """c with m = p^c; a ValueError for any other modulus."""
    c, q = 0, 1
    while q < m:
        q, c = q * p, c + 1
    if q != m:
        raise ValueError(f"modulus {m} is not a power of {p}")
    return c


def _pair_power_sums_raw(p: int, n_max: int, m) -> list:
    """[_, T_1, .., T_n_max] mod m = p^c, T_i = sum of v_k^i over the pairs:
    each block of _CHUNK products k(p-k) inverted mod m, the v^i summed
    unreduced in C, one reduction at the end, and the last power never kept."""
    _exponent(p, m)
    sums, end = [0] * (n_max + 1), (p - 1) // 2 + 1
    for lo in range(1, end, _CHUNK):
        hi = min(lo + _CHUNK, end)
        qs = list(map(mul, range(lo, hi), range(p - lo, p - hi, -1)))
        x = vs = _batch_invert_raw(qs, m)
        sums[1] += sum(vs)
        for i in range(2, n_max + 1):
            x = map(mul, x, vs) if i == n_max else list(map(mul, x, vs))
            sums[i] += sum(x)
    return [0] + [s % m for s in sums[1:]]


def _primitive_root(p: int) -> int:
    """The least primitive root g < p of the prime p.  By Lucas's theorem no
    g has order p - 1 unless p is prime: any other p raises ValueError."""
    n, qs = p - 1, set()  # the prime factors q of p - 1
    for d in range(2, isqrt(max(n, 0)) + 1):
        while n % d == 0:
            n //= d
            qs.add(d)
    if n > 1:
        qs.add(n)
    for g in range(2, p):
        if pow(g, p - 1, p) == 1 and all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ValueError(f"{p} has no primitive root of order {p - 1}: not an odd prime")


def _walk_pair_sums_raw(p: int) -> tuple[int, int]:
    """(T_1 mod p^2, T_3 mod p) by the half walk (module doc), p an odd prime:
    a block sums its entries' (K^2 + R^2)(3 + 2KR) unreduced, in one pass."""
    g, half = _primitive_root(p), (p - 1) // 2
    end = (half + 1) // 2  # walk 1 <= i < end, with the mirrors H - i > H - end
    n = min(_CHUNK, end - 1)  # g^b for b < n, baby steps times giant steps
    baby = [pow(g, b, p) for b in range(32)]
    table = [x * y % p for x in (pow(g, 32 * a, p) for a in range(-(-n // 32)))
             for y in baby][:n]
    acc = 0
    for lo in range(1, end, _CHUNK):
        gb = table[:end - lo]
        gk, gr = pow(g, lo, p), pow(g, half - lo - len(gb) + 1, p)
        # K = g^(lo + b) and R = g^(H - lo - b)
        acc += sum([((K := gk * x % p) * K + (R := gr * y % p) * R) * (3 + 2 * K * R)
                    for x, y in zip(gb, reversed(gb))])
    fixed = [(1, p - 1)]  # i = 0
    if half % 2 == 0:  # i = H/2, where k = r and k^2 = -1
        fixed.append((pow(g, half // 2, p),) * 2)
    a = pow(g, 3, p)
    t1 = (-2 * a * pow(a - 1, -1, p) * p - acc
          - sum(3 * r * r + 2 * k * r ** 3 for k, r in fixed))
    return t1 % (p * p), (-half if pow(g, 6, p) == 1 else 0) % p


def _inverse_power_sums_raw(p: int, n_max: int, m) -> list:
    """[_, R_1, .., R_n_max] mod m = p^c, read off the pair sums T_i (module
    doc), by the full-width sweep; R_1 alone mod p^c, c <= 3, needs T_1 mod
    p^2 only, which the half walk gives."""
    c = _exponent(p, m)
    if p == 2:  # no pair: k = p - k = 1, and R_n(2) = 1
        return [0] + [1 % m] * n_max
    if n_max == 1 and c <= 3:
        return [0, p * _walk_pair_sums_raw(p)[0] % m]
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
        H[n] = (-1) ** (n - 1) * (acc % m) * pow(n, -1, m) % m
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
    """(ks, [k^e mod m for k in ks]) in blocks of _CHUNK over 1..(p-1)/2.

    The package's one loop over k^e.  k -> k^e is completely multiplicative,
    so only primes pay a modular pow: a composite k is pw[q] * pw[k // q]
    with q its least prime factor.
    """
    mid = (p - 1) // 2
    lpf = _least_prime_factors(mid + 1)
    pw = [0, 1 % m]
    for k, q in zip(range(2, mid + 1), lpf[2:]):
        pw.append(pw[q] * pw[k // q] % m if q else pow(k, e, m))
    for lo in range(1, mid + 1, _CHUNK):
        ks = range(lo, min(lo + _CHUNK, mid + 1))
        yield ks, pw[lo:ks.stop]


def _moment_sums_raw(p: int) -> dict:
    """{e: [S_0e, .., S_(c-1)e]}, S_ie = sum(u_k^i k^e, k <= (p-1)/2) mod
    p^(c-i), over the half window: each class t of MOMENT_WINDOW at c read
    as t - 1 at c - 1, a class below 0 keyed by its exponent e = t - 1 + p - 1
    in the sweep (below 0 for p < 8, an inverse power); where two classes meet
    (p = 5, 7, 11) the larger c holds.  Slot s of X_k = sum(k^e 2^(s w)), e
    the s-th key, sums u^i k^e to S_ie: with k^(p-8) reduced mod p^top, k^e
    is below p^(top+4) and u^i below p^(top-1), so fewer than p terms sum
    below p^(2 top + 4) < 2^w, and no slot carries into the next."""
    window = {(t - 1 if t > 0 else t + p - 2): c - 1
              for t, c in sorted(MOMENT_WINDOW.items(), key=lambda tc: tc[1])}
    top = max(window.values())
    m, w = p ** top, (2 * top + 4) * p.bit_length()
    last, *lower = reversed(window)  # the slots, packed from the top one down
    acc = [0] * top
    for ks, x in _powers(p, p - 8, m):
        k2 = [k * k for k in ks]
        k3 = list(map(mul, k2, ks))
        xs = {p - 8: x}
        for e in (p - 6, p - 4):  # exact steps of k^2 from k^(p-8)
            x = xs[e] = list(map(mul, x, k2))
        # k^(p-1) mod p^top = 1 (mod p), so its Fermat quotient is below p^(top-1)
        u = [(f - 1) // p for f in map(mod, map(mul, x, k3), repeat(m))]
        xs[1], xs[3] = ks, k3
        X = xs[last]
        for e in lower:
            X = map(add, map(lshift, X, repeat(w)), xs[e])
        X, ui = list(X), u
        del xs, x  # from here a block holds X and one power u^i mod p^(top-i)
        acc[0] += sum(X)
        for i in range(1, top):  # summed unreduced, reduced once at the end
            if i > 1:
                mi = p ** (top - i)
                ui = [a * b % mi for a, b in zip(ui, u)]
            acc[i] += sum(map(mul, ui, X))
    mask = (1 << w) - 1
    return {e: [(acc[i] >> s * w & mask) % p ** (c - i) for i in range(c)]
            for s, (e, c) in enumerate(window.items())}


def power_sum_raw(p: int, n: int, m) -> int:
    """The half sum S_n = sum of k^n over 1..(p-1)/2, mod m = p^c, by one
    direct pass."""
    if p < 3:
        raise ValueError("p must be at least 3")
    _exponent(p, m)
    phi = m // p * (p - 1)  # Euler: k^n = k^e for k prime to p if n = e (mod phi)
    e = (n + phi // 2) % phi - phi // 2  # the e nearest 0 has the fewest bits
    return sum(sum(x) for _, x in _powers(p, e, m)) % m
