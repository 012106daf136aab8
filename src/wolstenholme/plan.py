"""Per-prime evaluation plan: the sums the checks read at one prime, each
computed once and dropped with the plan.

A plan for p builds each Z/p^k Z (k <= ``MAX_EXPONENT``) on first use and
without a new primality test, and runs each sweep at most once, on first read:

* Pairs: T_i = sum v^i over v = 1/(k(p-k)) (see ``harmonic``), each only
  as far as a read reaches, mod p^(11-2i): T_1..T_4 from one sweep mod
  p^9, and T_5 mod p by a closed form, as v = -1/k^2 (mod p) makes T_5 =
  -(1/2) sum(k^-10, k < p), which is 1/2 where (p-1) | 10 (p = 3, 11) and
  0 elsewhere; T_6 would enter R_6 as p^6 T_6 only, so it is left at 0.
  R_n = sum_j c_{n,j} p^(n-2j) T_{n-j} is then exact mod p^(11-n), and so
  is H_n by Newton's identities: no registry row reads R_n or H_n past
  p^(11-n), and eq. 19's p^(n-1) R_n mod p^10 reads exactly that far.
  The e_j of the v's give the products
  E(s) = prod(1 + sp/k, k < p), as (1 + sp/k)(1 + sp/(p-k)) = 1 + (s + s^2) p^2 v:
  mod p^10 (terms j >= 5 carry p^10; the e_j divide by 2, 3 and 4, so p >= 5;
  e_j is read mod p^(10-2j), off T_i, i <= j, so the products are exact)

      E(s) = sum(((s + s^2) p^2)^j e_j, j <= 4),  s = 1, 2, 3.

  E(1) = C(2p-1, p-1), E(2) = C(3p, 2p)/3 = C(3p, p)/3, E(3) = C(4p, p)/4,
  and C(4p-1, 2p-1) = 3 E(2) E(3)/E(1) (split C(4p, 2p) = 2 C(4p-1, 2p-1)
  at i = p and 2p).  The plan serves them as ints mod p^10 (``R``, ``H``,
  ``products``), unreduced to their precisions.
  As C - 1 = 2p^2 T_1 (mod p^4), p is a Wolstenholme prime exactly when
  T_1 = 0 (mod p^2), that is R_1 = p T_1 = 0 (mod p^3).  When every check
  a plan serves is Wolstenholme-only (``gate_alone``), nothing reads the
  pairs before that gate, so it reads R_1 mod p^3 off the half walk and
  a prime that fails it never pays the full sweep.
* Moments: the plan's callers tell it the window reads its checks make,
  the lengths of their suite's node lists (``checks``): ``requests``, and
  ``wolstenholme_requests`` for the nodes only Wolstenholme-only checks
  add, which count only if p passes the gate.  From SWEEP_REQUESTS on, the
  first read sweeps the Fermat-quotient moments of the half window (classes
  t - 1 at c - 1 of ``harmonic.MOMENT_WINDOW``, over k <= (p-1)/2), and
  ``half_sum`` serves every S_n = sum(k^n, k <= (p-1)/2) in it, a read
  finding its class by n mod (p-1), whose count of sums is the class's
  precision: ``bernoulli`` reads p B_n mod p^c off S_(n-1) mod p^(c-1).
  A read the window does not hold at the c asked (at p = 7 the class
  t = -6, where 2^t = 1 (mod p)) and every read of a plan that does not
  sweep (a lone ``bernoulli_mod``, a Bernoulli scan, a suite of two
  Bernoulli reads) make one direct pass of S_n over k <= (p-1)/2.  At the
  Helou-Terjanian indices n = j(p-1) + t with p^(c-2) dividing j, Euler's
  theorem mod p^(c-1) cuts that pass's exponent n - 1 to t - 1.

``bernoulli`` memoises p B_n in ``plan.pb``, keyed by n: it holds p B_n
mod p^c at the highest c computed so far, and a read at lower c reduces it.
A plan told of node reads has them read 2^(1-n) off its table of 2 (``two``),
which a lone read never builds, and ``listed`` counts the lists run at p.
"""
from __future__ import annotations

from functools import cached_property
from math import comb

from . import harmonic
from .modring import MAX_EXPONENT, PrimePowerModulus, make_modulus

#: Window reads at one prime from which one moment sweep is cheaper than a
#: direct half pass per read: the sweep costs 2.4 to 5.3 half passes mod p^4
#: from p = 100003 down to 101, and passes at lower c cost less, so two reads
#: take passes and three sweep, at about the passes' cost.
SWEEP_REQUESTS = 3


class EvaluationPlan:
    """The sums read at one prime p, which must be prime."""

    def __init__(self, p: int, requests: int = 0, wolstenholme_requests: int = 0,
                 gate_alone: bool = False):
        self.p, self.pb, self.listed = p, {}, 0
        self.requests, self.wolstenholme_requests = requests, wolstenholme_requests
        self.gate_alone = gate_alone
        self.moduli, self.m = {}, p ** MAX_EXPONENT  # the sweeps' modulus, p^10

    def modulus(self, k: int) -> PrimePowerModulus:
        """Z/p^k Z, built on first use (outside 1..10, make_modulus refuses)."""
        M = self.moduli.get(k)
        if M is None:
            M = self.moduli[k] = (PrimePowerModulus(self.p, k, self.p ** k)
                                  if 1 <= k <= MAX_EXPONENT else make_modulus(self.p, k))
        return M

    @cached_property
    def _T(self) -> list:
        """[_, T_1, .., T_6], T_i exact mod p^(11-2i) (module doc)."""
        p = self.p
        t5 = (p + 1) // 2 if 10 % (p - 1) == 0 else 0  # 1/2 mod p
        return harmonic._pair_power_sums_raw(p, 4, p ** 9) + [t5, 0]

    @cached_property
    def R(self) -> list:
        """[_, R_1, .., R_6] as ints mod p^10, R_n exact mod p^(11-n)."""
        return harmonic._inverse_from_pair_sums(self.p, self._T, self.m)

    @cached_property
    def H(self) -> list:
        """[_, H_1, .., H_n] as ints mod p^10, n = min(6, p - 2), H_n exact
        mod p^(11-n)."""
        return harmonic._newton_h_raw(self.R, min(6, self.p - 2), self.m)

    @cached_property
    def products(self) -> tuple:
        """(E(1), E(2), E(3)), exact mod p^10 (p >= 5): C(2p-1, p-1),
        C(3p, 2p)/3 and C(4p, p)/4 (module doc)."""
        e = [1] + harmonic._newton_h_raw(self._T, 4, self.m)[1:]
        return tuple(sum((a * self.p ** 2) ** j * x for j, x in enumerate(e)) % self.m
                     for a in (2, 6, 12))

    @cached_property
    def wolstenholme(self) -> bool:
        """C(2p-1, p-1) = 1 (mod p^4), read as R_1 = 0 (mod p^3)."""
        p = self.p
        if p < 5:
            return False
        if self.gate_alone:
            return harmonic._inverse_power_sums_raw(p, 1, p ** 3)[1] == 0
        return self.R[1] % p ** 3 == 0

    @cached_property
    def sweeps(self) -> bool:
        """Whether the window reads at p reach SWEEP_REQUESTS, asked at the
        first read (the gate runs only for gated reads, which need it anyway)."""
        w = self.wolstenholme_requests
        return self.requests + (w if w and self.wolstenholme else 0) >= SWEEP_REQUESTS

    @cached_property
    def two(self) -> list:
        """t_e = 2^(-(p-1) p^e) mod p^10 for e <= 3, t_(e+1) = t_e^p: a node
        n = j p^e (p-1) - s has 2^(1-n) = 2^(1+s) t_e^j (module doc)."""
        p, m = self.p, self.m
        t = [pow((m + 1) // 2, p - 1, m)]
        for _ in range(3):
            t.append(pow(t[-1], p, m))
        return t

    @cached_property
    def _moments(self) -> dict:
        return harmonic._moment_sums_raw(self.p)

    def half_sum(self, n: int, c: int) -> int:
        """S_n = sum of k^n over 1..(p-1)/2, mod p^c: off the moment window
        where the plan sweeps it and it holds n at c (a class's c is its
        length), else by one direct pass."""
        p = self.p
        if self.sweeps:
            j, e = divmod(n, p - 1)  # a key below 0 (p = 7) matches no read
            S = self._moments.get(e)
            if S is not None and len(S) >= c:
                acc, q = 0, 1
                for i in range(c):
                    acc, q = acc + comb(j, i) * q * S[i], q * p
                return acc % q
        return harmonic.power_sum_raw(p, n, p ** c)
