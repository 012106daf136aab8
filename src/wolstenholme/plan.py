"""Per-prime evaluation plan: the sums the checks read at one prime, each
computed once and dropped with the plan.

A plan for p holds Z/p^k Z for k = 1..top = max_exponent(p), built without
testing p for primality again, and runs each sweep at most once, on first read:

* Pairs: T_1..T_6 mod p^top, T_i = sum v^i over v = 1/(k(p-k)) (see
  ``harmonic``).  R_1..R_6 are exact combinations of them, and Newton's
  identities give H_1..H_6 and the e_j of the v's, hence both products:
  (1 + sp/k)(1 + sp/(p-k)) = 1 + (s + s^2) p^2 v, so mod p^top (terms
  j >= 5 carry p^10; the e_j divide by 2, 3 and 4, so p >= 5)

      C(2p-1, p-1) = sum((2p^2)^j e_j, j <= 4),  C(3p, 2p)/3 = sum((6p^2)^j e_j, j <= 4).

  As C - 1 = 2p^2 T_1 (mod p^4), p is a Wolstenholme prime exactly when
  T_1 = 0 (mod p^2), that is R_1 = p T_1 = 0 (mod p^3).  When every check
  a plan serves is Wolstenholme-only (``gate_alone``), nothing reads the
  pairs before that gate, so it reads R_1 mod p^3 off a sweep of its own
  and a prime that fails it never pays the full sweep.
* Moments: the plan's callers say how many P_n reads in the window they
  make at p (``requests``, and ``wolstenholme_requests`` for the reads
  made only past the gate, which count only if p passes it).  From
  SWEEP_REQUESTS on, the first read sweeps the Fermat-quotient moments of
  ``harmonic.MOMENT_WINDOW`` and every read in the window comes off them.
  Below it (a lone ``bernoulli_mod``, a Bernoulli scan, a suite of one
  small Bernoulli check) ``window_sum`` serves nothing and ``power_sum``
  makes one direct pass per read.

``bernoulli`` memoises p B_n in ``plan.pb``, keyed by n: it holds p B_n
mod p^c at the highest c computed so far, and a read at lower c reduces it.
"""
from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Optional

from . import harmonic
from .modring import PrimePowerModulus, Residue, make_modulus, max_exponent

#: Window reads at one prime from which one moment sweep is cheaper than a
#: direct pass per read: the sweep costs five to seven passes mod p^5, and
#: passes at lower c cost less.
SWEEP_REQUESTS = 8


class EvaluationPlan:
    """The sums read at one prime p, which must be prime."""

    def __init__(self, p: int, requests: int = 0, wolstenholme_requests: int = 0,
                 gate_alone: bool = False):
        self.p, self.pb = p, {}
        self.requests, self.wolstenholme_requests = requests, wolstenholme_requests
        self.gate_alone = gate_alone
        self.top = max_exponent(p)
        self.moduli = [None] + [PrimePowerModulus(p, k, p ** k)
                                for k in range(1, self.top + 1)]
        self.m = self.moduli[-1].m  # the sweeps' modulus, p^top

    def modulus(self, k: int) -> PrimePowerModulus:
        """Z/p^k Z (past the width contract, make_modulus refuses as ever)."""
        return self.moduli[k] if 1 <= k <= self.top else make_modulus(self.p, k)

    @cached_property
    def _T(self) -> list:
        return harmonic._pair_power_sums_raw(self.p, 6, self.m)

    @cached_property
    def _R(self) -> list:
        return harmonic._inverse_from_pair_sums(self.p, self._T, self.m)

    @cached_property
    def _H(self) -> list:
        return harmonic._newton_h_raw(self._R, min(6, self.p - 2), self.m)

    @cached_property
    def _products(self) -> tuple:
        e = [1] + harmonic._newton_h_raw(self._T, 4, self.m)[1:]
        return tuple(sum((a * self.p ** 2) ** j * x for j, x in enumerate(e)) % self.m
                     for a in (2, 6))

    def R(self, k: int) -> list:
        """[_, R_1, .., R_6] in Z/p^k Z."""
        return [None] + [self.modulus(k).residue(x) for x in self._R[1:]]

    def H(self, k: int) -> list:
        """[_, H_1, .., H_n] in Z/p^k Z, n = min(6, p - 2)."""
        return [None] + [self.modulus(k).residue(x) for x in self._H[1:]]

    def central(self, k: int) -> Residue:
        """C(2p-1, p-1) in Z/p^k Z (p >= 5)."""
        return self.modulus(k).residue(self._products[0])

    def granville(self, k: int) -> Residue:
        """C(3p, 2p)/3 in Z/p^k Z (p >= 5)."""
        return self.modulus(k).residue(self._products[1])

    @cached_property
    def wolstenholme(self) -> bool:
        """C(2p-1, p-1) = 1 (mod p^4), read as R_1 = 0 (mod p^3)."""
        p = self.p
        if p < 5:
            return False
        if self.gate_alone:
            return harmonic._inverse_power_sums_raw(p, 1, p ** 3)[1] == 0
        return self._R[1] % p ** 3 == 0

    @cached_property
    def sweeps(self) -> bool:
        """Whether the window reads at p reach SWEEP_REQUESTS, asked at the
        first read (the gate runs only for gated reads, which need it anyway)."""
        w = self.wolstenholme_requests
        return self.requests + (w if w and self.wolstenholme else 0) >= SWEEP_REQUESTS

    @cached_property
    def _moments(self) -> dict:
        return harmonic._moment_sums_raw(self.p)

    def window_sum(self, n: int, c: int) -> Optional[int]:
        """P_n mod p^c off the moment window; None when the plan does not
        sweep it, or n and c fall outside it."""
        p = self.p
        t = next((t for t, top in harmonic.MOMENT_WINDOW.items()
                  if top >= c and t <= n and (n - t) % (p - 1) == 0), None)
        if t is None or not self.sweeps:
            return None
        j, S = (n - t) // (p - 1), self._moments[t]
        return int(sum(comb(j, i) * p ** i * S[i] for i in range(c)) % p ** c)

    def power_sum(self, n: int, c: int) -> int:
        """P_n mod p^c: a window read when the plan sweeps, else a direct pass."""
        acc = self.window_sum(n, c)
        return harmonic.power_sum_raw(self.p, n, self.p ** c) if acc is None else acc
