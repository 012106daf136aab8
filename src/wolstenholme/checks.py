"""Registry of named congruence checks with applicability gates.

Each entry binds an id to a pure evaluator ``plan -> (lhs, rhs)`` over one
prime-power modulus, the congruence's stated exponent, a minimum prime,
and a scope (all primes, or Wolstenholme primes only).  Evaluators read
every sum off the prime's evaluation plan (``plan``) and work a couple of
exponents above the stated one where the arithmetic allows, so an
outcome reports how much slack a congruence has, not just pass/fail.

Most checks are linear, sum(c p^a X) = const + sum(c p^a Y) (mod p^k) with
each X and Y one of C(2p-1,p-1), C(3p,p)/3, R_n, H_n, B_n or B_n/n:
Wolstenholme, Glaisher, Lehmer, Helou-Terjanian, Zhao's eq. 4 and Lemmas
1-2, Lemmas 7, 12 and 13, eq. 19, Propositions 1-2, Corollaries 1-3,
Remark 2, Kummer's eqs. 10-11 and eq. 26.  Each is one ``Linear`` row, whose
evaluator derives every precision and the exponent it works at, which a
Bernoulli term holds to p^4 above its power of p; ``helou_terjanian_p6``,
``eq26_n2_s4`` and ``zhao_eq4_p5`` pin that exponent at the stated one.  A
row is compiled once, on its first call, for all primes: its coefficients
become integers over their common denominator D, each term's source is
resolved, and its B_n reads become one straight list of half-identity nodes
(``bernoulli._half_nodes``).  At each prime the row evaluates that list
into the plan's p B_n memo (``_p_times_bernoulli_reads``), divides each read
by p itself, exactly, and makes one inverse of D; the public
``bernoulli_mod`` would check its arguments again at every read.

A check passes when v_p(lhs - rhs) reaches the stated exponent.  Skipped
is not failed: gates (below minimum prime, not prime, not a Wolstenholme
prime, beyond an exact-oracle bound) produce skipped outcomes so suites
can sweep wide ranges without noise.  The last gate is a row's own
``max_prime``: 400 for ``sun_wan_p5`` and 1666 for ``zhao_eq4_p5``, the
reach of the exact binomials they once took.  Both read the plan's
products now, and keep the bounds so their records keep their bytes.
"""
from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bernoulli import (
    RESIDUE_EXPONENT_CAP, _half_nodes, _p_times_bernoulli, _p_times_bernoulli_reads,
)
from .errors import DivisionNotExact, UnknownCheck
# Bound, uncalled, for the benchmark's layer tracer (perfbench/tracer.py).
from .bernoulli import bernoulli_mod, bernoulli_ratio, high_index_bernoulli  # noqa: F401
from .harmonic import _inverse_power_sums_raw  # noqa: F401
from .modring import Residue, eval_exponent, is_prime, make_modulus  # noqa: F401
from .parallel import ordered_map
from .plan import EvaluationPlan

Fr = Fraction


class Scope(Enum):
    ALL_PRIMES = "all-primes"
    WOLSTENHOLME_ONLY = "wolstenholme-only"


class CongruenceCheck(NamedTuple):
    """A named congruence: applicability gates plus a two-sided evaluator."""

    id: str
    description: str
    source: str
    min_prime: int
    scope: Scope
    modulus_exponent: int
    evaluator: Callable[[EvaluationPlan], tuple[Residue, Residue]]
    max_prime: Optional[int] = None


class CheckOutcome(NamedTuple):
    """Result of one check at one prime, a named tuple; lhs/rhs are decimal strings."""

    check_id: str
    p: int
    modulus_exponent: int
    lhs: Optional[str] = None
    rhs: Optional[str] = None
    residual_valuation: Optional[int] = None
    passed: bool = False
    skipped: bool = False
    reason: Optional[str] = None
    elapsed_ns: int = 0


def _indicator_pair(plan, lhs_holds: bool, rhs_holds: bool):
    return tuple(plan.modulus(1).residue(int(x)) for x in (lhs_holds, rhs_holds))


# --- linear congruences ---------------------------------------------------------

#: Term values of a ``Linear`` row: C(2p-1,p-1), R[n], H[n] and C(3p,p)/3,
#: ("products", 1), are read off the plan as (attribute, index); B(j, s) is
#: B_(j(p-1)-s) and Bp(n, s) is B_(p^n-p^(n-1)-s), both ("B", j, e, s) for
#: the index j p^e (p-1) - s, and ratio(x) is B_n/n for the B_n of x,
#: ("B/n", j, e, s).
C = ("products", 0)
R, H = ([(name, n) for n in range(7)] for name in ("R", "H"))


def B(j: int, s: int) -> tuple:
    return ("B", j, 0, s)


def Bp(n: int, s: int) -> tuple:
    return ("B", 1, n - 1, s)


def ratio(x: tuple) -> tuple:
    return ("B/n", *x[1:])


class Linear:
    """sum(lhs) = const + sum(terms) (mod p^stated), each term (c, a, x)
    standing for c p^a x; called on a plan, the pair (lhs, rhs).

    Both sides are evaluated mod p^W, W = eval_exponent(stated, cap)
    with the cap held to a + RESIDUE_EXPONENT_CAP for the least power p^a
    of any B_n or B_n/n term, as a B_n is served mod p^4 at most: W follows
    from the row, whatever p, and is derived once, with each term's read
    precision.  A ``cap`` below that pins W; three rows pin it at their stated
    exponent, as their records print residues mod p^W.  Each distinct B_n
    is read first, once, in row order (lhs first) and before any pair sum,
    as p B_n mod p^(W - a + 1) off the plan for the least a it carries
    (``reads``), and divided by p, so every term is exact mod p^W; a read
    that p does not divide raises DivisionNotExact.  A B_n/n term is B_n
    times n^-1 mod p^W.

    The first call compiles the row (``_compiled``), as nothing in it but n
    depends on p: the coefficients times D, their least common denominator;
    the reads (j, e, s, c), n = j p^e (p-1) - s; and the node list, the
    half-identity tree of those reads in the order ``_p_times_bernoulli``
    completes it, each node (j, e, s, C) with its children (j, e, s + i,
    C - i), even i in 2..C-1, before it.  A call then evaluates the node
    list into the plan's memo, sums each side over D and multiplies it by
    D^-1 mod p^W once.
    """

    def __init__(self, stated: int, lhs: tuple, const: int, terms: tuple, cap: int = 10):
        self.stated, self.lhs, self.const, self.terms = stated, lhs, const, terms
        least = {}  # (j, e, s) of each B_n or B_n/n term -> the least a it carries
        for _, a, x in lhs + terms:
            if x[0] in ("B", "B/n"):
                least[x[1:]] = min(a, least.get(x[1:], a))
        self.W = eval_exponent(
            stated, min([cap] + [a + RESIDUE_EXPONENT_CAP for a in least.values()]))
        #: (j, e, s, c) of each distinct B_n, in row order
        self._reads = tuple((*key, self.W - a + 1) for key, a in least.items())

    def reads(self, p: int) -> tuple[int, dict]:
        """W, and {n: c} at p for the reads of p B_n mod p^c, c = W - a + 1
        (terms whose indices meet at p read once, at the larger c)."""
        reads = {}
        for j, e, s, c in self._reads:
            n = j * p ** e * (p - 1) - s
            reads[n] = max(c, reads.get(n, c))
        return self.W, reads

    @cached_property
    def _compiled(self) -> tuple:
        """The row at any p, built on its first call: D, the least common
        denominator of its coefficients; its reads (j, e, s, c), one per
        distinct B_n in row order; their half-identity nodes; the value slots
        (read, is B_n/n); and the terms, lhs then rhs, as (side, c D, a,
        attribute, index), attribute None for the value slot at index."""
        D = lcm(*(Fraction(c).denominator for c, _, _ in self.lhs + self.terms))
        keys, slots = [read[:3] for read in self._reads], []

        def source(x) -> tuple:
            if x[0] not in ("B", "B/n"):
                return x
            slot = (keys.index(x[1:]), x[0] == "B/n")
            if slot not in slots:
                slots.append(slot)
            return None, slots.index(slot)

        terms = tuple((side, int(c * D), a, *source(x))
                      for side, row_side in enumerate((self.lhs, self.terms))
                      for c, a, x in row_side)
        return D, self._reads, _half_nodes(self._reads), tuple(slots), terms

    def __call__(self, plan) -> tuple[Residue, Residue]:
        p, (D, reads, nodes, slots, terms) = plan.p, self._compiled
        M = plan.modulus(self.W)
        m, vals = M.m, ()
        if reads:
            got = _p_times_bernoulli_reads(reads, nodes, plan)
            for n, c, pb in got:
                if pb % p:
                    raise DivisionNotExact(f"p*B_{n} mod {p}^{c} is not divisible by {p}")
            vals = [got[r][2] // p * (pow(got[r][0], -1, m) if by_n else 1)
                    for r, by_n in slots]
        sides = [0, self.const * D]
        for side, c, a, attribute, i in terms:
            sides[side] += c * p ** a * (vals[i] if attribute is None
                                         else getattr(plan, attribute)[i])
        lhs, rhs = sides
        if D != 1:
            inverse = pow(D, -1, m)
            lhs, rhs = lhs * inverse, rhs * inverse
        return M.residue(lhs), M.residue(rhs)


_ev_cor1_first = Linear(7, ((1, 0, C),), 1, ((-2, 1, R[1]), (-2, 2, R[2])))
_ev_cor1_second = Linear(7, ((1, 0, C),), 1, ((2, 1, R[1]), (Fr(2, 3), 3, R[3])))


def _cor1_first_holds(plan) -> bool:
    lhs, rhs = _ev_cor1_first(plan)
    return (lhs - rhs).valuation() >= _ev_cor1_first.stated


# --- evaluators of the other congruences ----------------------------------------

def _ev_granville(plan):
    M = plan.modulus(eval_exponent(5))
    central, granville, _ = plan.products  # C(2p-1,p-1), C(3p,2p)/3
    lhs = 3 * granville * pow(8 * central ** 3, -1, M.m)
    return M.residue(lhs), M.embed(Fr(3, 8))


def _ev_sun_wan(plan):
    # C(4p-1,2p-1) = 3 E(2) E(3)/E(1) and C(4p,p) = 4 E(3) (``plan``)
    M = plan.modulus(eval_exponent(5))
    e1, e2, e3 = plan.products
    return M.residue(3 * e2 * e3 * pow(e1, -1, M.m)), M.residue(4 * e3 - 1)


def _valuation_pattern(plan, family: str):
    """Indicator of v_p >= 2 at odd n and >= 1 at even n, n <= min(6, p-3),
    over ``plan.R`` or ``plan.H``.  The bound stops at p-3 for both: H_{p-2}
    only reaches valuation 1 (H_5(7) = 7/240), so the induction from the
    R_n pattern ends there."""
    values = getattr(plan, family)
    ok = all(values[n] % plan.p ** (1 + n % 2) == 0
             for n in range(1, min(6, plan.p - 3) + 1))
    return _indicator_pair(plan, ok, True)


def _ev_cor4_iff(plan):
    return _indicator_pair(plan, plan.wolstenholme, _cor1_first_holds(plan))


def _entries() -> list[CongruenceCheck]:
    A, W_ONLY = Scope.ALL_PRIMES, Scope.WOLSTENHOLME_ONLY
    KUMMER = "power-sum expansion with Kummer reduction"

    def linear(check_id, description, source, min_prime, scope, row):
        return CongruenceCheck(check_id, description, source, min_prime, scope,
                               row.stated, row)

    entries = [
        linear(
            "wolstenholme_thm",
            "C(2p-1,p-1) = 1 (mod p^3)",
            "Wolstenholme 1862", 5, A, Linear(3, ((1, 0, C),), 1, ())),
        linear(
            "glaisher_p4",
            "C(2p-1,p-1) = 1 - (2/3) p^3 B_{p-3} (mod p^4)",
            "Glaisher 1900", 7, A,
            Linear(4, ((1, 0, C),), 1, ((-Fr(2, 3), 3, B(1, 2)),))),
        linear(
            "lehmer_p3",
            "R_1 = -(1/3) p^2 B_{p-3} (mod p^3)",
            "E. Lehmer 1938", 7, A,
            Linear(3, ((1, 0, R[1]),), 0, ((-Fr(1, 3), 2, B(1, 2)),))),
        linear(
            "helou_terjanian_p6",
            "C(2p-1,p-1) = 1 - p^3 B_{p^3-p^2-2} + (1/3) p^5 B_{p-3}"
            " - (6/5) p^5 B_{p-5} (mod p^6)",
            "Helou-Terjanian 2008", 11, A, Linear(6, ((1, 0, C),), 1, (
                (-1, 3, Bp(3, 2)), (Fr(1, 3), 5, B(1, 2)), (-Fr(6, 5), 5, B(1, 4))),
                cap=6)),  # W pinned at the stated exponent (derived: 7)
        CongruenceCheck(
            "granville_p5",
            "C(3p,2p)/C(2p,p)^3 = C(3,2)/C(2,1)^3 (mod p^5)",
            "Granville 1997", 7, A, 5, _ev_granville),
        CongruenceCheck(
            "sun_wan_p5",
            "C(4p-1,2p-1) = C(4p,p) - 1 (mod p^5)",
            "Sun-Wan 2008", 7, A, 5, _ev_sun_wan, max_prime=400),
        CongruenceCheck(  # 6 w_p p^3 = 6p R_1 (mod p^5), as p^2 | R_1
            "zhao_eq4_p5",
            "C(3p,p)/C(3,1) = 1 + 6 w_p p^3 (mod p^5)",
            "Zhao 2007", 7, A, 5, Linear(
                5, ((1, 0, ("products", 1)),), 1, ((6, 1, R[1]),), cap=5),
            max_prime=1666),
        linear(
            "lemma1_p4",
            "2 R_1 = -p R_2 (mod p^4)",
            "Zhao 2007", 7, A, Linear(4, ((2, 0, R[1]),), 0, ((-1, 1, R[2]),))),
        linear(
            "lemma2a_p5",
            "C(2p-1,p-1) = 1 + 2p R_1 (mod p^5)",
            "Zhao 2007", 7, A, Linear(5, ((1, 0, C),), 1, ((2, 1, R[1]),))),
        linear(
            "lemma2b_p5",
            "C(2p-1,p-1) = 1 - p^2 R_2 (mod p^5)",
            "Zhao 2007; McIntosh 1995", 7, A,
            Linear(5, ((1, 0, C),), 1, ((-1, 2, R[2]),))),
        linear(
            "lemma12_i_p6",
            "R_1 = -(1/2) p^2 B_{p^4-p^3-2} - (1/4) p^4 B_{p^2-p-4}"
            " + (1/6) p^5 B_{p-3} + (1/20) p^5 B_{p-5} (mod p^6)",
            KUMMER, 11, A, Linear(6, ((1, 0, R[1]),), 0, (
                (-Fr(1, 2), 2, Bp(4, 2)), (-Fr(1, 4), 4, Bp(2, 4)),
                (Fr(1, 6), 5, B(1, 2)), (Fr(1, 20), 5, B(1, 4))))),
        linear(
            "lemma12_ii_p4",
            "R_3 = -(3/2) p^2 B_{p^4-p^3-4} (mod p^4)",
            KUMMER, 11, A,
            Linear(4, ((1, 0, R[3]),), 0, ((-Fr(3, 2), 2, Bp(4, 4)),))),
        linear(
            "lemma12_iii_p3",
            "R_4 = p B_{p^4-p^3-4} (mod p^3)",
            KUMMER, 11, A, Linear(3, ((1, 0, R[4]),), 0, ((1, 1, Bp(4, 4)),))),
        linear(
            "lemma12_iv_p4",
            "p R_6 = -(2/5) R_5 (mod p^4)",
            KUMMER, 11, A, Linear(4, ((1, 1, R[6]),), 0, ((-Fr(2, 5), 0, R[5]),))),
        linear(
            "eq19_p8",
            "2 R_1 = -(p R_2 + p^2 R_3 + p^3 R_4 + p^4 R_5 + p^5 R_6) (mod p^8)",
            "telescoped inverse-pair identity", 11, A, Linear(
                8, ((2, 0, R[1]),), 0, tuple((-1, i, R[i + 1]) for i in range(1, 6)))),
        linear(
            "prop1_p8",
            "C(2p-1,p-1) = 1 + sum((-1)^(n-1) (p^n/n) R_n, n=1..6) (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, Linear(8, ((1, 0, C),), 1, tuple(
                (Fr((-1) ** (n - 1), n), n, R[n]) for n in range(1, 7)))),
        linear(
            "prop2_p8",
            "C(2p-1,p-1) = 1 + (3p/2) R_1 - (p^2/4) R_2 + (7p^3/12) R_3"
            " + (5p^5/12) R_5 (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, Linear(8, ((1, 0, C),), 1, (
                (Fr(3, 2), 1, R[1]), (-Fr(1, 4), 2, R[2]), (Fr(7, 12), 3, R[3]),
                (Fr(5, 12), 5, R[5])))),
        linear(
            "cor1_first_p7",
            "C(2p-1,p-1) = 1 - 2p R_1 - 2p^2 R_2 (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, _ev_cor1_first),
        linear(
            "cor1_second_p7",
            "C(2p-1,p-1) = 1 + 2p R_1 + (2/3) p^3 R_3 (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, _ev_cor1_second),
        linear(
            "cor2_p7",
            "C(2p-1,p-1) = 1 - p^3 B_{p^4-p^3-2} - (3/2) p^5 B_{p^2-p-4}"
            " + (3/10) p^6 B_{p-5} (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, Linear(7, ((1, 0, C),), 1, (
                (-1, 3, Bp(4, 2)), (-Fr(3, 2), 5, Bp(2, 4)), (Fr(3, 10), 6, B(1, 4))))),
        linear(
            "cor3_p7",
            "C(2p-1,p-1) in low-index Bernoulli numbers B_{p-3}, B_{2p-4},"
            " B_{3p-5}, B_{4p-6}, B_{p-5}, B_{2p-6} (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, Linear(7, ((1, 0, C),), 1, (
                (-Fr(8, 3), 3, B(1, 2)), (3, 3, B(2, 2)),
                (-Fr(8, 5), 3, B(3, 2)), (Fr(1, 3), 3, B(4, 2)),
                (-Fr(8, 9), 4, B(1, 2)), (Fr(3, 2), 4, B(2, 2)),
                (-Fr(24, 25), 4, B(3, 2)), (Fr(2, 9), 4, B(4, 2)),
                (-Fr(8, 27), 5, B(1, 2)), (Fr(3, 4), 5, B(2, 2)),
                (-Fr(72, 125), 5, B(3, 2)), (Fr(4, 27), 5, B(4, 2)),
                (-Fr(12, 5), 5, B(1, 4)), (1, 5, B(2, 4)),
                (-Fr(2, 25), 6, B(1, 4))))),
        CongruenceCheck(
            "cor4_iff",
            "Wolstenholme-prime status iff the mod-p^7 two-sum congruence",
            "Wolstenholme-prime characterization", 11, A, 1, _ev_cor4_iff),
        linear(
            "remark2_p8",
            "C(2p-1,p-1) = 1 + 2p R_1 + (5p^3/6) R_3 + (p^4/4) R_4"
            " + (17p^5/30) R_5 (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, Linear(8, ((1, 0, C),), 1, (
                (2, 1, R[1]), (Fr(5, 6), 3, R[3]), (Fr(1, 4), 4, R[4]),
                (Fr(17, 30), 5, R[5])))),
        CongruenceCheck(
            "lemma4_valuations",
            "v_p(R_n) >= 2 for odd n, >= 1 for even n (n <= min(6, p-3))",
            "Bayat 1997", 7, A, 1, partial(_valuation_pattern, family="R")),
        CongruenceCheck(
            "lemma6_valuations",
            "v_p(H_n) >= 2 for odd n, >= 1 for even n (n <= min(6, p-3))",
            "Newton-identity induction", 7, A, 1, partial(_valuation_pattern, family="H")),
        linear(
            "kummer_eq10",
            "B_m/m = B_n/n (mod p^2) for m = p(p-1)+4, n = 4",
            "Kummer 1851", 7, A, Linear(2, ((1, 0, ratio(Bp(2, -4))),), 0, (
                (1, 0, ratio(B(0, -4))),))),
        linear(
            "kummer_eq11",
            "sum((-1)^k C(2,k) B_{4+k(p-1)}/(4+k(p-1)), k=0..2) = 0 (mod p^2)",
            "Kummer 1851", 7, A, Linear(2, tuple(
                (c, 0, ratio(B(k, -4))) for k, c in ((0, 1), (1, -2), (2, 1))), 0, ())),
        linear(  # W pinned at the stated exponent (derived: 4)
            "eq26_n2_s4",
            "B_{p^2-p-4}/(p^2-p-4) = 2 B_{p-5}/(p-5) - B_{2p-6}/(2p-6) (mod p^2)",
            "Helou-Terjanian 2008", 11, A, Linear(2, ((1, 0, ratio(Bp(2, 4))),), 0, (
                (2, 0, ratio(B(1, 4))), (-1, 0, ratio(B(2, 4)))), cap=2)),
        linear(
            "eq26_n4_s2",
            "B_{p^4-p^3-2}/(p^4-p^3-2) = sum((-1)^(k+1) C(4,k)"
            " B_{k(p-1)-2}/(k(p-1)-2), k=1..4) (mod p^4)",
            "Helou-Terjanian 2008", 11, A, Linear(4, ((1, 0, ratio(Bp(4, 2))),), 0, (
                (4, 0, ratio(B(1, 2))), (-6, 0, ratio(B(2, 2))),
                (4, 0, ratio(B(3, 2))), (-1, 0, ratio(B(4, 2)))))),
    ]
    for r in range(1, 6):
        entries.append(linear(
            f"lemma13_r{r}",
            f"2 R_1 = -sum(p^i R_(i+1), i=1..{r}) (mod p^{r + 1})",
            "telescoped inverse-pair identity", 3, A, Linear(r + 1, ((2, 0, R[1]),), 0,
                tuple((-1, i, R[i + 1]) for i in range(1, r + 1)))))
    for n, exponent in ((2, 6), (3, 5), (4, 4), (5, 4), (6, 3)):
        entries.append(linear(
            f"lemma7_n{n}",
            f"R_{n} = {'' if n % 2 else '-'}{n} H_{n} (mod p^{exponent})",
            "Newton-identity consequences at Wolstenholme primes", 11, W_ONLY,
            Linear(exponent, ((1, 0, R[n]),), 0, (((-1) ** (n + 1) * n, 0, H[n]),))))
    entries.sort(key=lambda c: c.id)
    return entries


_REGISTRY = tuple(_entries())
_BY_ID = {c.id: c for c in _REGISTRY}


def registry() -> tuple[CongruenceCheck, ...]:
    """The immutable registry of all named congruence checks."""
    return _REGISTRY


def lookup(check_id: str) -> CongruenceCheck:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise UnknownCheck(check_id) from None


def _skipped(check: CongruenceCheck, p: int, reason: str) -> CheckOutcome:
    return CheckOutcome(check.id, p, check.modulus_exponent, skipped=True, reason=reason)


#: The plan of the prime ``_suite_worker`` is on, None between primes:
#: ``run_check`` keeps its (check_id, p) signature and finds the plan here.
_suite_plan: Optional[EvaluationPlan] = None


#: The prime every plan's window reads are replayed at: the counts are the
#: same at every prime from 11 on (``tests/test_plan.py`` pins it below 3000).
#: A plan at 7 is told them too; a count only picks sweep or passes, and every
#: read is exact either way.
_REPLAY_PRIME = 11


def _window_reads(p: int, checks: Sequence[CongruenceCheck]) -> int:
    """The window reads ``checks`` make at p in order: their B_n reads
    replayed on a stand-in plan whose half_sum records a read and returns 0,
    a value the recursion of ``_p_times_bernoulli`` never branches on.  Nor
    does its division by p^d, d = v_p(2^n - 1), see it: no registry read at
    c >= 2 has 2^n = 1 (mod p), so d = 0 (at p >= 11 such a read would need
    p | 3*5*7; ``tests/test_plan.py`` checks every prime 7 <= p < 3000)."""
    made = []
    stand_in = SimpleNamespace(p=p, pb={}, half_sum=lambda n, c: made.append((n, c)) or 0)
    for check in checks:
        if isinstance(check.evaluator, Linear):
            for n, c in check.evaluator.reads(p)[1].items():
                _p_times_bernoulli(n, stand_in, c)
    return len(made)


def _counts(p: int, ids: Iterable[str]) -> tuple[int, int, bool]:
    """What a plan at p for the checks ``ids`` is told, its arguments after
    p: the window reads all but the Wolstenholme-only ones make, how many more
    all make, and whether all are Wolstenholme-only, so the plan gates on R_1
    alone."""
    checks = [lookup(check_id) for check_id in ids]
    ungated = [c for c in checks if c.scope is not Scope.WOLSTENHOLME_ONLY]
    requests = _window_reads(p, ungated)
    return requests, _window_reads(p, checks) - requests, not ungated


def _plan(p: int, ids: Iterable[str]) -> EvaluationPlan:
    """p's plan for the checks ``ids``, its counts replayed at _REPLAY_PRIME,
    as ``run_suite``'s are: a lone ``run_check``'s plan."""
    return EvaluationPlan(p, *_counts(_REPLAY_PRIME, ids))


def run_check(check_id: str, p: int) -> CheckOutcome:
    """Evaluate one check at one prime, honoring the applicability gates.

    Within ``run_suite`` the prime's plan serves every read and stands for
    the primality test.  A lone call makes a plan of its own and shares no
    sum with other calls: ``run_suite(ids, [p])`` shares one plan.
    """
    check = lookup(check_id)
    plan = _suite_plan if _suite_plan is not None and _suite_plan.p == p else None
    if plan is None and not is_prime(p):
        return _skipped(check, p, "not prime")
    if p < check.min_prime:
        return _skipped(check, p, f"below minimum prime {check.min_prime}")
    if check.max_prime is not None and p > check.max_prime:
        return _skipped(check, p, f"beyond exact-oracle bound {check.max_prime}")
    plan = plan or _plan(p, [check_id])
    if check.scope is Scope.WOLSTENHOLME_ONLY and not plan.wolstenholme:
        return _skipped(check, p, "not a Wolstenholme prime")
    start = time.perf_counter_ns()
    try:
        lhs, rhs = check.evaluator(plan)
    except Exception as exc:  # failures are data, not suite aborts
        return CheckOutcome(check.id, p, check.modulus_exponent, reason=f"error: {exc}",
                            elapsed_ns=time.perf_counter_ns() - start)
    residual = (lhs - rhs).valuation()
    return CheckOutcome(
        check.id, p, check.modulus_exponent, str(lhs.value), str(rhs.value), residual,
        passed=residual >= check.modulus_exponent,
        elapsed_ns=time.perf_counter_ns() - start)


def _suite_worker(p: int, ids: tuple[str, ...], counts: tuple) -> list[CheckOutcome]:
    global _suite_plan
    _suite_plan = EvaluationPlan(p, *counts) if is_prime(p) else None
    try:
        return [run_check(check_id, p) for check_id in ids]
    finally:
        _suite_plan = None


def run_suite(
    ids: Sequence[str],
    primes: Iterable[int],
    parallelism: int = 1,
) -> Iterator[CheckOutcome]:
    """One outcome per prime and distinct check id, ordered by prime then id.

    The order is deterministic regardless of parallelism, and evaluation
    errors surface as failed outcomes rather than stopping the stream.
    Each prime gets one evaluation plan, shared by its checks and dropped
    when they are done, so no sweep runs twice at a prime.
    """
    ids = tuple(sorted(set(ids)))
    counts = _counts(_REPLAY_PRIME, ids)  # looks every id up
    for outcomes in ordered_map(partial(_suite_worker, ids=ids, counts=counts), primes,
                                parallelism, chunk=4):
        yield from outcomes


def all_check_ids() -> list[str]:
    return [c.id for c in registry()]
