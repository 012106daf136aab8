"""Registry of named congruence checks with applicability gates.

Each entry binds an id to a pure evaluator ``plan -> (lhs, rhs)`` over one
prime-power modulus, the congruence's stated exponent, a minimum prime,
and a scope (all primes, or Wolstenholme primes only).  Evaluators read
every sum off the prime's evaluation plan (``plan``) and work a couple of
exponents above the stated one where the arithmetic allows, so an
outcome reports how much slack a congruence has, not just pass/fail.

A check passes when v_p(lhs - rhs) reaches the stated exponent.  Skipped
is not failed: gates (below minimum prime, not prime, not a Wolstenholme
prime, beyond an exact-oracle bound) produce skipped outcomes so suites
can sweep wide ranges without noise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import binomial
from .bernoulli import bernoulli_mod, bernoulli_ratio, high_index_ratio
from .errors import NotPrime, UnknownCheck
# Bound, uncalled, for the benchmark's layer tracer (perfbench/tracer.py).
from .bernoulli import high_index_bernoulli  # noqa: F401
from .harmonic import _inverse_power_sums_raw  # noqa: F401
from .modring import Residue, is_prime, make_modulus  # noqa: F401
from .parallel import ordered_map
from .plan import EvaluationPlan

Fr = Fraction


class Scope(Enum):
    ALL_PRIMES = "all-primes"
    WOLSTENHOLME_ONLY = "wolstenholme-only"


@dataclass(frozen=True)
class CongruenceCheck:
    """A named congruence: applicability gates plus a two-sided evaluator."""

    id: str
    description: str
    source: str
    min_prime: int
    scope: Scope
    modulus_exponent: int
    evaluator: Callable[[EvaluationPlan], tuple[Residue, Residue]]
    max_prime: Optional[int] = None
    #: P_n reads the evaluator makes in the moment window at one prime
    #: (``plan.SWEEP_REQUESTS``), counted on a plan of its own.
    window: int = 0


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one check at one prime; lhs/rhs are decimal strings."""

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


def _eval_exponent(plan, stated: int, margin: int = 2, cap: int = 10) -> int:
    return max(stated, min(stated + margin, cap, plan.top))


def _indicator_pair(plan, lhs_holds: bool, rhs_holds: bool):
    return tuple(plan.modulus(1).residue(int(x)) for x in (lhs_holds, rhs_holds))


def _b_high(plan, n: int, s: int) -> int:
    """B_M mod p^n for M = p^n - p^(n-1) - s, read directly like any index."""
    p = plan.p
    return bernoulli_mod(p ** n - p ** (n - 1) - s, p, n, plan).value.value


# --- binomial-side evaluators -------------------------------------------------

def _ev_wolstenholme_thm(plan):
    central = plan.central(_eval_exponent(plan, 3))
    return central, central.modulus.residue(1)


def _ev_glaisher(plan):
    p, W = plan.p, _eval_exponent(plan, 4)
    b = plan.modulus(W).residue(bernoulli_mod(p - 3, p, W - 3, plan).value.value)
    return plan.central(W), 1 - Fr(2, 3) * p ** 3 * b


def _ev_lehmer(plan):
    p, W = plan.p, _eval_exponent(plan, 3)
    b = plan.modulus(W).residue(bernoulli_mod(p - 3, p, W - 2, plan).value.value)
    return plan.R(W)[1], -Fr(1, 3) * p ** 2 * b


def _ev_helou_terjanian(plan):
    p, M = plan.p, plan.modulus(6)
    b_big = M.residue(_b_high(plan, 3, 2))
    b3 = bernoulli_mod(p - 3, p, 1, plan).value.value
    b5 = bernoulli_mod(p - 5, p, 1, plan).value.value
    rhs = 1 - p ** 3 * b_big + Fr(1, 3) * p ** 5 * M.residue(b3) \
        - Fr(6, 5) * p ** 5 * M.residue(b5)
    return plan.central(6), rhs


def _ev_granville(plan):
    W = _eval_exponent(plan, 5)
    lhs = 3 * plan.granville(W) * ((2 * plan.central(W)) ** 3).inverse()
    return lhs, plan.modulus(W).embed(Fr(3, 8))


def _ev_sun_wan(plan):
    p, M = plan.p, plan.modulus(_eval_exponent(plan, 5))
    lhs = M.residue(binomial.exact_binomial(4 * p - 1, 2 * p - 1))
    rhs = M.residue(binomial.exact_binomial(4 * p, p) - 1)
    return lhs, rhs


def _ev_zhao_eq4(plan):
    p, M = plan.p, plan.modulus(5)
    lhs = M.residue(binomial.exact_binomial(3 * p, p)) * M.residue(3).inverse()
    w = plan.R(4)[1].value // p ** 2  # w_p = R_1/p^2 (mod p^2)
    return lhs, M.residue(1 + 6 * w * p ** 3)


# --- harmonic-sum evaluators --------------------------------------------------

def _ev_lemma1(plan):
    R = plan.R(_eval_exponent(plan, 4))
    return 2 * R[1], -plan.p * R[2]


def _ev_lemma2a(plan):
    W = _eval_exponent(plan, 5)
    return plan.central(W), 1 + 2 * plan.p * plan.R(W)[1]


def _ev_lemma2b(plan):
    W = _eval_exponent(plan, 5)
    return plan.central(W), 1 - plan.p ** 2 * plan.R(W)[2]


def _make_ev_lemma13(r: int):
    def evaluator(plan, _r=r):
        p, R = plan.p, plan.R(_eval_exponent(plan, _r + 1))
        return 2 * R[1], -sum(p ** i * R[i + 1] for i in range(1, _r + 1))

    return evaluator


def _ev_eq19(plan):
    p, R = plan.p, plan.R(_eval_exponent(plan, 8))
    return 2 * R[1], -sum(p ** (i - 1) * R[i] for i in range(2, 7))


def _ev_lemma12_iv(plan):
    R = plan.R(_eval_exponent(plan, 4))
    return plan.p * R[6], -Fr(2, 5) * R[5]


def _valuation_pattern(plan, values):
    """Indicator of v_p >= 2 at odd n and >= 1 at even n, n <= min(6, p-3)."""
    ok = all(values[n].valuation() >= 1 + n % 2
             for n in range(1, min(6, plan.p - 3) + 1))
    return _indicator_pair(plan, ok, True)


def _ev_lemma4_valuations(plan):
    return _valuation_pattern(plan, plan.R(3))


def _ev_lemma6_valuations(plan):
    # The odd-n bound stops at p-3: H_{p-2} only reaches valuation 1
    # (H_5(7) = 7/240), so the induction from the R_n pattern ends there.
    return _valuation_pattern(plan, plan.H(3))


def _make_ev_lemma7(n: int, exponent: int):
    sign = 1 if n % 2 else -1

    def evaluator(plan, _n=n, _sign=sign, _e=exponent):
        W = _eval_exponent(plan, _e)
        return plan.R(W)[_n], _sign * _n * plan.H(W)[_n]

    return evaluator


# --- Bernoulli-side evaluators ------------------------------------------------

def _ev_lemma12_i(plan):
    p, M = plan.p, plan.modulus(6)
    b_big4 = M.residue(_b_high(plan, 4, 2))
    b_big2 = M.residue(_b_high(plan, 2, 4))
    b3 = M.residue(bernoulli_mod(p - 3, p, 1, plan).value.value)
    b5 = M.residue(bernoulli_mod(p - 5, p, 1, plan).value.value)
    rhs = -Fr(1, 2) * p ** 2 * b_big4 - Fr(1, 4) * p ** 4 * b_big2 \
        + Fr(1, 6) * p ** 5 * b3 + Fr(1, 20) * p ** 5 * b5
    return plan.R(6)[1], rhs


def _ev_lemma12_ii(plan):
    p, W = plan.p, _eval_exponent(plan, 4, margin=2, cap=6)
    b = plan.modulus(W).residue(_b_high(plan, 4, 4))
    return plan.R(W)[3], -Fr(3, 2) * p ** 2 * b


def _ev_lemma12_iii(plan):
    return plan.R(5)[4], plan.p * plan.modulus(5).residue(_b_high(plan, 4, 4))


def _ev_kummer_eq10(plan):
    # source index p(p-1) + 4 reduces to 4 modulo phi(p^2)
    p = plan.p
    return bernoulli_ratio(p * (p - 1) + 4, p, 4, plan), bernoulli_ratio(4, p, 4, plan)


def _ev_kummer_eq11(plan):
    # second difference of k -> B_{4+k(p-1)}/(4+k(p-1)), evaluated wide
    p = plan.p
    acc = sum(coeff * bernoulli_ratio(4 + k * (p - 1), p, 4, plan)
              for k, coeff in ((0, 1), (1, -2), (2, 1)))
    return acc, acc.modulus.residue(0)


def _make_ev_eq26(n: int, s: int):
    def evaluator(plan, _n=n, _s=s):
        p = plan.p
        big = p ** _n - p ** (_n - 1) - _s
        return bernoulli_ratio(big, p, _n, plan), high_index_ratio(_n, _s, p, plan)

    return evaluator


# --- Wolstenholme-prime expansions --------------------------------------------

def _ev_prop1(plan):
    p, W = plan.p, _eval_exponent(plan, 8)
    R = plan.R(W)
    rhs = 1 + sum(Fr((-1) ** (n - 1), n) * p ** n * R[n] for n in range(1, 7))
    return plan.central(W), rhs


def _ev_prop2(plan):
    p, W = plan.p, _eval_exponent(plan, 8)
    R = plan.R(W)
    rhs = 1 + Fr(3, 2) * p * R[1] - Fr(1, 4) * p ** 2 * R[2] \
        + Fr(7, 12) * p ** 3 * R[3] + Fr(5, 12) * p ** 5 * R[5]
    return plan.central(W), rhs


def _ev_cor1_first(plan):
    p, W = plan.p, _eval_exponent(plan, 7)
    R = plan.R(W)
    return plan.central(W), 1 - 2 * p * R[1] - 2 * p * p * R[2]


def _ev_cor1_second(plan):
    p, W = plan.p, _eval_exponent(plan, 7)
    R = plan.R(W)
    return plan.central(W), 1 + 2 * p * R[1] + Fr(2, 3) * p ** 3 * R[3]


def _ev_cor2(plan):
    p, M = plan.p, plan.modulus(7)
    b_big4 = M.residue(_b_high(plan, 4, 2))
    b_big2 = M.residue(_b_high(plan, 2, 4))
    b5 = M.residue(bernoulli_mod(p - 5, p, 1, plan).value.value)
    rhs = 1 - p ** 3 * b_big4 - Fr(3, 2) * p ** 5 * b_big2 + Fr(3, 10) * p ** 6 * b5
    return plan.central(7), rhs


def _ev_cor3(plan):
    p, M = plan.p, plan.modulus(7)
    b3 = M.residue(bernoulli_mod(p - 3, p, 4, plan).value.value)
    b4 = M.residue(bernoulli_mod(2 * p - 4, p, 4, plan).value.value)
    b5 = M.residue(bernoulli_mod(3 * p - 5, p, 4, plan).value.value)
    b6 = M.residue(bernoulli_mod(4 * p - 6, p, 4, plan).value.value)
    c5 = M.residue(bernoulli_mod(p - 5, p, 2, plan).value.value)
    c6 = M.residue(bernoulli_mod(2 * p - 6, p, 2, plan).value.value)
    rhs = (
        1
        - p ** 3 * (Fr(8, 3) * b3 - 3 * b4 + Fr(8, 5) * b5 - Fr(1, 3) * b6)
        - p ** 4 * (Fr(8, 9) * b3 - Fr(3, 2) * b4 + Fr(24, 25) * b5 - Fr(2, 9) * b6)
        - p ** 5 * (
            Fr(8, 27) * b3 - Fr(3, 4) * b4 + Fr(72, 125) * b5 - Fr(4, 27) * b6
            + Fr(12, 5) * c5 - c6
        )
        - p ** 6 * Fr(2, 25) * c5
    )
    return plan.central(7), rhs


def _ev_remark2(plan):
    p, W = plan.p, _eval_exponent(plan, 8)
    R = plan.R(W)
    rhs = 1 + 2 * p * R[1] + Fr(5, 6) * p ** 3 * R[3] \
        + Fr(1, 4) * p ** 4 * R[4] + Fr(17, 30) * p ** 5 * R[5]
    return plan.central(W), rhs


def _cor1_first_holds(plan) -> bool:
    lhs, rhs = _ev_cor1_first(plan)
    return (lhs - rhs).valuation() >= 7


def cor4_equivalence(p: int) -> bool:
    """Wolstenholme-prime status and the mod-p^7 two-sum congruence agree."""
    if p < 11:
        raise ValueError("defined for primes p >= 11")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return binomial.is_wolstenholme_prime(p) == _cor1_first_holds(EvaluationPlan(p))


def _ev_cor4_iff(plan):
    return _indicator_pair(plan, plan.wolstenholme, _cor1_first_holds(plan))


def _entries() -> list[CongruenceCheck]:
    A, W_ONLY = Scope.ALL_PRIMES, Scope.WOLSTENHOLME_ONLY
    KUMMER = "power-sum expansion with Kummer reduction"
    entries = [
        CongruenceCheck(
            "wolstenholme_thm",
            "C(2p-1,p-1) = 1 (mod p^3)",
            "Wolstenholme 1862", 5, A, 3, _ev_wolstenholme_thm),
        CongruenceCheck(
            "glaisher_p4",
            "C(2p-1,p-1) = 1 - (2/3) p^3 B_{p-3} (mod p^4)",
            "Glaisher 1900", 7, A, 4, _ev_glaisher, window=2),
        CongruenceCheck(
            "lehmer_p3",
            "R_1 = -(1/3) p^2 B_{p-3} (mod p^3)",
            "E. Lehmer 1938", 7, A, 3, _ev_lehmer, window=2),
        CongruenceCheck(
            "helou_terjanian_p6",
            "C(2p-1,p-1) = 1 - p^3 B_{p^3-p^2-2} + (1/3) p^5 B_{p-3}"
            " - (6/5) p^5 B_{p-5} (mod p^6)",
            "Helou-Terjanian 2008", 11, A, 6, _ev_helou_terjanian, window=4),
        CongruenceCheck(
            "granville_p5",
            "C(3p,2p)/C(2p,p)^3 = C(3,2)/C(2,1)^3 (mod p^5)",
            "Granville 1997", 7, A, 5, _ev_granville),
        CongruenceCheck(
            "sun_wan_p5",
            "C(4p-1,2p-1) = C(4p,p) - 1 (mod p^5)",
            "Sun-Wan 2008", 7, A, 5, _ev_sun_wan,
            max_prime=binomial.SUN_WAN_PRIME_CAP),
        CongruenceCheck(
            "zhao_eq4_p5",
            "C(3p,p)/C(3,1) = 1 + 6 w_p p^3 (mod p^5)",
            "Zhao 2007", 7, A, 5, _ev_zhao_eq4,
            max_prime=binomial.ORACLE_CAP // 3),
        CongruenceCheck(
            "lemma1_p4",
            "2 R_1 = -p R_2 (mod p^4)",
            "Zhao 2007", 7, A, 4, _ev_lemma1),
        CongruenceCheck(
            "lemma2a_p5",
            "C(2p-1,p-1) = 1 + 2p R_1 (mod p^5)",
            "Zhao 2007", 7, A, 5, _ev_lemma2a),
        CongruenceCheck(
            "lemma2b_p5",
            "C(2p-1,p-1) = 1 - p^2 R_2 (mod p^5)",
            "Zhao 2007; McIntosh 1995", 7, A, 5, _ev_lemma2b),
        CongruenceCheck(
            "lemma12_i_p6",
            "R_1 = -(1/2) p^2 B_{p^4-p^3-2} - (1/4) p^4 B_{p^2-p-4}"
            " + (1/6) p^5 B_{p-3} + (1/20) p^5 B_{p-5} (mod p^6)",
            KUMMER, 11, A, 6, _ev_lemma12_i, window=5),
        CongruenceCheck(
            "lemma12_ii_p4",
            "R_3 = -(3/2) p^2 B_{p^4-p^3-4} (mod p^4)",
            KUMMER, 11, A, 4, _ev_lemma12_ii, window=2),
        CongruenceCheck(
            "lemma12_iii_p3",
            "R_4 = p B_{p^4-p^3-4} (mod p^3)",
            KUMMER, 11, A, 3, _ev_lemma12_iii, window=2),
        CongruenceCheck(
            "lemma12_iv_p4",
            "p R_6 = -(2/5) R_5 (mod p^4)",
            KUMMER, 11, A, 4, _ev_lemma12_iv),
        CongruenceCheck(
            "eq19_p8",
            "2 R_1 = -(p R_2 + p^2 R_3 + p^3 R_4 + p^4 R_5 + p^5 R_6) (mod p^8)",
            "telescoped inverse-pair identity", 11, A, 8, _ev_eq19),
        CongruenceCheck(
            "prop1_p8",
            "C(2p-1,p-1) = 1 + sum((-1)^(n-1) (p^n/n) R_n, n=1..6) (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 8, _ev_prop1),
        CongruenceCheck(
            "prop2_p8",
            "C(2p-1,p-1) = 1 + (3p/2) R_1 - (p^2/4) R_2 + (7p^3/12) R_3"
            " + (5p^5/12) R_5 (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 8, _ev_prop2),
        CongruenceCheck(
            "cor1_first_p7",
            "C(2p-1,p-1) = 1 - 2p R_1 - 2p^2 R_2 (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 7, _ev_cor1_first),
        CongruenceCheck(
            "cor1_second_p7",
            "C(2p-1,p-1) = 1 + 2p R_1 + (2/3) p^3 R_3 (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 7, _ev_cor1_second),
        CongruenceCheck(
            "cor2_p7",
            "C(2p-1,p-1) = 1 - p^3 B_{p^4-p^3-2} - (3/2) p^5 B_{p^2-p-4}"
            " + (3/10) p^6 B_{p-5} (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 7, _ev_cor2, window=4),
        CongruenceCheck(
            "cor3_p7",
            "C(2p-1,p-1) in low-index Bernoulli numbers B_{p-3}, B_{2p-4},"
            " B_{3p-5}, B_{4p-6}, B_{p-5}, B_{2p-6} (mod p^7)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 7, _ev_cor3, window=8),
        CongruenceCheck(
            "cor4_iff",
            "Wolstenholme-prime status iff the mod-p^7 two-sum congruence",
            "Wolstenholme-prime characterization", 11, A, 1, _ev_cor4_iff),
        CongruenceCheck(
            "remark2_p8",
            "C(2p-1,p-1) = 1 + 2p R_1 + (5p^3/6) R_3 + (p^4/4) R_4"
            " + (17p^5/30) R_5 (mod p^8)",
            "Wolstenholme-prime expansion", 11, W_ONLY, 8, _ev_remark2),
        CongruenceCheck(
            "lemma4_valuations",
            "v_p(R_n) >= 2 for odd n, >= 1 for even n (n <= min(6, p-3))",
            "Bayat 1997", 7, A, 1, _ev_lemma4_valuations),
        CongruenceCheck(
            "lemma6_valuations",
            "v_p(H_n) >= 2 for odd n, >= 1 for even n (n <= min(6, p-3))",
            "Newton-identity induction", 7, A, 1, _ev_lemma6_valuations),
        CongruenceCheck(
            "kummer_eq10",
            "B_m/m = B_n/n (mod p^2) for m = p(p-1)+4, n = 4",
            "Kummer 1851", 7, A, 2, _ev_kummer_eq10, window=4),
        CongruenceCheck(
            "kummer_eq11",
            "sum((-1)^k C(2,k) B_{4+k(p-1)}/(4+k(p-1)), k=0..2) = 0 (mod p^2)",
            "Kummer 1851", 7, A, 2, _ev_kummer_eq11, window=6),
        CongruenceCheck(
            "eq26_n2_s4",
            "B_{p^2-p-4}/(p^2-p-4) = 2 B_{p-5}/(p-5) - B_{2p-6}/(2p-6) (mod p^2)",
            "Helou-Terjanian 2008", 11, A, 2, _make_ev_eq26(2, 4), window=3),
        CongruenceCheck(
            "eq26_n4_s2",
            "B_{p^4-p^3-2}/(p^4-p^3-2) = sum((-1)^(k+1) C(4,k)"
            " B_{k(p-1)-2}/(k(p-1)-2), k=1..4) (mod p^4)",
            "Helou-Terjanian 2008", 11, A, 4, _make_ev_eq26(4, 2), window=10),
    ]
    for r in range(1, 6):
        entries.append(CongruenceCheck(
            f"lemma13_r{r}",
            f"2 R_1 = -sum(p^i R_(i+1), i=1..{r}) (mod p^{r + 1})",
            "telescoped inverse-pair identity", 3, A, r + 1, _make_ev_lemma13(r)))
    for n, exponent in ((2, 6), (3, 5), (4, 4), (5, 4), (6, 3)):
        sign = "" if n % 2 else "-"
        entries.append(CongruenceCheck(
            f"lemma7_n{n}",
            f"R_{n} = {sign}{n} H_{n} (mod p^{exponent})",
            "Newton-identity consequences at Wolstenholme primes",
            11, Scope.WOLSTENHOLME_ONLY, exponent, _make_ev_lemma7(n, exponent)))
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


def _plan(p: int, ids: Iterable[str]) -> EvaluationPlan:
    """p's plan for the checks ``ids``, told their window reads (those of
    Wolstenholme-only checks apart) and, when all are Wolstenholme-only,
    to gate on an R_1 sweep of its own."""
    checks = [lookup(check_id) for check_id in ids]
    gated = [c for c in checks if c.scope is Scope.WOLSTENHOLME_ONLY]
    ungated = [c for c in checks if c.scope is not Scope.WOLSTENHOLME_ONLY]
    return EvaluationPlan(p, sum(c.window for c in ungated),
                          sum(c.window for c in gated), gate_alone=not ungated)


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


def _suite_worker(p: int, ids: tuple[str, ...]) -> list[CheckOutcome]:
    global _suite_plan
    _suite_plan = _plan(p, ids) if is_prime(p) else None
    try:
        return [run_check(check_id, p) for check_id in ids]
    finally:
        _suite_plan = None


def run_suite(
    ids: Sequence[str],
    primes: Iterable[int],
    parallelism: int = 1,
) -> Iterator[CheckOutcome]:
    """Outcomes for every (prime, check) pair, ordered by prime then id.

    The order is deterministic regardless of parallelism, and evaluation
    errors surface as failed outcomes rather than stopping the stream.
    Each prime gets one evaluation plan, shared by its checks and dropped
    when they are done, so no sweep runs twice at a prime.
    """
    ids = tuple(sorted(ids))
    for check_id in ids:
        lookup(check_id)
    for outcomes in ordered_map(partial(_suite_worker, ids=ids), primes,
                                parallelism, chunk=4):
        yield from outcomes


def all_check_ids() -> list[str]:
    return [c.id for c in registry()]
