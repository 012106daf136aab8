"""Acceptance suite: every criterion at its stated range and tolerance.

Each test prints one ACCEPTANCE line (run with -s or -rA to see them all).
Congruences are exact, so tolerances are exact valuation thresholds; the
two long-running variants (the full 1e5 scan and the p = 2124679 suite)
carry the `slow` / `stretch` markers and are excluded from the default
run, which uses the CI-scale bounds stated alongside the criteria.
"""
import time
from fractions import Fraction as Fr
from itertools import combinations
from math import comb, prod

import pytest

from wolstenholme.bernoulli import (
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_ratio,
    high_index_bernoulli,
)
from wolstenholme.binomial import central_binomial_mod
from wolstenholme.checks import run_suite
from wolstenholme.modring import embed_rational, make_modulus
from wolstenholme.plan import EvaluationPlan
from wolstenholme.scan import (
    Criterion,
    SieveConfig,
    sieve_primes,
    wolstenholme_scan,
)

WOLSTENHOLME_PRIME = 16843
SECOND_WOLSTENHOLME_PRIME = 2124679


def _report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail} ({elapsed:.1f}s)")


def _primes(lo, hi):
    return list(sieve_primes(SieveConfig(lo, hi)))


def _suite_green(ids, primes):
    """(all_passed, ran, failures) over non-skipped outcomes."""
    ran = 0
    failures = []
    for outcome in run_suite(ids, primes):
        if outcome.skipped:
            continue
        ran += 1
        if not outcome.passed:
            failures.append((outcome.check_id, outcome.p,
                             outcome.residual_valuation, outcome.reason))
    return not failures, ran, failures


def _two_sum_flags(limit):
    """Primes 11 <= p < limit the mod-p^7 two-sum scan flags."""
    return [r.p for r in wolstenholme_scan(SieveConfig(11, limit),
                                           Criterion.COR1_SECOND_P7) if r.flagged]


def test_criterion_1_wolstenholme_theorem_to_1e4():
    start = time.time()
    bad = [p for p in _primes(5, 10 ** 4)
           if central_binomial_mod(p, 3).wolstenholme_valuation < 3]
    elapsed = time.time() - start
    ok = not bad
    _report(1, ok, f"v_p(C(2p-1,p-1)-1) >= 3 for all 1229 primes in [5, 1e4)"
                   f", target < 60 s", elapsed)
    assert ok, bad[:10]
    assert elapsed < 60


def test_criterion_2_exact_valuations_no_slack():
    start = time.time()
    v5 = central_binomial_mod(5, 3).wolstenholme_valuation
    v7 = central_binomial_mod(7, 3).wolstenholme_valuation
    ok = v5 == 3 == v7 and comb(9, 4) - 1 == 5 ** 3 and comb(13, 6) - 1 == 5 * 7 ** 3
    _report(2, ok, f"v_5(C(9,4)-1) = {v5} and v_7(C(13,6)-1) = {v7}, exactly 3",
            time.time() - start)
    assert ok


def test_criterion_3_harmonic_lemma_families():
    start = time.time()
    ids_2000 = ["lemma1_p4", "lemma2a_p5", "lemma2b_p5", "lemma4_valuations",
                "lemma6_valuations"] + [f"lemma13_r{r}" for r in range(1, 6)]
    ok1, ran1, fail1 = _suite_green(ids_2000, _primes(11, 2001))
    ids_500 = ["lemma12_i_p6", "lemma12_ii_p4", "lemma12_iii_p3",
               "lemma12_iv_p4", "eq19_p8"]
    ok2, ran2, fail2 = _suite_green(ids_500, _primes(11, 501))
    ok = ok1 and ok2
    _report(3, ok, f"sum identities on [11,2000] ({ran1} runs) and the"
                   f" Bernoulli reductions on [11,500] ({ran2} runs), 100%",
            time.time() - start)
    assert ok, (fail1 + fail2)[:10]


def test_criterion_4_glaisher_and_lehmer_to_2000():
    start = time.time()
    ok, ran, failures = _suite_green(
        ["glaisher_p4", "lehmer_p3"], _primes(11, 2001))
    _report(4, ok, f"Glaisher mod p^4 and Lehmer mod p^3 on [11,2000]"
                   f" ({ran} runs), 100%", time.time() - start)
    assert ok, failures[:10]


def test_criterion_5_classical_congruences_to_400():
    start = time.time()
    ok, ran, failures = _suite_green(
        ["helou_terjanian_p6", "granville_p5", "sun_wan_p5"],
        _primes(11, 401))
    _report(5, ok, f"Helou-Terjanian mod p^6, Granville mod p^5, Sun-Wan"
                   f" mod p^5 on [11,400] ({ran} runs), 100%",
            time.time() - start)
    assert ok, failures[:10]


WOLSTENHOLME_SUITE = [
    "prop1_p8", "prop2_p8", "cor1_first_p7", "cor1_second_p7", "cor2_p7",
    "cor3_p7", "remark2_p8",
] + [f"lemma7_n{n}" for n in range(2, 7)]


def test_criterion_6_wolstenholme_prime_suite():
    start = time.time()
    outcomes = list(run_suite(WOLSTENHOLME_SUITE, [WOLSTENHOLME_PRIME]))
    elapsed = time.time() - start
    ok = (len(outcomes) == 12
          and all(not o.skipped and o.passed for o in outcomes))
    _report(6, ok, f"all 12 Wolstenholme-prime congruences at p = 16843,"
                   f" target < 5 s", elapsed)
    assert ok, [(o.check_id, o.residual_valuation, o.reason) for o in outcomes
                if o.skipped or not o.passed]
    assert elapsed < 5


@pytest.mark.stretch
def test_criterion_6_stretch_second_wolstenholme_prime():
    start = time.time()
    outcomes = list(run_suite(WOLSTENHOLME_SUITE, [SECOND_WOLSTENHOLME_PRIME]))
    elapsed = time.time() - start
    ok = (len(outcomes) == 12
          and all(not o.skipped and o.passed for o in outcomes))
    _report(6, ok, f"stretch: the same suite at p = 2124679,"
                   f" target < 600 s", elapsed)
    assert ok, [(o.check_id, o.residual_valuation, o.reason) for o in outcomes
                if o.skipped or not o.passed]
    assert elapsed < 600


def test_criterion_7_two_sum_scan_ci_scale():
    start = time.time()
    flagged = _two_sum_flags(2 * 10 ** 4)
    elapsed = time.time() - start
    ok = flagged == [WOLSTENHOLME_PRIME]
    _report(7, ok, f"two-sum mod-p^7 scan below 2e4 flags exactly"
                   f" {{16843}}, target < 120 s", elapsed)
    assert ok, flagged
    assert elapsed < 120


@pytest.mark.slow
def test_criterion_7_two_sum_scan_full():
    start = time.time()
    flagged = _two_sum_flags(10 ** 5)
    elapsed = time.time() - start
    ok = flagged == [WOLSTENHOLME_PRIME]
    _report(7, ok, f"full scan below 1e5 flags exactly {{16843}},"
                   f" target < 3600 s", elapsed)
    assert ok, flagged
    assert elapsed < 3600


def test_criterion_8_oracle_equivalences():
    start = time.time()
    problems = []

    # central binomial product form vs the exact oracle, p <= 200, k <= 8
    for p in _primes(5, 201):
        want = comb(2 * p - 1, p - 1)
        for k in range(1, 9):
            if central_binomial_mod(p, k).value.value != want % p ** k:
                problems.append(("central", p, k))

    # Newton recurrence vs brute-force subset sums, p <= 13, n <= 6
    for p in (5, 7, 11, 13):
        H = EvaluationPlan(p).H
        modulus = make_modulus(p, 4)
        for n in range(1, len(H)):
            brute = sum(Fr(1, prod(sub))
                        for sub in combinations(range(1, p), n))
            if modulus.residue(H[n]) != embed_rational(brute, modulus):
                problems.append(("newton", p, n))

    # residue Bernoulli vs exact rationals: even n <= 60, p in 11..97, r <= 3
    for p in _primes(11, 98):
        for n in range(2, 61, 2):
            if n % (p - 1) == 0:
                continue
            for r in (1, 2, 3):
                want = embed_rational(bernoulli_exact(n).value,
                                      make_modulus(p, r))
                if bernoulli_mod(n, p, r).value != want:
                    problems.append(("bernoulli", n, p, r))

    # Kummer transfer, alternating sums, and the high-index expansion
    for p in _primes(11, 98):
        plan = EvaluationPlan(p)
        m = p * (p - 1) + 4  # m = 4 (mod phi(p^2))
        target = m % (p * (p - 1))
        if bernoulli_ratio(m, p, 2, plan) != bernoulli_ratio(target, p, 2, plan):
            problems.append(("kummer10", p))
        for r in (1, 2, 3):
            diff = sum((-1) ** k * comb(r, k)
                       * bernoulli_ratio(8 + k * (p - 1), p, r, plan)
                       for k in range(r + 1))
            if diff.valuation() < r:
                problems.append(("kummer11", p, r))
        for n in (2, 3, 4):
            for s in (2, 4):
                big = p ** n - p ** (n - 1) - s
                if bernoulli_mod(big, p, n).value != high_index_bernoulli(n, s, p):
                    problems.append(("eq26", p, n, s))

    ok = not problems
    _report(8, ok, "oracle equivalences: central binomial, Newton subset"
                   " sums, Bernoulli residues, Kummer and high-index"
                   " reductions, 100%", time.time() - start)
    assert ok, problems[:10]


def test_criterion_9_criterion_agreement():
    start = time.time()
    flags = {}
    for criterion in (Criterion.BINOMIAL_P4, Criterion.HARMONIC_R1_P3,
                      Criterion.BERNOULLI_BP3):
        for rec in wolstenholme_scan(SieveConfig(11, 2001), criterion):
            flags.setdefault(rec.p, []).append(rec.flagged)
    disagreements = [p for p, fl in flags.items() if len(set(fl)) != 1]
    flag_sets_empty = all(not any(fl) for fl in flags.values())
    at_wolstenholme = all(
        next(iter(wolstenholme_scan(
            SieveConfig(WOLSTENHOLME_PRIME, WOLSTENHOLME_PRIME + 1),
            criterion))).flagged
        for criterion in Criterion)
    ok = not disagreements and flag_sets_empty and at_wolstenholme
    _report(9, ok, "the three equivalent criteria agree per prime on"
                   " [11,2000] (empty flag sets) and all flag 16843",
            time.time() - start)
    assert ok, disagreements[:10]
