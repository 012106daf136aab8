"""Registry contracts, gating, suite determinism, and the iff criterion."""
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolstenholme import checks, errors
from wolstenholme.checks import (
    Scope,
    all_check_ids,
    cor4_equivalence,
    lookup,
    registry,
    run_check,
    run_suite,
)
from wolstenholme.harmonic import elementary_symmetric
from wolstenholme.modring import is_prime, valuation
from wolstenholme.plan import EvaluationPlan

PRIMES_300 = [p for p in range(2, 300) if is_prime(p)]


def test_registry_shape():
    reg = registry()
    assert len(reg) >= 24
    ids = [c.id for c in reg]
    assert len(set(ids)) == len(ids)
    assert registry() is reg  # immutable singleton


def test_wolstenholme_only_gates():
    for check in registry():
        if check.scope is Scope.WOLSTENHOLME_ONLY:
            assert check.min_prime >= 11, check.id


def test_lookup():
    assert lookup("cor2_p7").modulus_exponent == 7
    assert lookup("prop1_p8").modulus_exponent == 8
    assert lookup("wolstenholme_thm").min_prime == 5
    with pytest.raises(errors.UnknownCheck):
        lookup("nope")


def test_run_check_examples():
    outcome = run_check("wolstenholme_thm", 5)
    assert outcome.passed and outcome.residual_valuation == 3
    assert outcome.lhs == "126"

    outcome = run_check("glaisher_p4", 7)
    assert outcome.passed
    assert int(outcome.lhs) % 7 ** 4 == 1716
    assert int(outcome.rhs) % 7 ** 4 == 1716

    outcome = run_check("prop1_p8", 11)
    assert outcome.skipped and outcome.reason == "not a Wolstenholme prime"
    assert outcome.lhs is None and outcome.rhs is None

    outcome = run_check("wolstenholme_thm", 4)
    assert outcome.skipped and outcome.reason == "not prime"

    outcome = run_check("wolstenholme_thm", 3)
    assert outcome.skipped and "below minimum prime" in outcome.reason

    outcome = run_check("sun_wan_p5", 409)
    assert outcome.skipped and "oracle bound" in outcome.reason


def test_pass_iff_valuation_reaches_exponent():
    for p in (11, 97, 499):
        for check in registry():
            outcome = run_check(check.id, p)
            if not outcome.skipped:
                assert outcome.passed == (
                    outcome.residual_valuation >= check.modulus_exponent)


def test_all_primes_checks_below_300():
    ids = [c.id for c in registry() if c.scope is Scope.ALL_PRIMES]
    for outcome in run_suite(ids, PRIMES_300):
        assert outcome.skipped or outcome.passed, outcome


def test_wolstenholme_prime_suite():
    ids = [c.id for c in registry() if c.scope is Scope.WOLSTENHOLME_ONLY]
    outcomes = list(run_suite(ids, [16843]))
    assert len(outcomes) == len(ids)
    for outcome in outcomes:
        assert not outcome.skipped and outcome.passed, outcome


def test_cor1_displays_agree_at_wolstenholme_prime():
    from wolstenholme.checks import _ev_cor1_first, _ev_cor1_second

    plan = EvaluationPlan(16843)
    lhs1, rhs1 = _ev_cor1_first(plan)
    lhs2, rhs2 = _ev_cor1_second(plan)
    assert (rhs1.reduce_to(7) - rhs2.reduce_to(7)).valuation() >= 7


def test_suite_order_and_determinism():
    from wolstenholme.cli import record_dict

    ids = ["wolstenholme_thm", "lemma1_p4", "lemma13_r1"]
    primes = [5, 7, 11, 13, 17]
    serial = list(run_suite(ids, primes))
    assert [(o.p, o.check_id) for o in serial] == sorted(
        [(p, i) for p in primes for i in ids])
    parallel = list(run_suite(ids, primes, parallelism=2))
    # determinism is a serialized-record contract; elapsed_ns is timing
    assert [record_dict(o) for o in serial] == [record_dict(o) for o in parallel]


def test_suite_empty_range():
    assert list(run_suite(["wolstenholme_thm"], [])) == []


def test_suite_unknown_id():
    with pytest.raises(errors.UnknownCheck):
        list(run_suite(["wolstenholme_thm", "bogus"], [5]))


def test_cor4_equivalence():
    assert cor4_equivalence(16843)  # both sides hold
    assert cor4_equivalence(13)     # both sides fail
    assert cor4_equivalence(10007)  # both sides fail
    for p in PRIMES_300:
        if p >= 11:
            assert cor4_equivalence(p), p


@pytest.mark.slow
def test_cor4_equivalence_to_1e4():
    from wolstenholme.scan import SieveConfig, sieve_primes

    bad = [p for p in sieve_primes(SieveConfig(11, 10 ** 4))
           if not cor4_equivalence(p)]
    assert not bad, bad[:10]


def test_check_ids_cover_picked_names():
    ids = set(all_check_ids())
    for required in (
        "wolstenholme_thm", "glaisher_p4", "lehmer_p3", "helou_terjanian_p6",
        "granville_p5", "sun_wan_p5", "lemma1_p4", "lemma2a_p5", "lemma2b_p5",
        "lemma12_i_p6", "lemma12_ii_p4", "lemma12_iii_p3", "lemma12_iv_p4",
        "lemma13_r1", "lemma13_r5", "eq19_p8", "prop1_p8", "prop2_p8",
        "cor1_first_p7", "cor1_second_p7", "cor2_p7", "cor3_p7", "cor4_iff",
        "remark2_p8", "lemma7_n2", "lemma7_n6", "lemma4_valuations",
        "lemma6_valuations", "kummer_eq10", "kummer_eq11", "eq26_n2_s4",
        "eq26_n4_s2", "zhao_eq4_p5",
    ):
        assert required in ids, required


def test_h_values_match_elementary_symmetric():
    # The plan's R and H, reduced from one wide sweep, against the public
    # path at each modulus.
    for p, K in ((7, 3), (11, 5), (101, 8), (397, 10)):
        n_max = min(6, p - 2)
        profile = elementary_symmetric(p, n_max, K)
        plan = EvaluationPlan(p)
        assert plan.R(K)[1:n_max + 1] == [profile.R[n] for n in range(1, n_max + 1)]
        assert plan.H(K)[1:] == [profile.H[n] for n in range(1, n_max + 1)], (p, K)


def _exact_sums(p):
    """Exact R_1..R_6 and H_1..H_6 at p, index 0 unused.

    H_n = e_n(1/1, .., 1/(p-1)) is the x^n coefficient of prod(x + k)
    over (p-1)!, a path that shares nothing with the Newton recurrence.
    """
    den = lcm(*range(1, p))
    R = [None] + [Fraction(sum((den // k) ** n for k in range(1, p)), den ** n)
                  for n in range(1, 7)]
    coeffs = [1]
    for k in range(1, p):
        shifted = [0] + coeffs
        coeffs = [a + k * b for a, b in zip(shifted, coeffs + [0])][:7]
    H = [None] + [Fraction(c, factorial(p - 1)) for c in coeffs[1:7]]
    return R, H


def _valuations_hold(p, values):
    return all(valuation(values[n], p) >= (2 if n % 2 else 1)
               for n in range(1, min(6, p - 3) + 1))


#: check id -> exact (lhs, rhs) from (p, R, H, C) with C = C(2p-1, p-1).
_EXACT_SIDES = {
    "lemma1_p4": lambda p, R, H, C: (2 * R[1], -p * R[2]),
    "lemma2a_p5": lambda p, R, H, C: (C, 1 + 2 * p * R[1]),
    "lemma2b_p5": lambda p, R, H, C: (C, 1 - p * p * R[2]),
    "eq19_p8": lambda p, R, H, C: (
        2 * R[1], -sum(p ** (i - 1) * R[i] for i in range(2, 7))),
    "lemma4_valuations": lambda p, R, H, C: (_valuations_hold(p, R), True),
    "lemma6_valuations": lambda p, R, H, C: (_valuations_hold(p, H), True),
}
for _r in range(1, 6):
    _EXACT_SIDES[f"lemma13_r{_r}"] = lambda p, R, H, C, r=_r: (
        2 * R[1], -sum(p ** i * R[i + 1] for i in range(1, r + 1)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([p for p in range(11, 400) if is_prime(p)]))
def test_all_primes_sum_checks_against_exact_rationals(p):
    R, H = _exact_sums(p)
    C = comb(2 * p - 1, p - 1)
    for check_id, sides in sorted(_EXACT_SIDES.items()):
        lhs, rhs = sides(p, R, H, C)
        if isinstance(lhs, bool):  # indicator checks compare truth values mod p
            want = 1 if lhs == rhs else 0
        else:  # evaluated two exponents above the stated one (p^10 fits)
            cap = min(lookup(check_id).modulus_exponent + 2, 10)
            want = min(valuation(lhs - rhs, p), cap)
        assert run_check(check_id, p).residual_valuation == want, (check_id, p)


#: Wolstenholme-only check id -> exact (lhs, rhs) from (p, R, H, C).
_EXACT_WOLSTENHOLME_ONLY = {
    "prop1_p8": lambda p, R, H, C: (
        C, 1 + sum(Fraction((-1) ** (n - 1), n) * p ** n * R[n] for n in range(1, 7))),
    "prop2_p8": lambda p, R, H, C: (
        C, 1 + Fraction(3, 2) * p * R[1] - Fraction(1, 4) * p ** 2 * R[2]
        + Fraction(7, 12) * p ** 3 * R[3] + Fraction(5, 12) * p ** 5 * R[5]),
    "cor1_first_p7": lambda p, R, H, C: (C, 1 - 2 * p * R[1] - 2 * p * p * R[2]),
    "cor1_second_p7": lambda p, R, H, C: (
        C, 1 + 2 * p * R[1] + Fraction(2, 3) * p ** 3 * R[3]),
    "remark2_p8": lambda p, R, H, C: (
        C, 1 + 2 * p * R[1] + Fraction(5, 6) * p ** 3 * R[3]
        + Fraction(1, 4) * p ** 4 * R[4] + Fraction(17, 30) * p ** 5 * R[5]),
}
for _n in range(2, 7):
    _EXACT_WOLSTENHOLME_ONLY[f"lemma7_n{_n}"] = lambda p, R, H, C, n=_n: (
        R[n], (1 if n % 2 else -1) * n * H[n])


def test_wolstenholme_only_evaluators_against_exact_rationals():
    # The gate skips these checks at every prime below 16843, so their
    # arithmetic is tested here by calling the evaluators directly: each
    # side and the residual valuation, not pass/fail, against exact sides.
    assert set(_EXACT_WOLSTENHOLME_ONLY) == {
        c.id for c in registry() if c.scope is Scope.WOLSTENHOLME_ONLY
        and c.id not in ("cor2_p7", "cor3_p7")}
    for p in (p for p in range(11, 400) if is_prime(p)):
        R, H = _exact_sums(p)
        C = comb(2 * p - 1, p - 1)
        plan = EvaluationPlan(p)
        for check_id, sides in sorted(_EXACT_WOLSTENHOLME_ONLY.items()):
            lhs, rhs = lookup(check_id).evaluator(plan)
            exact_lhs, exact_rhs = sides(p, R, H, C)
            assert (lhs, rhs) == (lhs.modulus.embed(exact_lhs),
                                  lhs.modulus.embed(exact_rhs)), (check_id, p)
            want = min(valuation(exact_lhs - exact_rhs, p), lhs.modulus.k)
            assert (lhs - rhs).valuation() == want, (check_id, p)
