"""Registry contracts, gating, suite determinism, and the iff criterion."""
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolstenholme import bernoulli, checks, errors
from wolstenholme.checks import (
    Scope,
    all_check_ids,
    lookup,
    registry,
    run_check,
    run_suite,
)
from wolstenholme.bernoulli import EXACT_INDEX_CAP, bernoulli_exact
from wolstenholme.binomial import central_binomial_mod
from wolstenholme.harmonic import _inverse_power_sums_raw, _newton_h_raw
from wolstenholme.modring import is_prime, valuation
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

from bernoulli_recursion import p_times_bernoulli

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
    M = plan.modulus(7)
    assert (M.residue(rhs1.value) - M.residue(rhs2.value)).valuation() >= 7


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


def cor4_equivalence(p: int) -> bool:
    """Wolstenholme-prime status by the product kernel agrees with the
    mod-p^7 two-sum congruence read off p's plan."""
    wolstenholme = central_binomial_mod(p, 4).wolstenholme_valuation >= 4
    return wolstenholme == checks._cor1_first_holds(EvaluationPlan(p))


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
    # The plan's R and H, reduced from one wide sweep, against the raw
    # kernels run at each modulus.
    for p, K in ((7, 3), (11, 5), (101, 8), (397, 10)):
        n_max, m = min(6, p - 2), p ** K
        R = _inverse_power_sums_raw(p, n_max, m)
        plan = EvaluationPlan(p)
        assert [x % m for x in plan.R[1:n_max + 1]] == R[1:]
        assert [x % m for x in plan.H[1:]] == _newton_h_raw(R, n_max, m)[1:], (p, K)


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


def _exact_side(p, const, terms):
    """const + sum(c p^a x) with each x a B_n or B_n/n term and B_n exact;
    None when a term reads the plan's sums or an index passes 400."""
    exact = Fraction(const)
    for c, a, x in terms:
        if x[0] not in ("B", "B/n"):
            return None
        kind, j, e, s = x
        n = j * p ** e * (p - 1) - s
        if n > EXACT_INDEX_CAP:
            return None
        b = bernoulli_exact(n).value
        exact += c * p ** a * (b / n if kind == "B/n" else b)
    return exact


#: W, the exponent each row with a Bernoulli term is evaluated at, at every
#: prime: its stated exponent plus two, held to p^4 above its least power p^a
#: of a Bernoulli term, or to the row's pin.
BERNOULLI_ROW_W = {
    "glaisher_p4": 6, "lehmer_p3": 5, "helou_terjanian_p6": 6, "lemma12_i_p6": 6,
    "lemma12_ii_p4": 6, "lemma12_iii_p3": 5, "cor2_p7": 7, "cor3_p7": 7,
    "kummer_eq10": 4, "kummer_eq11": 4, "eq26_n2_s4": 2, "eq26_n4_s2": 4,
}


def test_linear_w_is_the_same_at_every_prime():
    # W follows from the row alone: p^10 is 35 bits at 11 and 251 at 33554467.
    for check in registry():
        if isinstance(row := check.evaluator, checks.Linear):
            ws = {row.reads(p)[0] for p in (11, 16843, 2124679, 33554467)}
            assert len(ws) == 1, (check.id, ws)


def test_bernoulli_rows_evaluate_at_their_w():
    # Every row with a B_n or B_n/n term, on one sweeping plan at 16843,
    # and no other row.
    plan = EvaluationPlan(16843, SWEEP_REQUESTS)
    rows = {c.id: row for c in registry() if isinstance(row := c.evaluator, checks.Linear)
            and any(x[0] in ("B", "B/n") for _, _, x in row.lhs + row.terms)}
    assert set(rows) == set(BERNOULLI_ROW_W)
    for check_id, row in rows.items():
        lhs, rhs = row(plan)
        assert lhs.modulus.k == rhs.modulus.k == BERNOULLI_ROW_W[check_id], check_id
        assert (lhs - rhs).valuation() >= row.stated, check_id


def test_row_refuses_a_p_times_bernoulli_not_divisible_by_p(monkeypatch):
    # A row divides each p B_n it reads by p exactly; a read that p does not
    # divide is an error record, not a floored quotient.
    read = checks._p_times_bernoulli_reads

    def off_by_one(reads, plan):
        return [(n, c, pb + 1) for n, c, pb in read(reads, plan)]

    monkeypatch.setattr(checks, "_p_times_bernoulli_reads", off_by_one)
    outcome = run_check("glaisher_p4", 11)
    assert not outcome.skipped and not outcome.passed and outcome.lhs is None
    assert outcome.reason == "error: p*B_8 mod 11^4 is not divisible by 11"


def test_bernoulli_rows_against_exact_rationals():
    # Each side of B_n and B_n/n terms with every index <= 400 against its
    # exact value: a B_n read at less than its derived precision p^(W - a),
    # or a ratio term without its n^-1, leaves the side wrong mod p^W.
    primes = [p for p in range(11, 98) if is_prime(p)]
    ratio_rows = ("kummer_eq10", "kummer_eq11", "eq26_n2_s4", "eq26_n4_s2")
    checked = set()
    for p in primes:
        plan = EvaluationPlan(p)
        for check_id in ("glaisher_p4", "lehmer_p3", "cor3_p7") + ratio_rows:
            row = lookup(check_id).evaluator
            sides = zip(("lhs", "rhs"), row(plan), (0, row.const), (row.lhs, row.terms))
            exact_sides = []
            for side, got, const, terms in sides:
                assert got.modulus.k == BERNOULLI_ROW_W[check_id], (check_id, p)
                exact = _exact_side(p, const, terms)
                if exact is not None:
                    assert got == got.modulus.embed(exact), (check_id, side, p)
                    checked.add((check_id, side, p))
                    exact_sides.append(exact)
            if len(exact_sides) == 2:  # the congruence itself, in exact rationals
                lhs, rhs = exact_sides
                assert valuation(lhs - rhs, p) >= row.stated, (check_id, p)
    small = [p for p in primes if p <= 19]
    want = {(check_id, "rhs", p) for check_id in ("glaisher_p4", "lehmer_p3", "cor3_p7")
            + ratio_rows for p in primes}
    want |= {("kummer_eq11", "lhs", p) for p in primes}
    want |= {(check_id, "lhs", p) for check_id in ("kummer_eq10", "eq26_n2_s4")
             for p in small}
    assert checked == want


# --- compiled rows ----------------------------------------------------------------

def _linear_rows():
    return [(c, c.evaluator) for c in registry() if isinstance(c.evaluator, checks.Linear)]


def _node_lists_match_the_recursion(primes, below_minimum=False):
    """Every row's reads off the registry's suite lists, both evaluated on one
    suite plan per prime (so nodes are shared and skipped as in a run),
    against the reference recursion on a fresh plan, which sweeps nothing,
    with a memo of its own; rows below their minimum prime only if
    ``below_minimum``.  From 11 on the lists hold every read, so no row
    evaluates a node of its own."""
    rows = [(c, row) for c, row in _linear_rows() if row._reads]
    suite = checks._compile(all_check_ids())
    compared = 0
    for p in primes:
        plan, fresh, memo = suite.plan(p), EvaluationPlan(p), {}
        bernoulli._evaluate_lists(suite.lists, plan, True)
        for check, row in rows:
            if p < check.min_prime and not below_minimum:
                continue
            reads = row._reads
            if p >= 11:
                assert all(plan.pb[j * p ** e * (p - 1) - s][0] >= c
                           for j, e, s, c in reads), (check.id, p)
            got = checks._p_times_bernoulli_reads(reads, plan)
            assert [(n, c) for n, c, _ in got] == [
                (j * p ** e * (p - 1) - s, c) for j, e, s, c in reads], (check.id, p)
            for n, c, pb in got:
                assert pb == p_times_bernoulli(n, fresh, c, memo), (check.id, p, n, c)
                compared += 1
    return compared


def test_node_lists_read_what_the_recursion_reads():
    assert _node_lists_match_the_recursion([p for p in range(7, 600) if is_prime(p)]) > 2000


def test_node_lists_below_the_minimum_primes():
    # At 5 the trees of B_(p-3) and B_(p-5) reach index 0 and below, which
    # the lists skip; at 7 a lemma12 read lifts.
    assert _node_lists_match_the_recursion([5, 7], below_minimum=True) == 66


@pytest.mark.slow
def test_node_lists_read_what_the_recursion_reads_below_3000():
    assert _node_lists_match_the_recursion([p for p in range(7, 3000) if is_prime(p)]) > 10000


def test_a_lifted_node_lifts_in_the_list(monkeypatch):
    # At 7, below lemma12_ii_p4's minimum prime, its read of p B_2054 mod 7^5
    # has the node 2052 = 7^3 * 6 - 6 at C = 3, and 2^2052 = 1 (mod 7): the
    # list lifts it in place, off the identity mod 7^4 divided by 7, after
    # its first child p B_2050 mod 7^2, which the list does not hold.
    row, suite = lookup("lemma12_ii_p4").evaluator, checks._compile(["lemma12_ii_p4"])
    assert suite.lists[0] == ((1, 3, 6, 3), (1, 3, 4, 5))
    assert pow(2, 2052, 7) == 1
    calls = []
    half_identity = bernoulli._half_identity

    def spy(n, p, c, C, *args):
        calls.append((n, c, C))
        return half_identity(n, p, c, C, *args)

    plan = suite.plan(7)
    with monkeypatch.context() as patch:
        patch.setattr(bernoulli, "_half_identity", spy)
        bernoulli._evaluate_lists(suite.lists, plan, False)
    assert calls == [(2050, 2, 2), (2052, 3, 4), (2054, 5, 5)] and plan.listed == 1
    assert plan.pb[2052][0] == 3 and plan.pb[2054][0] == 5
    got = checks._p_times_bernoulli_reads(row._reads, plan)
    assert got == [(2054, 5, p_times_bernoulli(2054, EvaluationPlan(7), 5, {}))]
    assert row(plan) == _reference_row(row, EvaluationPlan(7))


def _reference_row(row, plan):
    """A row's (lhs, rhs) term by term in Fraction coefficients, each B_n read
    through the reference recursion, with a memo of its own, and divided by
    p: the arithmetic the rows had before they were compiled."""
    p, (W, reads), memo = plan.p, row.reads(plan.p), {}
    M = plan.modulus(W)
    bs = {n: p_times_bernoulli(n, plan, c, memo) // p for n, c in reads.items()}

    def term(c, a, x):
        if x[0] in ("B", "B/n"):
            n = x[1] * p ** x[2] * (p - 1) - x[3]
            v = Fraction(bs[n], n if x[0] == "B/n" else 1)
        else:
            v = getattr(plan, x[0])[x[1]]
        return Fraction(c) * p ** a * v

    return (M.embed(sum((term(*t) for t in row.lhs), Fraction(0))),
            M.embed(row.const + sum((term(*t) for t in row.terms), Fraction(0))))


def test_compiled_rows_against_fraction_terms():
    # Off the registry's lists, gated rows too.
    suite = checks._compile(all_check_ids())
    for p in (11, 101, 16843):
        plan = suite.plan(p)
        bernoulli._evaluate_lists(suite.lists, plan, True)
        for check, row in _linear_rows():
            assert row(plan) == _reference_row(row, EvaluationPlan(p)), (check.id, p)
