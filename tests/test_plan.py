"""The per-prime evaluation plan: its products and gate against the product
kernel, the sweeps and passes it makes, and what it leaves behind."""
import gc
import importlib
import pkgutil
from collections import Counter
from itertools import combinations

import pytest

import wolstenholme
from wolstenholme import bernoulli, binomial, checks, harmonic, scan
from wolstenholme.binomial import _shifted_product_raw
from wolstenholme.modring import MAX_EXPONENT, is_prime
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

PRIMES_5_3000 = [p for p in range(5, 3000) if is_prime(p)]
PRIMES_11_3000 = [p for p in PRIMES_5_3000 if p >= 11]
BERNOULLI_ROWS = [c.id for c in checks.registry()
                  if isinstance(row := c.evaluator, checks.Linear)
                  and any(x[0] in ("B", "B/n") for _, _, x in row.lhs + row.terms)]


def assert_products_match(plan, exponents):
    p = plan.p
    assert len(plan.products) == 3
    for K in exponents:
        m = p ** K
        for shift, product in enumerate(plan.products, 1):
            assert product % m == _shifted_product_raw(p, shift, m), (p, K, shift)


def test_pair_products_match_shifted_products():
    # E(1), E(2), E(3) (C(2p-1, p-1), C(3p, 2p)/3 and C(4p, p)/4) read off
    # T_1..T_4 equal the product form, also at 16843, the one prime whose
    # expansions the suite evaluates.
    for p in PRIMES_5_3000 + [16843]:
        assert_products_match(EvaluationPlan(p), (4, 7, 10))


@pytest.mark.stretch
def test_pair_products_match_shifted_products_at_2124679():
    plan = EvaluationPlan(2124679)
    assert_products_match(plan, (4, 7, MAX_EXPONENT))
    assert plan.wolstenholme


def test_t1_gate_is_the_defining_congruence():
    # Read off the full pair sweep and off the gate's own R_1 sweep.
    for p in PRIMES_5_3000 + [16843]:
        wolstenholme = _shifted_product_raw(p, 1, p ** 4) == 1
        assert EvaluationPlan(p).wolstenholme == wolstenholme, p
        assert EvaluationPlan(p, gate_alone=True).wolstenholme == wolstenholme, p
    assert not EvaluationPlan(3).wolstenholme


def count_kernels(monkeypatch) -> Counter:
    """Count the sweeps, direct passes and products made from here on."""
    counts = Counter()
    for module, name in ((harmonic, "_pair_power_sums_raw"),
                         (harmonic, "_walk_pair_sums_raw"),
                         (harmonic, "_moment_sums_raw"),
                         (harmonic, "power_sum_raw"),
                         (bernoulli, "power_sum_raw"),
                         (binomial, "_shifted_product_raw")):
        def counting(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    return counts


def test_suite_sweeps_once_per_prime(monkeypatch):
    counts = count_kernels(monkeypatch)
    outcomes = list(checks.run_suite(checks.all_check_ids(), [16843]))
    assert sum(o.passed for o in outcomes) == 37
    assert counts == {"_pair_power_sums_raw": 1, "_moment_sums_raw": 1}


def test_wolstenholme_only_suite_gates_on_t1_alone(monkeypatch):
    # One walk for T_1 per prime for the gate, and no sweep or product,
    # where every prime fails it.
    counts = count_kernels(monkeypatch)
    ids = [c.id for c in checks.registry() if c.scope is checks.Scope.WOLSTENHOLME_ONLY]
    primes = [p for p in range(11, 200) if is_prime(p)]
    assert all(o.skipped for o in checks.run_suite(ids, primes))
    assert counts == {"_walk_pair_sums_raw": len(primes)}
    # At a Wolstenholme prime the full sweeps follow the gate's walk.
    counts.clear()
    assert all(o.passed for o in checks.run_suite(ids, [16843]))
    assert counts == {"_walk_pair_sums_raw": 1, "_pair_power_sums_raw": 1,
                      "_moment_sums_raw": 1}


def test_few_window_reads_take_direct_passes(monkeypatch):
    # lehmer_p3 reads S_(p-4) and S_(p-6): two passes beat one sweep.  The
    # reads of cor2_p7 count only where the gate lets it evaluate, so below
    # 200 the pair makes 2 < SWEEP_REQUESTS reads; at 16843 it makes 5, as
    # both checks read p B_(p-5) mod p^2 and the plan holds it: one sweep.
    counts = count_kernels(monkeypatch)
    primes = [p for p in range(11, 200) if is_prime(p)]
    for ids in (["lehmer_p3"], ["cor2_p7", "lehmer_p3"]):
        counts.clear()
        assert all(o.passed or o.check_id == "cor2_p7"
                   for o in checks.run_suite(ids, primes))
        assert counts == {"_pair_power_sums_raw": len(primes),
                          "power_sum_raw": 2 * len(primes)}, ids
    counts.clear()
    assert all(o.passed for o in checks.run_suite(["cor2_p7", "lehmer_p3"], [16843]))
    assert counts == {"_pair_power_sums_raw": 1, "_moment_sums_raw": 1}


def count_reads(monkeypatch) -> Counter:
    """Count, by prime, the half sums read from here on, off the window or
    by direct pass."""
    made = Counter()
    half_sum = EvaluationPlan.half_sum

    def half(plan, n, c):
        made[plan.p] += 1
        return half_sum(plan, n, c)

    monkeypatch.setattr(EvaluationPlan, "half_sum", half)
    return made


def lists_and_reads(suite, plan) -> tuple:
    """The half sums ``suite``'s two lists read on ``plan``, each list in turn,
    off stand-in sums of 0, on which the lists never branch; a lifted node
    would read more (its chain first) or raise (its division by p^d)."""
    made = []
    plan.half_sum = lambda n, c: made.append((n, c)) or 0
    bernoulli._evaluate_lists(suite.lists, plan, False)
    ungated = len(made)
    bernoulli._evaluate_lists(suite.lists, plan, True)
    return ungated, len(made) - ungated


def test_suite_lists_predict_the_reads_made(monkeypatch):
    # The reads a plan is told of, its suite's list lengths, are the reads
    # (passes or window reads) its checks make, exactly: for each row on a
    # plan of its own, past the gate or not, and for the whole registry.
    made = count_reads(monkeypatch)
    for p in (11, 101, 1009):
        for check in checks.registry():
            if check.max_prime is None or p <= check.max_prime:
                suite = checks._compile([check.id])
                plan = suite.plan(p)
                made.clear()
                bernoulli._evaluate_lists(suite.lists, plan, True)
                check.evaluator(plan)
                assert plan.requests + plan.wolstenholme_requests == made[p], (check.id, p)
    for p in (11, 101, 1009, 16843):
        made.clear()
        assert all(o.passed or o.skipped
                   for o in checks.run_suite(checks.all_check_ids(), [p]))
        plan = checks._compile(checks.all_check_ids()).plan(p)
        told = plan.requests + (plan.wolstenholme_requests if plan.wolstenholme else 0)
        assert told == made[p] >= SWEEP_REQUESTS, p
    # Off the window the same lists make as many reads, at every prime.
    suite = checks._compile(["cor3_p7"])
    for p in (101, 16843):
        counts = {}
        for requests in (0, SWEEP_REQUESTS):
            made.clear()
            plan = EvaluationPlan(p, requests)
            bernoulli._evaluate_lists(suite.lists, plan, True)
            checks.lookup("cor3_p7").evaluator(plan)
            counts[requests] = made[p]
        assert counts[0] == counts[SWEEP_REQUESTS] > SWEEP_REQUESTS, p


def assert_suite_counts_are_the_reads_at_every_prime(monkeypatch, suites):
    """What run_suite tells each prime's plan, compiled once per suite, is
    what its lists read at that prime, ungated and past the gate, at every
    prime from 11 below 3000."""
    told = {}
    monkeypatch.setattr(checks, "EvaluationPlan",
                        lambda p, *counts: told.update({p: counts}))
    monkeypatch.setattr(checks, "run_check", lambda check_id, p: None)
    for ids in suites:
        told.clear()
        list(checks.run_suite(ids, PRIMES_11_3000))
        assert len(told) == len(PRIMES_11_3000)
        suite = checks._compile(sorted(ids))
        for p in PRIMES_11_3000:
            reads = lists_and_reads(suite, EvaluationPlan(p))
            assert told[p] == (*reads, suite.gate_alone), (ids, p)


def test_suite_counts_are_the_reads_at_every_prime(monkeypatch):
    # The registry, its Wolstenholme-only checks, and each Bernoulli row alone.
    assert len(BERNOULLI_ROWS) == 12
    gated = [c.id for c in checks.registry() if c.scope is checks.Scope.WOLSTENHOLME_ONLY]
    suite = checks._compile(checks.all_check_ids())
    assert len(suite.lists[0]) >= SWEEP_REQUESTS and not suite.gate_alone
    suite = checks._compile(gated)
    assert not suite.lists[0] and len(suite.lists[1]) >= SWEEP_REQUESTS and suite.gate_alone
    assert_suite_counts_are_the_reads_at_every_prime(
        monkeypatch, [checks.all_check_ids(), gated] + [[i] for i in BERNOULLI_ROWS])


@pytest.mark.slow
def test_suite_counts_of_bernoulli_pairs_and_triples(monkeypatch):
    # Pairs and triples of the Bernoulli rows, on both sides of
    # SWEEP_REQUESTS = 3.
    assert_suite_counts_are_the_reads_at_every_prime(
        monkeypatch, [ids for r in (2, 3) for ids in combinations(BERNOULLI_ROWS, r)])


#: (ungated, Wolstenholme-only) list lengths, the window reads each suite's
#: plans are told.  The registry's Wolstenholme-only rows add no node: the
#: ungated rows' list holds all they read, cor2_p7's p B_(p-5) included.
#: Each (j, e, s) is one node, at the largest C a read asks of it: with
#: glaisher_p4, whose read of p B_(p-3) mod p^4 has the child p B_(p-5) at
#: C = 2, eq26_n2_s4's read of p B_(p-5) mod p^3 lists that node once, at 3.
SUITE_LISTS = {
    tuple(checks.all_check_ids()): (22, 0),
    ("eq26_n2_s4", "glaisher_p4"): (4, 0),
    ("glaisher_p4", "lehmer_p3"): (2, 0),
    ("eq26_n2_s4",): (3, 0),
    ("cor2_p7",): (0, 4),
    ("helou_terjanian_p6",): (4, 0),
    ("lemma12_i_p6",): (5, 0),
    ("kummer_eq10", "kummer_eq11"): (8, 0),
}


def test_suite_list_lengths():
    for ids, lengths in SUITE_LISTS.items():
        assert tuple(map(len, checks._compile(ids).lists)) == lengths, ids
    # No suite of one to three Bernoulli rows lists a node twice in a list,
    # and the second lists one of the first only at a higher C.
    for ids in (ids for r in (1, 2, 3) for ids in combinations(BERNOULLI_ROWS, r)):
        ungated, gated = ({node[:3]: node[3] for node in nodes}
                          for nodes in checks._compile(ids).lists)
        assert sum(map(len, checks._compile(ids).lists)) == len(ungated) + len(gated), ids
        assert all(C > ungated.get(key, 0) for key, C in gated.items()), ids


def test_registry_list_is_the_moment_window():
    # {-s: largest C} over the registry's nodes is the window the moment
    # sweep serves, the literal harmonic.MOMENT_WINDOW.
    window = {}
    for nodes in checks._compile(checks.all_check_ids()).lists:
        for _, _, s, C in nodes:
            window[-s] = max(C, window.get(-s, 0))
    assert window == harmonic.MOMENT_WINDOW == {4: 5, 2: 3, -2: 5, -4: 5, -6: 3}


def test_table_of_2_is_the_direct_powers():
    # Each entry the p-th power of the one before, against one pow each.
    for p in (p for p in PRIMES_5_3000 if p >= 7):
        m = p ** MAX_EXPONENT
        assert EvaluationPlan(p).two == [pow((m + 1) // 2, p ** e * (p - 1), m)
                                         for e in range(4)], p


def test_a_failing_node_errs_the_reading_rows_only(monkeypatch):
    # A node that raises in the lists' evaluation is an error record of each
    # row whose reads reach it, through its own reads, never an aborted
    # prime: the other rows at 101, those that read other nodes included,
    # and both neighbouring primes pass or skip as ever.
    half_identity = bernoulli._half_identity

    def failing(n, p, *args):
        if p == 101 and n == p - 3:
            raise ArithmeticError(f"p*B_{n} refused")
        return half_identity(n, p, *args)

    monkeypatch.setattr(bernoulli, "_half_identity", failing)
    outcomes = list(checks.run_suite(checks.all_check_ids(), [97, 101, 103]))
    reading = {i for i in BERNOULLI_ROWS if checks.lookup(i).scope is checks.Scope.ALL_PRIMES}
    reach = {i for i in reading if any(
        j * 101 ** e * 100 - s == 98
        for j, e, s, _ in bernoulli._half_nodes(checks.lookup(i).evaluator._reads, {}))}
    assert len(reading) == 10 and 0 < len(reach) < len(reading)
    for o in outcomes:
        if o.p == 101 and o.check_id in reach:
            assert o.reason == "error: p*B_98 refused", o
        else:
            assert o.passed or o.skipped, o


def test_no_registry_read_lifts(monkeypatch):
    # No node of a registry row's own list at a prime it applies to has
    # 2^n = 1 (mod p): none lifts, so the counts' stand-in sums are safe.
    # The spy first sees the lift it looks for: lemma12_ii_p4's node 2052 at
    # 7, below its minimum prime, where 2^2052 = 1 (mod 7).
    lifted = []
    half_identity = bernoulli._half_identity

    def spy(n, p, c, C, *args):
        if C > c:
            lifted.append((n, p, c, C))
        return half_identity(n, p, c, C, *args)

    monkeypatch.setattr(bernoulli, "_half_identity", spy)
    suite = checks._compile(["lemma12_ii_p4"])
    lists_and_reads(suite, suite.plan(7))
    assert lifted == [(2052, 7, 3, 4)]
    lifted.clear()
    nodes = 0
    for p in [7] + PRIMES_11_3000:
        for check in checks.registry():
            if p >= check.min_prime and check.id in BERNOULLI_ROWS:
                suite = checks._compile([check.id])
                assert sum(lists_and_reads(suite, suite.plan(p))) == sum(
                    map(len, suite.lists)), (check.id, p)
                nodes += sum(map(len, suite.lists))
    assert not lifted and nodes > 20000


def test_suite_counts_shared_reads_once(monkeypatch):
    # glaisher_p4 and lehmer_p3 both read p B_(p-3) mod p^4: each row reads
    # two half sums, but the plan's memo leaves two distinct ones, so two passes
    # and no sweep.
    counts = count_kernels(monkeypatch)
    ids = ["glaisher_p4", "lehmer_p3"]
    for p in [p for p in range(11, 200) if is_prime(p)] + [16843]:
        counts.clear()
        assert all(o.passed for o in checks.run_suite(ids, [p]))
        assert counts["power_sum_raw"] == 2 and not counts["_moment_sums_raw"], p
    # The registry reads enough to sweep at every prime from 7 on.
    counts.clear()
    list(checks.run_suite(checks.all_check_ids(), range(4, 501)))
    assert counts["_moment_sums_raw"] == len([p for p in range(7, 501) if is_prime(p)])


def test_lone_bernoulli_requests_take_direct_passes(monkeypatch):
    counts = count_kernels(monkeypatch)
    assert bernoulli.bernoulli_mod(16843 - 3, 16843, 1).value.value == 0
    assert counts == {"power_sum_raw": 1}
    records = list(scan.wolstenholme_scan(scan.SieveConfig(16800, 16900),
                                          scan.Criterion.BERNOULLI_BP3))
    assert [r.p for r in records if r.flagged] == [16843]
    assert counts == {"power_sum_raw": 1 + len(records)}
    # 31 | 2^10 - 1, so B_10 mod 31^4 comes off the half identity mod 31^6,
    # divided by 31: one pass at each level, S_9, S_7 and S_5.
    counts.clear()
    assert bernoulli.bernoulli_mod(10, 31, 4).value.value == 601688
    assert counts == {"power_sum_raw": 3}


def test_b0_and_odd_index_reads_make_no_pass(monkeypatch):
    # B_0 = 1 and B_n = 0 at odd n >= 3 come off no sum, at any precision.
    counts = count_kernels(monkeypatch)
    for p in (11, 16843):
        plan = EvaluationPlan(p, SWEEP_REQUESTS)
        for n in (0, 3, p - 2, p - 4, 16843 * 4 + 1):
            for r in (1, 4):
                want = 1 if n == 0 else 0
                assert bernoulli.bernoulli_mod(n, p, r, plan).value.value == want
                assert bernoulli.bernoulli_mod(n, p, r).value.value == want
    assert counts == {}


def test_bernoulli_memo_is_keyed_by_index(monkeypatch):
    # p B_n is held at the highest c computed: a later read at lower c
    # reduces it with no pass, and only a read at higher c makes another.
    # B_(p-3) mod p^3 reads S_(p-4) mod p^3 and, one level down, S_(p-6)
    # mod p; B_(p-3) mod p reads S_(p-4) mod p.
    counts = count_kernels(monkeypatch)
    for p in (11, 101, 16843):
        values = {}
        for order, passes in (((3, 1), [2, 0]), ((1, 3), [1, 2])):
            lone, values[order], made = EvaluationPlan(p), [], []
            for r in order:
                counts.clear()
                values[order].append(bernoulli.bernoulli_mod(p - 3, p, r, lone).value.value)
                made.append(counts["power_sum_raw"])
            assert made == passes, (p, order)
        assert values[3, 1] == values[1, 3][::-1], p


def test_suite_holds_no_plan_after_its_prime():
    # No plan, and no memo of any kind, outlives the prime it served: the
    # registry is built once at import, and no function caches.
    primes = [p for p in range(11, 300) if is_prime(p)]
    assert all(o.passed or o.skipped
               for o in checks.run_suite(checks.all_check_ids(), primes))
    assert checks._suite_plan is None
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, EvaluationPlan)]
    modules = [importlib.import_module(f"wolstenholme.{m.name}")
               for m in pkgutil.iter_modules(wolstenholme.__path__)]
    memos = {f"{module.__name__}.{name}" for module in [wolstenholme, *modules]
             for name, value in vars(module).items() if hasattr(value, "cache_info")}
    assert not memos
