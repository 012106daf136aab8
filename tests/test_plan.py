"""The per-prime evaluation plan: its products and gate against the product
kernel, the sweeps and passes it makes, and what it leaves behind."""
import gc
import importlib
import pkgutil
from collections import Counter

import pytest

import wolstenholme
from wolstenholme import bernoulli, binomial, checks, harmonic, scan
from wolstenholme.binomial import _shifted_product_raw
from wolstenholme.modring import is_prime
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

PRIMES_5_3000 = [p for p in range(5, 3000) if is_prime(p)]


def assert_products_match(plan, exponents):
    p = plan.p
    for K in exponents:
        m = p ** K
        assert plan.central(K).value == _shifted_product_raw(p, 1, m), (p, K)
        assert plan.granville(K).value == _shifted_product_raw(p, 2, m), (p, K)


def test_pair_products_match_shifted_products():
    # C(2p-1, p-1) and C(3p, 2p)/3 read off T_1..T_4 equal the product form,
    # also at 16843, the one prime whose expansions the suite evaluates.
    for p in PRIMES_5_3000 + [16843]:
        assert_products_match(EvaluationPlan(p), (4, 7, 10))


@pytest.mark.stretch
def test_pair_products_match_shifted_products_at_2124679():
    plan = EvaluationPlan(2124679)
    assert_products_match(plan, (4, 7, plan.top))
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
    # One sweep of T_1 per prime for the gate, and no product, where every
    # prime fails it.
    counts = count_kernels(monkeypatch)
    ids = [c.id for c in checks.registry() if c.scope is checks.Scope.WOLSTENHOLME_ONLY]
    primes = [p for p in range(11, 200) if is_prime(p)]
    assert all(o.skipped for o in checks.run_suite(ids, primes))
    assert counts == {"_pair_power_sums_raw": len(primes)}
    # At a Wolstenholme prime the full sweeps follow the gate's.
    counts.clear()
    assert all(o.passed for o in checks.run_suite(ids, [16843]))
    assert counts == {"_pair_power_sums_raw": 2, "_moment_sums_raw": 1}


def test_few_window_reads_take_direct_passes(monkeypatch):
    # lehmer_p3 reads P_(p-3) and P_(p-5): two passes beat one sweep.  The
    # reads of cor2_p7 count only where the gate lets it evaluate, and with
    # them the pair declares 6 < SWEEP_REQUESTS reads even at 16843: five
    # passes, as both checks read p B_(p-5) mod p^2 and the plan holds it.
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
    assert counts == {"_pair_power_sums_raw": 1, "power_sum_raw": 5}


def test_declared_window_reads_are_made(monkeypatch):
    # Each check's declared window reads, the plan's sweep-or-pass input,
    # are the reads its evaluator makes on a plan of its own.
    counts = count_kernels(monkeypatch)
    for p in (11, 101, 1009):
        for check in checks.registry():
            if check.max_prime is None or p <= check.max_prime:
                counts.clear()
                check.evaluator(EvaluationPlan(p))
                assert counts["power_sum_raw"] == check.window, (check.id, p)
    assert sum(c.window for c in checks.registry()) >= SWEEP_REQUESTS


def test_lone_bernoulli_requests_take_direct_passes(monkeypatch):
    counts = count_kernels(monkeypatch)
    assert bernoulli.bernoulli_mod(16843 - 3, 16843, 1).value.value == 0
    assert counts == {"power_sum_raw": 1}
    records = list(scan.wolstenholme_scan(scan.SieveConfig(16800, 16900),
                                          scan.Criterion.BERNOULLI_BP3))
    assert [r.p for r in records if r.flagged] == [16843]
    assert counts == {"power_sum_raw": 1 + len(records)}


def test_bernoulli_memo_is_keyed_by_index(monkeypatch):
    # p B_n is held at the highest c computed: a later read at lower c
    # reduces it with no pass, and only a read at higher c makes another.
    # B_(p-3) mod p^3 reads P_(p-3) mod p^4 and, one level down, P_(p-5);
    # B_(p-3) mod p reads P_(p-3) mod p^2.
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
