"""Harmonic-sum engines against exact-rational and brute-force oracles."""
from fractions import Fraction as Fr
from itertools import combinations
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolstenholme import bernoulli, checks, errors, harmonic, scan
from wolstenholme.bernoulli import bernoulli_mod, bernoulli_ratio
from wolstenholme.harmonic import (
    MOMENT_WINDOW,
    _inverse_power_sums_raw,
    _least_prime_factors,
    _moment_sums_raw,
    _pair_power_sums_raw,
    _primitive_root,
    _walk_pair_sums_raw,
    power_sum_raw,
)
from wolstenholme.modring import (
    MAX_EXPONENT, embed_rational, is_prime, make_modulus, valuation,
)
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

from bernoulli_recursion import p_times_bernoulli

PRIMES_100 = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97]


PRIMES_600 = [p for p in range(3, 600) if is_prime(p)]
PRIMES_3000 = [p for p in range(3, 3000) if is_prime(p)]


def reference_half_sum(p: int, n: int, m: int) -> int:
    """S_n = sum of k^n over 1..(p-1)/2, mod m, one powmod per k: the oracle
    for the half-pass kernel and the moment window."""
    return sum(pow(k, n, m) for k in range(1, (p + 1) // 2)) % m


#: t - 1 -> c - 1 over MOMENT_WINDOW: the half sums S_(n-1) mod p^(c-1) that
#: serve the reads p B_n mod p^c, n = t (mod p-1).
HALF_WINDOW = {t - 1: c - 1 for t, c in MOMENT_WINDOW.items()}


def multiplicative_powers(p: int, e: int, m: int) -> list[int]:
    """[1^e, .., (p-1)^e] mod m, a pow per prime k (k -> k^e is completely
    multiplicative; q is the least prime factor of composite k)."""
    lpf = _least_prime_factors(p)
    pw = [0, 1]
    for k in range(2, p):
        q = lpf[k]
        pw.append(pw[q] * pw[k // q] % m if q else pow(k, e, m))
    return pw[1:]


class FermatPowers(EvaluationPlan):
    """A plan whose half sums S_n mod p^c (c <= 5) come from k^n = k^t
    (k^(p-1))^j with k^(p-1) and its p-th, p^2-th and p^3-th powers exact
    mod p^5, and any other from a powmod per k: independent of the truncated
    moment identity, so the oracle for the window.  It serves every half
    sum, so every Bernoulli read, at every p, p = 7 included."""

    def __init__(self, p: int):
        super().__init__(p)
        m, half = p ** 5, (p - 1) // 2
        f = multiplicative_powers(p, p - 1, m)[:half]
        self.fj = {0: [1] * half, 1: f}  # j -> [k^(j(p-1))], the registry's j
        for j in range(2, 6):
            self.fj[j] = [a * b % m for a, b in zip(self.fj[j - 1], f)]
        for j in (p, p ** 2, p ** 3):
            self.fj[j] = multiplicative_powers(p, j * (p - 1), m)[:half]
        ks = range(1, half + 1)
        self.kt = {1: list(ks), 3: [k ** 3 for k in ks]}  # t -> [k^t]
        self.kt[-1] = multiplicative_powers(p, -1, m)[:half]
        for t in (-3, -5, -7):
            self.kt[t] = [a * b * b % m for a, b in zip(self.kt[t + 2], self.kt[-1])]
        self.sums = {}  # (t, j) -> S_(j(p-1)+t), unreduced

    def half_sum(self, n: int, c: int) -> int:
        p = self.p
        t = next((t for t in self.kt if t <= n and (n - t) % (p - 1) == 0), None)
        j = None if t is None else (n - t) // (p - 1)
        if j not in self.fj or c > 5:
            return reference_half_sum(p, n, p ** c)
        if (t, j) not in self.sums:
            self.sums[t, j] = sum(map(mul, self.kt[t], self.fj[j]))
        return self.sums[t, j] % p ** c


def reference_inverse_power_sums(p: int, n_max: int, m: int) -> list[int]:
    """[_, R_1, .., R_n_max] mod m, one inversion per k: the oracle for the
    pair kernel."""
    sums = [0] * (n_max + 1)
    for k in range(1, p):
        iv = pow(k, -1, m)
        x = 1
        for n in range(1, n_max + 1):
            x = x * iv % m
            sums[n] += x
    return [s % m for s in sums]


def registry_indices(p: int) -> set[int]:
    """Every index shape the check registry feeds to the power sums."""
    shapes = {0, 1, 2, p - 3, p - 1, p * (p - 1) + 4, p ** 2 - p - 4,
              p ** 3 - p ** 2 - 2, p ** 4 - p ** 3 - 2, p ** 4 - p ** 3 - 4}
    shapes |= {j * (p - 1) + t for j in range(5) for t in range(-8, 7)}
    return {n for n in shapes if n >= 0}


def exact_r(p: int, n: int) -> Fr:
    return sum(Fr(1, k ** n) for k in range(1, p))


def exact_h(p: int, n: int) -> Fr:
    return sum(Fr(1, prod(sub)) for sub in combinations(range(1, p), n))


def test_power_sum_inverses_examples():
    assert _inverse_power_sums_raw(5, 1, 5 ** 2)[1] == 0
    assert _inverse_power_sums_raw(7, 1, 7 ** 3)[1] == 294
    assert exact_r(7, 1) == Fr(49, 20)
    assert _inverse_power_sums_raw(7, 2, 7)[2] == 0
    assert embed_rational(exact_r(7, 2), make_modulus(7, 1)).value == 0


def test_power_sum_inverses_matches_exact_rationals():
    for p in (5, 7, 11, 13, 23, 47):
        for n in range(1, 7):
            for K in range(1, 9):
                modulus = make_modulus(p, K)
                assert _inverse_power_sums_raw(p, n, modulus.m)[n] == embed_rational(
                    exact_r(p, n), modulus).value, (p, n, K)


def test_inverse_power_sums_match_per_k_sweep():
    for p in [2] + PRIMES_600:
        expected = reference_inverse_power_sums(p, 8, p ** 10)
        for K in range(1, 11):
            m = p ** K
            assert _inverse_power_sums_raw(p, 8, m) == [x % m for x in expected], (p, K)


def test_lifted_r1_sweep_matches_per_k_oracle():
    # R_1 = p T_1 alone reads T_1 mod p^(c-1): off the half walk for c <= 3,
    # off the full-width sweep mod p^(c-1) above.
    for p in PRIMES_600:
        expected = reference_inverse_power_sums(p, 1, p ** 10)[1]
        for c in range(2, 11):
            assert _inverse_power_sums_raw(p, 1, p ** c) == [0, expected % p ** c], (p, c)


def test_full_width_sweep_above_the_digit_boundary():
    # R_2..R_6 mod p^K come off the full-width sweep, every block inverted
    # mod p^K, on either side of 2^15 (16843^2 < 2^30 < 32771^2).
    for p in (16843, 32771):
        expected = reference_inverse_power_sums(p, 6, p ** 10)
        for K in (2, 5, 10):
            m = p ** K
            assert _inverse_power_sums_raw(p, 6, m) == [x % m for x in expected], (p, K)


def test_pair_sweeps_reject_other_moduli():
    # The sweeps read the exponent c off m = p^c, as power_sum_raw does,
    # and the half walk needs an odd prime p, the one case with a
    # primitive root of order p - 1.
    for args in ((11, 3, 2 * 11 ** 2), (11, 1, 11 ** 2 + 1)):
        with pytest.raises(ValueError):
            _pair_power_sums_raw(*args)
    for args in ((11, 1, 11 ** 3 + 1), (11, 4, 12), (2, 1, 6)):
        with pytest.raises(ValueError):
            _inverse_power_sums_raw(*args)
    for p in (1, 2, 9, 561):
        with pytest.raises(ValueError):
            _walk_pair_sums_raw(p)
    with pytest.raises(ValueError):
        _inverse_power_sums_raw(9, 1, 9 ** 3)


def test_primitive_root_search_stops():
    # The least g of order p - 1 at every prime below 3000, by its powers;
    # every other p (even, composite, a Carmichael number, below 3) tries
    # each g < p and raises instead of running on.
    for p in PRIMES_3000:
        g = _primitive_root(p)
        assert len({pow(g, i, p) for i in range(p - 1)}) == p - 1, p
        assert all(len({pow(h, i, p) for i in range(p - 1)}) < p - 1 for h in range(2, g)), p
    for p in (-7, 0, 1, 2, 4, 6, 9, 15, 91, 561, 1105, 2 ** 16):
        with pytest.raises(ValueError):
            _primitive_root(p)


def test_half_walk_matches_per_k_oracles():
    # T_1 mod p^2 = R_1/p and T_3 = -R_6/2 (mod p) from the per-k sweep, at
    # every prime 3 <= p < 3000 (p = 3 and 5 have H = 1 and 2, every
    # p = 1 (mod 4) a fixed point H/2 of the mirror, and p = 3 and 7, where
    # g^6 = 1, the only T_3 != 0) and either side of 2^15.
    for p in PRIMES_3000 + [32749, 32771, 100003]:
        R = reference_inverse_power_sums(p, 6, p ** 3)
        t1, t3 = _walk_pair_sums_raw(p)
        assert p * t1 == R[1] and t3 == -R[6] * pow(2, -1, p) % p, p
        assert _walk_pair_sums_raw(p) == (t1, t3), p


def test_walk_and_moment_sweeps_invert_nothing(monkeypatch):
    # The cor1second and r1p3 scans, the lone gate and the moment sweep
    # make no batch inversion; only the full-width pair sweep does.
    calls = []

    def recording(raw, m, _invert=harmonic._batch_invert_raw):
        calls.append(m)
        return _invert(raw, m)

    monkeypatch.setattr(harmonic, "_batch_invert_raw", recording)
    cfg = scan.SieveConfig(7, 2000)
    for criterion in (scan.Criterion.COR1_SECOND_P7, scan.Criterion.HARMONIC_R1_P3):
        assert not any(r.reason for r in scan.wolstenholme_scan(cfg, criterion))
    for p in (7, 11, 13, 101, 16843):
        _moment_sums_raw(p)
        assert EvaluationPlan(p, gate_alone=True).wolstenholme == (p == 16843)
    assert calls == []
    _pair_power_sums_raw(101, 1, 101 ** 2)
    assert calls == [101 ** 2]


def test_pair_power_sums_match_exact_rationals():
    for p in [3, 5] + PRIMES_100:
        exact = [sum(Fr(1, (k * (p - k)) ** i) for k in range(1, (p + 1) // 2))
                 for i in range(9)]
        for K in (1, 3, 7):
            modulus = make_modulus(p, K)
            T = _pair_power_sums_raw(p, 8, modulus.m)
            for i in range(1, 9):
                assert T[i] == embed_rational(exact[i], modulus).value, (p, K, i)


def test_elementary_symmetric_small_cases():
    plan = EvaluationPlan(5)
    modulus = make_modulus(5, 4)
    assert exact_h(5, 2) == Fr(35, 24)
    assert modulus.residue(plan.H[2]) == embed_rational(Fr(35, 24), modulus)
    assert modulus.residue(plan.H[1]) == modulus.residue(plan.R[1])


def test_elementary_symmetric_matches_subset_enumeration():
    # C(12, 6) = 924 subsets at p = 13
    H = EvaluationPlan(13).H
    modulus = make_modulus(13, 4)
    for n in range(1, 7):
        assert modulus.residue(H[n]) == embed_rational(exact_h(13, n), modulus), n


def test_newton_identity_holds_in_ring():
    # R_n - H_1 R_{n-1} + ... + (-1)^(n-1) H_{n-1} R_1 + (-1)^n n H_n = 0
    for p in PRIMES_100:
        plan = EvaluationPlan(p)
        for K in range(1, 7):
            modulus = make_modulus(p, K)
            R, H = ([None] + [modulus.residue(x) for x in xs[1:]] for xs in (plan.R, plan.H))
            zero = modulus.residue(0)
            for n in range(1, len(H)):
                acc = R[n]
                sign = -1
                for i in range(1, n):
                    acc = acc + sign * H[i] * R[n - i]
                    sign = -sign
                acc = acc + sign * n * H[n]
                assert acc == zero, (p, K, n)


def test_elementary_symmetric_bounds():
    # The plan serves H_n for n <= min(6, p - 2): Newton's recurrence
    # divides by n, so it stops below p, and the pair sweep ends at T_6.
    assert len(EvaluationPlan(5).H) - 1 == 3
    assert len(EvaluationPlan(97).H) - 1 == 6


def test_power_sum_examples():
    # power_sum_raw is the half sum S_n over 1..(p-1)/2.
    assert power_sum_raw(5, 2, 5 ** 2) == 5
    assert power_sum_raw(7, 6, 7) == 3  # (p-1) | n forces (p-1)/2 mod p
    assert power_sum_raw(7, 4, 7) == 0
    assert power_sum_raw(11, 3, 11 ** 5) == sum(k ** 3 for k in range(1, 6)) % 11 ** 5


def test_power_sum_kernel_matches_powmod_loop():
    for p in PRIMES_600:
        for n in registry_indices(p):
            expected = reference_half_sum(p, n, p ** 5)
            for c in range(1, 6):
                assert power_sum_raw(p, n, p ** c) == expected % p ** c, (p, n, c)


def test_c1_level_is_the_power_sum_mod_p():
    # p B_n mod p is von Staudt-Clausen's -[p-1 | n], read off no sum; it is
    # the level-1 solution P_n mod p of the power-sum triangle (n >= 2), and
    # P_n = 2 S_n (mod p) for even n, pairing k with p - k.  The reference
    # recursion's leaf, which the node loop inlines.
    for p in (p for p in PRIMES_600 if p >= 7):
        plan, memo = EvaluationPlan(p), {}
        for n in registry_indices(p):
            if n >= 2 and n % 2 == 0:
                assert p_times_bernoulli(n, plan, 1, memo) == 2 * power_sum_raw(p, n, p) % p, \
                    (p, n)
        assert not memo and not plan.pb


def test_power_sum_kernel_at_16843():
    p = 16843
    assert power_sum_raw(p, p - 5, p ** 5) == reference_half_sum(p, p - 5, p ** 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p for p in PRIMES_600 if p < 400]),
       st.integers(0, 10 ** 12 - 1), st.integers(1, 5))
def test_power_sum_kernel_property(p, n, c):
    assert power_sum_raw(p, n, p ** c) == reference_half_sum(p, n, p ** c)


def record_passes(monkeypatch) -> list:
    """The (n, m) of every direct half pass made from here on."""
    passes, direct = [], harmonic.power_sum_raw

    def recording(p, n, m):
        passes.append((n, m))
        return direct(p, n, m)

    monkeypatch.setattr(harmonic, "power_sum_raw", recording)
    return passes


def test_moment_path_matches_powmod_loop(monkeypatch):
    # Every half-window class t, at j = 0..5, p and p^3 (the j of p^4 - p^3 - 2),
    # read off a sweeping plan at every c it holds, against a powmod per k,
    # with no direct pass.  c = MAX_EXPONENT, the first c above the class's
    # (unless a class of small p holds it) and a read of a plan below
    # SWEEP_REQUESTS take one; below 11, where a class may be keyed below 0
    # and so hold no read, a read takes one unless its key holds c sums.
    passes = record_passes(monkeypatch)
    for p in PRIMES_600:
        plan, lone = EvaluationPlan(p, SWEEP_REQUESTS), EvaluationPlan(p)
        for t, c_held in HALF_WINDOW.items():
            for j in [*range(6), p, p ** 3]:
                n = j * (p - 1) + t
                if n < 1:
                    continue
                expected = reference_half_sum(p, n, p ** MAX_EXPONENT)
                for c in [*range(1, c_held + 2), MAX_EXPONENT]:
                    passes.clear()
                    assert plan.half_sum(n, c) == expected % p ** c, (p, t, j, c)
                    if c == MAX_EXPONENT:
                        assert passes == [(n, p ** c)], (p, t, j, c)
                    elif p < 11:
                        held = len(plan._moments.get(n % (p - 1), ()))
                        assert passes == ([] if c <= held else [(n, p ** c)]), (p, t, j, c)
                    elif c <= c_held:  # past c_held, another class may hold n
                        assert passes == [], (p, t, j, c)
                passes.clear()
                assert lone.half_sum(n, c_held) == expected % p ** c_held, (p, t, j)
                assert passes == [(n, p ** c_held)], (p, t, j)
        assert "_moments" in vars(plan) and "_moments" not in vars(lone), p


def test_moment_window_keys_where_classes_meet():
    # The sweep's classes are MOMENT_WINDOW's t - 1 at c - 1.  Each class
    # t - 1 < 0 is keyed by e = t - 1 + p - 1, which meets a class t' - 1 > 0
    # where p - 1 = t' - t: at 5, 7 and 11 (t = -6 keys 3), not at 13.  The
    # larger c holds, and the keys keep their window order.
    expected = {5: [(1, 4), (-3, 2), (3, 4), (-1, 4)], 7: [(1, 4), (-1, 2), (3, 4)],
                11: [(1, 2), (3, 4), (7, 4), (5, 4)],
                13: [(1, 2), (5, 2), (3, 4), (9, 4), (7, 4)]}
    for p, keys in expected.items():
        assert [(e, len(S)) for e, S in _moment_sums_raw(p).items()] == keys, p
    assert sorted(HALF_WINDOW.items()) == [(-7, 2), (-5, 4), (-3, 4), (1, 2), (3, 4)]


def test_packed_sweep_at_wide_primes():
    # The sweep packs its classes into slots of (2 top + 4) bits per bit of
    # p, a width that steps at 2^15; a slot that carried would spoil these
    # reads of every class at its c and j < c, against a powmod per k.
    for p in (16843, 32749, 32771):
        plan = EvaluationPlan(p, SWEEP_REQUESTS)
        for t, c in HALF_WINDOW.items():
            for j in range(c):
                n = j * (p - 1) + t
                if n >= 1:
                    assert plan.half_sum(n, c) == reference_half_sum(p, n, p ** c), (p, t, j)


def test_helou_terjanian_reads_match_direct_passes(monkeypatch):
    # Where p^(c-2) divides j (c >= 2), the half sum S_(n-1) mod p^(c-1)
    # behind p B_n mod p^c, n = j(p-1) + t, -6 <= t < 0, is one direct pass
    # whose exponent Euler's theorem cuts to t - 1 mod p - 1, below p in
    # size, not (c-1) log p bits, and agrees with a powmod per k at the full
    # exponent.
    exponents, powers = [], harmonic._powers

    def recording(p, e, m):
        exponents.append(e)
        return powers(p, e, m)

    monkeypatch.setattr(harmonic, "_powers", recording)
    for p in (p for p in PRIMES_600 if p >= 11):
        plan = EvaluationPlan(p)
        for n in (n for n in registry_indices(p) if n > 5 * (p - 1)):
            j, t = divmod(n + 6, p - 1)
            t -= 6
            for c in range(2, 6):
                exponents.clear()
                m = p ** (c - 1)
                assert plan.half_sum(n - 1, c - 1) == reference_half_sum(p, n - 1, m), \
                    (p, n, c)
                assert len(exponents) == 1, (p, n, c)
                if t < 0 and j % p ** (c - 2) == 0:
                    e, = exponents
                    assert (e - t + 1) % (p - 1) == 0 and abs(e) < p, (p, n, c, e)


def test_power_sum_rejects_other_moduli():
    with pytest.raises(ValueError):
        power_sum_raw(11, 4, 2 * 11 ** 2)


def ratio_terms(p: int) -> set:
    """(index, exponent) of the registry's B_n/n terms at p: Kummer's eqs.
    10-11 and both eq. 26 rows."""
    ratio = {(4 + k * (p - 1), 4) for k in range(3)}
    ratio |= {(p * (p - 1) + 4, 4), (p ** 2 - p - 4, 2), (p ** 4 - p ** 3 - 2, 4)}
    ratio |= {(k * (p - 1) - 2, 4) for k in (1, 2, 3, 4)}
    ratio |= {(k * (p - 1) - 4, 2) for k in (1, 2)}
    return ratio


def registry_bernoulli_calls(p: int) -> set:
    """(bernoulli_mod, index, exponent) of every Bernoulli read the check
    registry makes at a Wolstenholme prime p, B_n/n terms included; at any
    other prime it makes a subset of them."""
    mod = {(p - 3, 1), (p - 3, 3), (p - 3, 4), (p - 5, 1), (p - 5, 2),
           (2 * p - 4, 4), (2 * p - 6, 2), (3 * p - 5, 4), (4 * p - 6, 4)}
    mod |= {(p ** 2 - p - 4, 2), (p ** 3 - p ** 2 - 2, 3),
            (p ** 4 - p ** 3 - 2, 4), (p ** 4 - p ** 3 - 4, 4)}
    return {(bernoulli_mod, n, r) for n, r in mod | ratio_terms(p)}


def recorded_bernoulli_calls(p: int, monkeypatch) -> set:
    """The suite's Bernoulli reads at p: a row's read of p B_n mod p^c as
    (bernoulli_mod, n, c - 1), the B_n mod p^(c-1) it divides out, and every
    bernoulli_ratio call."""
    calls = set()
    read = checks._p_times_bernoulli_reads

    def reading(reads, plan):
        got = read(reads, plan)
        calls.update((bernoulli_mod, n, c - 1) for n, c, _ in got)
        return got

    def recording(fn):
        def wrapper(n, q, r, plan=None):
            calls.add((fn, n, r))
            return fn(n, q, r, plan)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_p_times_bernoulli_reads", reading)
        for module, name in ((checks, "bernoulli_ratio"), (bernoulli, "bernoulli_ratio")):
            patch.setattr(module, name, recording(getattr(module, name)))
        list(checks.run_suite(checks.all_check_ids(), [p]))
    return calls


def test_registry_bernoulli_calls_are_listed(monkeypatch):
    assert recorded_bernoulli_calls(16843, monkeypatch) == registry_bernoulli_calls(16843)
    for p in (11, 13, 101):
        assert recorded_bernoulli_calls(p, monkeypatch) <= registry_bernoulli_calls(p), p


def test_registry_power_sums_fill_the_window(monkeypatch):
    # At 16843 the registry's half-sum requests, by class t and largest c,
    # are the half window exactly: nothing outside it (every read is served
    # off the window, and no direct pass is made), nothing in it unused.
    p, needed = 16843, {}
    original = EvaluationPlan.half_sum

    def recording(plan, n, c):
        t = (n + 8) % (p - 1) - 8
        needed[t] = max(needed.get(t, 0), c)
        return original(plan, n, c)

    monkeypatch.setattr(EvaluationPlan, "half_sum", recording)
    monkeypatch.setattr(harmonic, "power_sum_raw", None)  # a pass errs the record
    assert all(o.passed or o.skipped for o in checks.run_suite(checks.all_check_ids(), [p]))
    assert needed == HALF_WINDOW


def bernoulli_values(plan: EvaluationPlan) -> dict:
    """Every registry Bernoulli read at plan.p through plan, and bernoulli_ratio
    at each B_n/n term's (n, r): int or error type."""
    out = {}
    ratio = {(bernoulli_ratio, n, r) for n, r in ratio_terms(plan.p)}
    for fn, n, r in registry_bernoulli_calls(plan.p) | ratio:
        try:
            value = fn(n, plan.p, r, plan)
        except errors.WolstenholmeError as exc:
            out[fn.__name__, n, r] = type(exc)
        else:
            out[fn.__name__, n, r] = int(value.value if fn is bernoulli_mod else value)
    return out


def test_window_agrees_with_fermat_powers_below_700():
    # From p = 7, where 2^n = 1 (mod 7) at t = -6 and those reads lift past
    # the window, and 11, where the classes -7 and 3 meet.
    for p in range(7, 700):
        if is_prime(p):
            plan = EvaluationPlan(p, SWEEP_REQUESTS)
            assert bernoulli_values(plan) == bernoulli_values(FermatPowers(p)), p
            assert "_moments" in vars(plan), p


@pytest.mark.slow
def test_window_agrees_with_fermat_powers_below_2e4():
    for p in range(11, 20000):
        if is_prime(p):
            plan = EvaluationPlan(p, SWEEP_REQUESTS)
            assert bernoulli_values(plan) == bernoulli_values(FermatPowers(p)), p
            assert "_moments" in vars(plan), p


def wolstenholme_quotient(p: int) -> int:
    """w_p in [0, p^2): R_1 mod p^4, divided by p^2, reduced mod p^2."""
    return _inverse_power_sums_raw(p, 1, p ** 4)[1] // p ** 2 % p ** 2


def test_wolstenholme_quotient_examples():
    assert wolstenholme_quotient(7) == 27
    assert wolstenholme_quotient(5) == 23
    # 1/20 mod 49 and 1/12 mod 25, from the exact fractions
    assert 20 * 27 % 49 == 1
    assert 12 * 23 % 25 == 1


def test_wolstenholme_quotient_vanishes_at_wolstenholme_prime():
    assert wolstenholme_quotient(16843) % 16843 == 0


def test_wolstenholme_quotient_rejects_p3():
    # R_1(3) = 3/2: p^2 does not divide it, so w_p needs p >= 5
    assert _inverse_power_sums_raw(3, 1, 3 ** 4)[1] % 3 ** 2 != 0


def euler_index_check(p: int, n: int, e: int) -> bool:
    """Identity sum(1/k^(phi(p^e)-n), k <= (p-1)/2) = S_n in Z/p^e Z
    (Euler's theorem), with the one large power summed as powmods of
    1/k = (p-k) v over the pair inverses v = 1/(k(p-k)), each inverted on
    its own."""
    phi, m = p ** (e - 1) * (p - 1), p ** e
    r = 0
    for k in range(1, (p + 1) // 2):
        v = pow(k * (p - k), -1, m)
        r += pow((p - k) * v % m, phi - n, m)
    return r % m == power_sum_raw(p, n, m)


def test_euler_index_shortcut():
    for p, n, e in ((7, 3, 4), (11, 2, 3), (13, 5, 2), (31, 4, 3)):
        assert euler_index_check(p, n, e)


def test_valuation_pattern_r():
    # odd n <= p-3 gives v >= 2; even n <= p-3 gives v >= 1
    for p in PRIMES_100:
        for n in range(1, min(6, p - 3) + 1):
            v = valuation(exact_r(p, n), p)
            assert v >= (2 if n % 2 else 1), (p, n, v)


def test_valuation_pattern_h():
    for p in PRIMES_100[:8]:
        for n in range(1, min(6, p - 3) + 1):
            v = valuation(exact_h(p, n), p)
            assert v >= (2 if n % 2 else 1), (p, n, v)


def test_h_at_p_minus_2_breaks_the_odd_pattern():
    # H_{p-2}(7) = 7/240: valuation exactly 1, which is why the odd-index
    # bound stops at p-3.
    assert exact_h(7, 5) == Fr(7, 240)
    assert valuation(exact_h(7, 5), 7) == 1


def test_two_r1_plus_p_r2_telescopes():
    # 2 R_1 = -sum(p^i R_{i+1}, i=1..r) mod p^(r+1), exact rational check
    for p in (7, 11, 13, 37):
        for r in range(1, 6):
            resid = 2 * exact_r(p, 1) + sum(
                p ** i * exact_r(p, i + 1) for i in range(1, r + 1))
            assert valuation(resid, p) >= r + 1, (p, r)
