"""Harmonic-sum engines against exact-rational and brute-force oracles."""
from fractions import Fraction as Fr
from itertools import combinations
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolstenholme import bernoulli, checks, errors
from wolstenholme.bernoulli import bernoulli_mod, bernoulli_ratio
from wolstenholme.harmonic import (
    MOMENT_WINDOW,
    _inverse_power_sums_raw,
    _pair_inverses,
    _least_prime_factors,
    _pair_power_sums_raw,
    elementary_symmetric,
    power_sum,
    power_sum_inverses,
    power_sum_raw,
    wolstenholme_quotient,
)
from wolstenholme.modring import embed_rational, is_prime, make_modulus, valuation
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

PRIMES_100 = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97]


PRIMES_600 = [p for p in range(3, 600) if is_prime(p)]


def reference_power_sum(p: int, n: int, m: int) -> int:
    """P_n(p) mod m, one powmod per k: the oracle for the sieve kernel."""
    return sum(pow(k, n, m) for k in range(1, p)) % m


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
    """A plan whose P_n mod p^c (c <= 5) come from k^n = k^t (k^(p-1))^j
    with k^(p-1) and its p-th, p^2-th and p^3-th powers exact mod p^5:
    independent of the truncated moment identity, so the oracle for the
    window."""

    def __init__(self, p: int):
        super().__init__(p)
        m = p ** 5
        f = multiplicative_powers(p, p - 1, m)
        self.fj = {0: [1] * (p - 1), 1: f}  # j -> [k^(j(p-1))], the registry's j
        for j in range(2, 6):
            self.fj[j] = [a * b % m for a, b in zip(self.fj[j - 1], f)]
        for j in (p, p ** 2, p ** 3):
            self.fj[j] = multiplicative_powers(p, j * (p - 1), m)
        self.kt = {0: self.fj[0], 2: [k * k for k in range(1, p)]}  # t -> [k^t]
        self.kt[4] = [x * x for x in self.kt[2]]
        self.kt[-2] = multiplicative_powers(p, -2, m)
        for t in (-4, -6, -8):
            self.kt[t] = [a * b % m for a, b in zip(self.kt[t + 2], self.kt[-2])]
        self.sums = {}  # (t, j) -> P_(j(p-1)+t), unreduced

    def window_sum(self, n: int, c: int) -> int:
        p = self.p
        t = next((t for t in self.kt if t <= n and (n - t) % (p - 1) == 0), None)
        j = None if t is None else (n - t) // (p - 1)
        if j not in self.fj or c > 5:
            return reference_power_sum(p, n, p ** c)
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
    """Every index shape the check registry feeds to P_n."""
    shapes = {0, 1, 2, p - 3, p - 1, p * (p - 1) + 4, p ** 2 - p - 4,
              p ** 3 - p ** 2 - 2, p ** 4 - p ** 3 - 2, p ** 4 - p ** 3 - 4}
    shapes |= {j * (p - 1) + t for j in range(5) for t in range(-8, 7)}
    return {n for n in shapes if n >= 0}


def exact_r(p: int, n: int) -> Fr:
    return sum(Fr(1, k ** n) for k in range(1, p))


def exact_h(p: int, n: int) -> Fr:
    return sum(Fr(1, prod(sub)) for sub in combinations(range(1, p), n))


def test_power_sum_inverses_examples():
    assert power_sum_inverses(5, 1, 2).value == 0
    assert power_sum_inverses(7, 1, 3).value == 294
    assert exact_r(7, 1) == Fr(49, 20)
    assert power_sum_inverses(7, 2, 1).value == 0
    assert embed_rational(exact_r(7, 2), make_modulus(7, 1)).value == 0


def test_power_sum_inverses_matches_exact_rationals():
    for p in (5, 7, 11, 13, 23, 47):
        for n in range(1, 7):
            for K in range(1, 9):
                modulus = make_modulus(p, K)
                assert power_sum_inverses(p, n, K) == embed_rational(
                    exact_r(p, n), modulus), (p, n, K)


def test_inverse_power_sums_match_per_k_sweep():
    for p in [2] + PRIMES_600:
        expected = reference_inverse_power_sums(p, 8, p ** 10)
        for K in range(1, 11):
            m = p ** K
            assert _inverse_power_sums_raw(p, 8, m) == [x % m for x in expected], (p, K)


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
    profile = elementary_symmetric(5, 2, 4)
    modulus = make_modulus(5, 4)
    assert exact_h(5, 2) == Fr(35, 24)
    assert profile.H[2] == embed_rational(Fr(35, 24), modulus)
    assert profile.H[1] == profile.R[1]


def test_elementary_symmetric_matches_subset_enumeration():
    # C(12, 6) = 924 subsets at p = 13
    profile = elementary_symmetric(13, 6, 4)
    modulus = make_modulus(13, 4)
    for n in range(1, 7):
        assert profile.H[n] == embed_rational(exact_h(13, n), modulus), n


def test_newton_identity_holds_in_ring():
    # R_n - H_1 R_{n-1} + ... + (-1)^(n-1) H_{n-1} R_1 + (-1)^n n H_n = 0
    for p in PRIMES_100:
        for K in range(1, 7):
            profile = elementary_symmetric(p, min(6, p - 2), K)
            zero = make_modulus(p, K).residue(0)
            for n in range(1, profile.n_max + 1):
                acc = profile.R[n]
                sign = -1
                for i in range(1, n):
                    acc = acc + sign * profile.H[i] * profile.R[n - i]
                    sign = -sign
                acc = acc + sign * n * profile.H[n]
                assert acc == zero, (p, K, n)


def test_elementary_symmetric_bounds():
    with pytest.raises(errors.NMaxTooLarge):
        elementary_symmetric(5, 4, 2)
    with pytest.raises(errors.NMaxTooLarge):
        elementary_symmetric(97, 9, 2)


def test_power_sum_examples():
    assert power_sum(5, 2, 2).value == 5
    assert power_sum(7, 6, 1).value == 6  # (p-1) | n forces -1 mod p
    assert power_sum(7, 4, 1).value == 0
    assert power_sum(11, 3, 5).value == sum(k ** 3 for k in range(1, 11)) % 11 ** 5


def test_power_sum_kernel_matches_powmod_loop():
    for p in PRIMES_600:
        for n in registry_indices(p):
            expected = reference_power_sum(p, n, p ** 5)
            for c in range(1, 6):
                assert power_sum_raw(p, n, p ** c) == expected % p ** c, (p, n, c)


def test_c1_level_is_the_power_sum_mod_p():
    # p B_n mod p is von Staudt-Clausen's -[p-1 | n], read off no sum; it is
    # the level-1 solution P_n mod p of the power-sum triangle (n >= 2).
    for p in (p for p in PRIMES_600 if p >= 7):
        plan = EvaluationPlan(p)
        for n in registry_indices(p):
            if n >= 2 and n % 2 == 0:
                assert bernoulli._p_times_bernoulli(n, plan, 1) == power_sum_raw(p, n, p), (p, n)
        assert not plan.pb


def test_power_sum_kernel_at_16843():
    p = 16843
    assert power_sum_raw(p, p - 5, p ** 5) == reference_power_sum(p, p - 5, p ** 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([p for p in PRIMES_600 if p < 400]),
       st.integers(0, 10 ** 12 - 1), st.integers(1, 5))
def test_power_sum_kernel_property(p, n, c):
    assert power_sum_raw(p, n, p ** c) == reference_power_sum(p, n, p ** c)


def test_moment_path_matches_powmod_loop():
    # Every window class t, at j = 0..5, p and p^3 (the j of p^4 - p^3 - 2),
    # read off a sweeping plan's window at every c it holds (the other
    # c <= 5 are in test_power_sum_kernel_property).  c = max_exponent(p),
    # the first c above the class's (unless a class of small p holds it),
    # and any read of a plan below SWEEP_REQUESTS are left to a direct pass.
    for p in PRIMES_600:
        plan, lone = EvaluationPlan(p, SWEEP_REQUESTS), EvaluationPlan(p)
        for t, c_held in MOMENT_WINDOW.items():
            for j in [*range(6), p, p ** 3]:
                n = j * (p - 1) + t
                if n < 1:
                    continue
                expected = reference_power_sum(p, n, p ** (c_held + 1))
                for c in range(1, c_held + 2):
                    got = plan.window_sum(n, c)  # past c_held, another class may hold n
                    assert got == expected % p ** c or got is None and c > c_held, \
                        (p, t, j, c)
                    assert lone.window_sum(n, c) is None
                assert plan.window_sum(n, plan.top) is None
        assert "_moments" in vars(plan) and "_moments" not in vars(lone), p


def test_power_sum_rejects_other_moduli():
    with pytest.raises(ValueError):
        power_sum_raw(11, 4, 2 * 11 ** 2)


def registry_bernoulli_calls(p: int) -> set:
    """(function, index, exponent) of every bernoulli_mod / bernoulli_ratio
    call the check registry makes at a Wolstenholme prime p; at any other
    prime it makes a subset of them."""
    mod = {(p - 3, 1), (p - 3, 3), (p - 3, 4), (p - 5, 1), (p - 5, 2),
           (2 * p - 4, 4), (2 * p - 6, 2), (3 * p - 5, 4), (4 * p - 6, 4)}
    mod |= {(p ** 2 - p - 4, 2), (p ** 3 - p ** 2 - 2, 3),
            (p ** 4 - p ** 3 - 2, 4), (p ** 4 - p ** 3 - 4, 4)}
    ratio = {(4 + k * (p - 1), 4) for k in range(3)}
    ratio |= {(p * (p - 1) + 4, 4), (p ** 2 - p - 4, 2), (p ** 4 - p ** 3 - 2, 4)}
    ratio |= {(k * (p - 1) - 2, 4) for k in (1, 2, 3, 4)}
    ratio |= {(k * (p - 1) - 4, 2) for k in (1, 2)}
    return ({(bernoulli_mod, n, r) for n, r in mod}
            | {(bernoulli_ratio, n, r) for n, r in ratio})


def recorded_bernoulli_calls(p: int, monkeypatch) -> set:
    calls = set()

    def recording(fn):
        def wrapper(n, q, r, plan=None):
            calls.add((fn, n, r))
            return fn(n, q, r, plan)
        return wrapper

    with monkeypatch.context() as patch:
        for module, name in ((checks, "bernoulli_mod"), (checks, "bernoulli_ratio"),
                             (bernoulli, "bernoulli_ratio")):
            patch.setattr(module, name, recording(getattr(module, name)))
        list(checks.run_suite(checks.all_check_ids(), [p]))
    return calls


def test_registry_bernoulli_calls_are_listed(monkeypatch):
    assert recorded_bernoulli_calls(16843, monkeypatch) == registry_bernoulli_calls(16843)
    for p in (11, 13, 101):
        assert recorded_bernoulli_calls(p, monkeypatch) <= registry_bernoulli_calls(p), p


def test_registry_power_sums_fill_the_window(monkeypatch):
    # At 16843 the registry's P_n requests, by class t and largest c, are
    # the window exactly: nothing outside it, nothing in it unused.
    p, needed = 16843, {}
    original = EvaluationPlan.window_sum

    def recording(plan, n, c):
        t = (n + 8) % (p - 1) - 8
        needed[t] = max(needed.get(t, 0), c)
        return original(plan, n, c)

    monkeypatch.setattr(EvaluationPlan, "window_sum", recording)
    list(checks.run_suite(checks.all_check_ids(), [p]))
    assert needed == MOMENT_WINDOW


def bernoulli_values(plan: EvaluationPlan) -> dict:
    """Every registry Bernoulli call at plan.p through plan: int or error type."""
    out = {}
    for fn, n, r in registry_bernoulli_calls(plan.p):
        try:
            value = fn(n, plan.p, r, plan)
        except errors.WolstenholmeError as exc:
            out[fn.__name__, n, r] = type(exc)
        else:
            out[fn.__name__, n, r] = int(value.value if fn is bernoulli_mod else value)
    return out


@pytest.mark.slow
def test_window_agrees_with_fermat_powers_below_2e4():
    for p in range(11, 20000):
        if is_prime(p):
            plan = EvaluationPlan(p, SWEEP_REQUESTS)
            assert bernoulli_values(plan) == bernoulli_values(FermatPowers(p)), p
            assert "_moments" in vars(plan), p


def test_wolstenholme_quotient_examples():
    assert wolstenholme_quotient(7).w == 27
    assert wolstenholme_quotient(5).w == 23
    # 1/20 mod 49 and 1/12 mod 25, from the exact fractions
    assert 20 * 27 % 49 == 1
    assert 12 * 23 % 25 == 1


def test_wolstenholme_quotient_vanishes_at_wolstenholme_prime():
    assert wolstenholme_quotient(16843).w % 16843 == 0


def test_wolstenholme_quotient_rejects_p3():
    with pytest.raises(errors.DivisionNotExact):
        wolstenholme_quotient(3)


def euler_index_check(p: int, n: int, e: int) -> bool:
    """Identity R_{phi(p^e)-n} = P_n in Z/p^e Z (Euler's theorem), with R_N
    for the one large N summed as powmods of 1/k = (p-k) v and
    1/(p-k) = k v over the pair inverses v = 1/(k(p-k))."""
    phi, m = p ** (e - 1) * (p - 1), p ** e
    r = sum(pow((p - k) * v % m, phi - n, m) + pow(k * v % m, phi - n, m)
            for ks, vs in _pair_inverses(p, m) for k, v in zip(ks, vs))
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
