"""Bernoulli engines: exact recurrence, residue path, Kummer machinery.

The exact recurrence is the oracle for the residue path; sympy serves as
an extra third-party cross-check of the recurrence itself.
"""
from fractions import Fraction as Fr
from math import comb

import pytest

from wolstenholme import bernoulli, errors, harmonic
from wolstenholme.bernoulli import (
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_ratio,
    high_index_bernoulli,
    high_index_ratio,
    reduce_high_index,
)
from wolstenholme.harmonic import MOMENT_WINDOW
from wolstenholme.modring import (
    embed_rational, int_valuation, is_prime, make_modulus, valuation,
)
from wolstenholme.plan import SWEEP_REQUESTS, EvaluationPlan

from bernoulli_recursion import p_times_bernoulli

PRIMES_11_97 = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97]


def embed_exact(n: int, p: int, r: int):
    return embed_rational(bernoulli_exact(n).value, make_modulus(p, r))


def test_known_values():
    assert bernoulli_exact(0).value == 1
    assert bernoulli_exact(1).value == Fr(-1, 2)
    assert bernoulli_exact(2).value == Fr(1, 6)
    assert bernoulli_exact(3).value == 0
    assert bernoulli_exact(4).value == Fr(-1, 30)
    assert bernoulli_exact(10).value == Fr(5, 66)
    assert bernoulli_exact(12).value == Fr(-691, 2730)
    assert bernoulli_exact(14).value == Fr(7, 6)


def test_odd_indices_vanish():
    assert all(bernoulli_exact(n).value == 0 for n in range(3, 60, 2))


def test_sign_alternation():
    for n in range(1, 51):
        value = bernoulli_exact(2 * n).value
        assert (-1) ** (n - 1) * value > 0, n


def test_recurrence_against_sympy():
    # sympy >= 1.12 uses the B_1 = +1/2 convention; x/(e^x - 1) gives -1/2,
    # so index 1 is compared by absolute value.
    sympy = pytest.importorskip("sympy")
    for n in list(range(0, 40)) + [60, 106]:
        got = bernoulli_exact(n).value
        want = sympy.Rational(sympy.bernoulli(n))
        want = Fr(int(want.p), int(want.q))
        if n == 1:
            assert abs(got) == abs(want)
        else:
            assert got == want, n


def test_index_cap():
    with pytest.raises(errors.IndexTooLarge):
        bernoulli_exact(401)


def enumerate_vsc(m: int) -> int:
    return int(
        __import__("math").prod(
            d + 1 for d in range(1, m + 1) if m % d == 0 and is_prime(d + 1)))


def test_vsc_examples():
    assert enumerate_vsc(12) == 2730 == bernoulli_exact(12).value.denominator
    assert enumerate_vsc(2) == 6 == bernoulli_exact(2).value.denominator


def test_vsc_matches_exact_denominators():
    for m in range(2, 102, 2):
        assert enumerate_vsc(m) == bernoulli_exact(m).value.denominator, m


def test_bernoulli_mod_examples():
    assert bernoulli_mod(4, 7, 1).value.value == 3
    want = embed_exact(10, 7, 1)
    assert bernoulli_mod(10, 7, 1).value == want
    assert bernoulli_mod(16843 - 3, 16843, 1).value.value == 0


def served(p: int) -> list:
    """The n <= 60 the residue path serves at p: B_0, the odd n >= 3 (zero)
    and every even n at a regular position; B_1 is refused."""
    return [n for n in range(61) if n != 1 and bernoulli.is_regular_position(n, p)]


def test_bernoulli_mod_oracle_grid():
    # every served n <= 60, primes 11..97, r <= 3 (the full stated grid)
    for p in PRIMES_11_97:
        for n in served(p):
            for r in (1, 2, 3):
                assert bernoulli_mod(n, p, r).value == embed_exact(n, p, r), (n, p, r)


def order_of_2_divides() -> list:
    """(n, p) for the primes 7 <= p < 200 where ord_p(2) < p - 1 and the
    even regular n <= 400 with 2^n = 1 (mod p): the reads whose half
    identity is solved mod p^(c+d), d = v_p(2^n - 1) >= 1, and divided by
    p^d."""
    return [(n, p) for p in range(7, 200) if is_prime(p)
            and min(d for d in range(1, p) if pow(2, d, p) == 1) < p - 1
            for n in range(2, 401, 2)
            if pow(2, n, p) == 1 and bernoulli.is_regular_position(n, p)]


def test_bernoulli_mod_r4_grid():
    # r = 4 works the deepest correction terms, including inner indices at
    # irregular positions (e.g. n = 14, p = 11 needs p*B_10 mod 11), every
    # index where 2^n = 1 (mod p) with n <= 400 at p < 200 (d = 2 at
    # (310, 31), as 31 | 2^5 - 1 and 31 | 310), and the Wieferich prime 1093,
    # where 1093^2 | 2^364 - 1, so d = 2 at (364, 1093).
    reads = [(n, p) for p in (11, 13, 17, 19, 23, 29, 31, 97) for n in served(p)]
    for n, p in reads + order_of_2_divides() + [(364, 1093)]:
        assert bernoulli_mod(n, p, 4).value == embed_exact(n, p, 4), (n, p)


def test_lifts_past_the_table_of_2():
    # At the Wieferich prime 1093, d = v_p(2^n - 1) = 2 + k at n = 364 p^k,
    # so B_n mod p^4 comes off the half identity mod p^(7+k), past the table
    # of 2's p^10 from k = 4 on, and each lifted node's chain is evaluated
    # first.  p^k | n and B_n/n is p-integral at a regular n, so B_n mod p^4
    # carries p^min(k, 4).
    p = 1093
    for k in range(6):
        n = 364 * p ** k
        assert int_valuation(pow(2, n, p ** 8) - 1, p) == 2 + k
        got = bernoulli_mod(n, p, 4).value
        assert got.value == p_times_bernoulli(n, EvaluationPlan(p), 5, {}) // p, k
        assert got.valuation() >= min(k, 4), k


def test_lone_read_builds_no_table_of_2():
    # The bp3 criterion's read, p B_(p-3) mod p^2, takes 2^(1-n) by one direct
    # power, not off the table's four powers mod p^10.
    for p in (11, 16843):
        plan = EvaluationPlan(p)
        bernoulli_mod(p - 3, p, 1, plan)
        assert p - 3 in plan.pb and "two" not in vars(plan), p


def test_half_identity_against_exact_rationals(monkeypatch):
    # Every read the moment window serves: at 11 <= p <= 97, every class t
    # at c of MOMENT_WINDOW and every n = j(p-1) + t <= 400, a sweeping
    # plan's B_n mod p^r, r < c, comes off the half identity alone (a direct
    # half pass would raise) and equals the exact rational.
    monkeypatch.setattr(harmonic, "power_sum_raw", None)
    for p in PRIMES_11_97:
        plan = EvaluationPlan(p, SWEEP_REQUESTS)
        for t, c in MOMENT_WINDOW.items():
            for n in range(t % (p - 1), 401, p - 1):
                for r in range(1, c):
                    assert bernoulli_mod(n, p, r, plan).value == embed_exact(n, p, r), \
                        (p, n, r)
        assert "_moments" in vars(plan), p


def test_sweeping_and_direct_plans_agree_at_helou_terjanian_indices():
    # The registry's reads of B_(p^n - p^(n-1) - s), far past the exact
    # oracle, at every prime 11 <= p < 600: off the half identity over the
    # window, and over direct half passes.
    for p in (p for p in range(11, 600) if is_prime(p)):
        sweeping, direct = EvaluationPlan(p, SWEEP_REQUESTS), EvaluationPlan(p)
        for n, r in ((p ** 2 - p - 4, 2), (p ** 3 - p ** 2 - 2, 3),
                     (p ** 4 - p ** 3 - 2, 4), (p ** 4 - p ** 3 - 4, 4)):
            values = {bernoulli_mod(n, p, r, plan).value.value
                      for plan in (sweeping, direct)}
            assert len(values) == 1, (p, n, r)
        assert "_moments" in vars(sweeping) and "_moments" not in vars(direct), p


def test_plan_at_7_sweeps_and_lifts_where_2_to_the_n_is_1():
    # At p = 7, 2^n = 1 (mod p) in the window's class t = -6: a plan told of
    # SWEEP_REQUESTS reads sweeps, and those reads lift past the window to
    # direct half passes, all exact.
    plan = EvaluationPlan(7, SWEEP_REQUESTS)
    for n in range(401):
        if n != 1 and bernoulli.is_regular_position(n, 7):
            for r in range(1, 5):
                assert bernoulli_mod(n, 7, r, plan).value == embed_exact(n, 7, r), (n, r)
    assert plan.sweeps and "_moments" in vars(plan)


def test_bernoulli_mod_odd_and_irregular():
    assert bernoulli_mod(9, 11, 2).value.value == 0
    with pytest.raises(errors.RangeError, match="B_1"):
        bernoulli_mod(1, 11, 1)
    with pytest.raises(errors.IrregularPosition):
        bernoulli_mod(10, 11, 1)
    with pytest.raises(errors.IrregularPosition):
        bernoulli_mod(24, 13, 2)


def test_bernoulli_mod_validation():
    with pytest.raises(errors.NotPrime):
        bernoulli_mod(4, 9, 1)
    with pytest.raises(errors.ExponentOutOfRange, match="exponent r must be in 1..4"):
        bernoulli_mod(4, 11, 5)
    with pytest.raises(errors.IndexTooLarge):
        bernoulli_mod(11 ** 6, 11, 1)


def test_bernoulli_ratio_with_p_in_index():
    # B_14/14 at p = 7: the index is divisible by p but the ratio is integral
    got = bernoulli_ratio(14, 7, 2)
    want = embed_rational(bernoulli_exact(14).value / 14, make_modulus(7, 2))
    assert got == want


def kummer_target(m: int, p: int, r: int) -> int:
    """The least n > r with n = m (mod phi(p^r)), where Kummer's congruence
    B_m/m = B_n/n (mod p^r) moves an index m != 0 (mod p-1)."""
    phi = p ** (r - 1) * (p - 1)
    n = m % phi
    return n + phi if n <= r else n


def kummer_difference(m: int, p: int, r: int):
    """sum((-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)), k=0..r) mod p^r: the r-th
    finite difference that Kummer's congruences make vanish mod p^r."""
    plan = EvaluationPlan(p)
    return sum((-1) ** k * comb(r, k) * bernoulli_ratio(m + k * (p - 1), p, r, plan)
               for k in range(r + 1))


def test_kummer_reduce_examples():
    assert kummer_target(10, 7, 1) == 4
    assert bernoulli_ratio(10, 7, 1).value == 6
    assert bernoulli_ratio(4, 7, 1).value == 6
    # degenerate: small index maps to itself
    assert kummer_target(10, 13, 1) == 10
    with pytest.raises(errors.IrregularPosition):
        bernoulli_ratio(20, 11, 2)


def test_kummer_reduce_certified_transfer():
    # B_m/m = B_n/n mod p^r, source m huge, both sides by the direct path
    cases = [
        (11, 4, 11 ** 4 - 11 ** 3 - 2),
        (13, 3, 13 ** 3 - 13 ** 2 - 4),
        (17, 2, 17 * (17 - 1) + 6),
        (19, 2, 19 ** 2 - 19 - 4),
    ]
    for p, r, m in cases:
        direct = bernoulli_ratio(m, p, r)
        via = bernoulli_ratio(kummer_target(m, p, r), p, r)
        assert direct == via, (p, r, m)


def test_kummer_reduce_random_triples():
    import random

    rng = random.Random(1862)
    done = 0
    while done < 100:
        p = rng.choice(PRIMES_11_97)
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, 4000) * 2
        if m % (p - 1) == 0:
            continue
        lhs = bernoulli_ratio(m, p, r)
        rhs = bernoulli_ratio(kummer_target(m, p, r), p, r)
        assert lhs == rhs, (m, p, r)
        done += 1


def test_kummer_alternating_examples():
    assert kummer_difference(4, 11, 1).valuation() >= 1
    exact = bernoulli_exact(4).value / 4 - bernoulli_exact(14).value / 14
    assert valuation(exact, 11) >= 1
    assert kummer_difference(4, 7, 2).valuation() >= 2
    exact = (bernoulli_exact(4).value / 4 - 2 * bernoulli_exact(10).value / 10
             + bernoulli_exact(16).value / 16)
    assert valuation(exact, 7) >= 2


def test_kummer_alternating_sweep():
    for p in (11, 13, 31, 61):
        for m in (4, 6, 8, 14):
            for r in range(1, min(4, m - 1) + 1):
                if m % (p - 1) == 0:
                    continue
                if any((m + k * (p - 1)) % p == 0 for k in range(r + 1)) and r == 4:
                    continue  # ratio at p | index needs exponent r+1 > cap
                assert kummer_difference(m, p, r).valuation() >= r, (m, p, r)


def test_reduce_high_index_examples():
    assert reduce_high_index(2, 4, 11) == [(2, 6), (-1, 16)]
    pairs = reduce_high_index(4, 2, 11)
    assert [c for c, _ in pairs] == [4, -6, 4, -1]
    assert [i for _, i in pairs] == [8, 18, 28, 38]
    assert reduce_high_index(1, 2, 11) == [(1, 8)]
    with pytest.raises(errors.IrregularPosition):
        reduce_high_index(2, 10, 11)
    with pytest.raises(errors.OddIndex):
        reduce_high_index(2, 3, 11)
    with pytest.raises(errors.RangeError):
        reduce_high_index(2, 12, 11)  # k = 1 gives index -2


def test_high_index_expansion_against_exact_oracle():
    # p = 11, n = 2, s = 4: index 106 is still within the exact oracle
    lhs = bernoulli_exact(106).value / 106
    rhs = (2 * bernoulli_exact(6).value / 6 - bernoulli_exact(16).value / 16)
    modulus = make_modulus(11, 2)
    assert embed_rational(lhs, modulus) == embed_rational(rhs, modulus)
    assert high_index_ratio(2, 4, 11) == embed_rational(lhs, modulus)
    assert high_index_bernoulli(2, 4, 11) == embed_rational(106 * lhs, modulus)


def test_high_index_expansion_exact_at_p7():
    # p = 7 keeps p^3 - p^2 - s inside the exact-oracle range
    lhs = bernoulli_exact(292).value          # 7^3 - 7^2 - 2
    modulus = make_modulus(7, 3)
    assert high_index_bernoulli(3, 2, 7) == embed_rational(lhs, modulus)


def test_high_index_expansion_refuses_p_divisible_index():
    # at p = 7, s = 4, n = 3 the index 14 = 2p appears and the congruence
    # genuinely fails: the exact residual only reaches valuation 1
    lhs = bernoulli_exact(290).value / 290    # 7^3 - 7^2 - 4
    rhs = (3 * bernoulli_exact(2).value / 2
           - 3 * bernoulli_exact(8).value / 8
           + bernoulli_exact(14).value / 14)
    assert valuation(lhs - rhs, 7) == 1
    with pytest.raises(errors.RangeError):
        reduce_high_index(3, 4, 7)


def test_kummer_alternating_across_p_divisible_index():
    # the plain finite-difference congruence survives indices divisible
    # by p (here 14 = 2*7), unlike the combined high-index expansion
    for r in (1, 2, 3):
        assert kummer_difference(8, 7, r).valuation() >= r


def test_high_index_expansion_grid():
    # left side by the direct power-sum route, right side by the expansion
    for p in PRIMES_11_97:
        for n in (2, 3, 4):
            for s in (2, 4):
                big = p ** n - p ** (n - 1) - s
                direct = bernoulli_mod(big, p, n).value
                assert direct == high_index_bernoulli(n, s, p), (p, n, s)
