"""Residue-ring unit tests: frozen examples plus property checks."""
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wolstenholme import errors
from wolstenholme.modring import (
    MR_DETERMINISTIC_BOUND,
    _batch_invert_raw,
    embed_rational,
    inverse,
    is_prime,
    make_modulus,
    valuation,
)
from wolstenholme.plan import EvaluationPlan


def brute_force_inverse(a: int, m: int) -> int:
    return next(b for b in range(m) if a * b % m == 1)


def xgcd_inverse(a: int, m: int) -> int:
    old_r, r = a, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % m


def test_make_modulus_small():
    modulus = make_modulus(5, 3)
    assert (modulus.p, modulus.k, modulus.m) == (5, 3, 125)


def test_make_modulus_wide():
    assert make_modulus(16843, 8).m == 16843 ** 8


def test_make_modulus_rejects_composite():
    with pytest.raises(errors.NotPrime):
        make_modulus(6, 2)


def test_make_modulus_exponent_range():
    with pytest.raises(errors.ExponentOutOfRange):
        make_modulus(5, 0)
    with pytest.raises(errors.ExponentOutOfRange):
        make_modulus(5, 11)


def test_make_modulus_has_no_width_limit():
    # p^10 is served at every prime, past 2^200 too (33554467^8 is 201 bits).
    assert make_modulus(2124679, 10).m == 2124679 ** 10
    assert EvaluationPlan(33554467).modulus(10).m == 33554467 ** 10


def test_plan_builds_each_modulus_on_first_use():
    # A plan builds Z/p^k Z when it is first asked for and serves the same
    # one after; outside 1..10 it refuses through make_modulus, every time.
    plan = EvaluationPlan(101)
    assert plan.moduli == {} and plan.m == 101 ** 10
    M = plan.modulus(3)
    assert M == make_modulus(101, 3) and plan.modulus(3) is M
    assert list(plan.moduli) == [3]
    for k in (0, 11, 0):
        with pytest.raises(errors.ExponentOutOfRange):
            plan.modulus(k)
    assert list(plan.moduli) == [3]


def test_is_prime_deterministic_witnesses():
    assert [n for n in range(2, 60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2124679)
    assert not is_prime(16843 * 2124679)


def test_is_prime_rejects_psi12():
    # the least strong pseudoprime to the first 12 primes; witness 41 catches it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    with pytest.raises(errors.NotPrime):
        make_modulus(psi12, 1)


def test_is_prime_refuses_above_deterministic_bound():
    # psi13 passes all 13 witnesses; so does the Mersenne prime 2^89 - 1
    psi13 = 3317044064679887385961981
    assert psi13 == MR_DETERMINISTIC_BOUND
    with pytest.raises(errors.PrimalityUndecided):
        is_prime(psi13)
    with pytest.raises(errors.PrimalityUndecided):
        make_modulus(2 ** 89 - 1, 2)
    # a failing witness still proves compositeness above the bound
    assert not is_prime(psi13 + 2)
    assert not is_prime((2 ** 89 - 1) * 3)
    # the largest prime below the bound is still decided
    assert is_prime(3317044064679887385961813)


def test_inverse_examples():
    assert inverse(make_modulus(7, 2).residue(2)).value == brute_force_inverse(2, 49) == 25
    assert inverse(make_modulus(7, 3).residue(20)).value == xgcd_inverse(20, 343) == 223
    with pytest.raises(errors.NotInvertible):
        inverse(make_modulus(7, 2).residue(7))


def test_embed_rational_examples():
    m25 = make_modulus(5, 2)
    assert embed_rational(Fr(2, 3), m25).value == 2 * xgcd_inverse(3, 25) % 25 == 9
    assert embed_rational(Fr(25, 12), m25).value == 0
    with pytest.raises(errors.DenominatorNotCoprime):
        embed_rational(Fr(1, 5), make_modulus(5, 3))


def test_valuation_examples():
    assert valuation(Fr(343, 180), 7) == 3
    assert valuation(Fr(25, 12), 5) == 2
    assert valuation(Fr(4, 9), 3) == -2
    assert valuation(0, 5) == float("inf")
    assert valuation(Fr(0), 7) == float("inf")


def test_batch_inverses_examples():
    assert _batch_invert_raw([1, 2, 3, 4], 25) == [1, 13, 17, 19]
    assert [pow(x, -1, 25) for x in (1, 2, 3, 4)] == [1, 13, 17, 19]
    assert _batch_invert_raw([1], 49) == [1]
    with pytest.raises(ValueError):  # one non-unit spoils the one inversion
        _batch_invert_raw([2, 7], 49)


def test_batch_inverses_matches_elementwise():
    m = 101 ** 4
    values = list(range(1, 101))
    for x, b in zip(values, _batch_invert_raw(values, m)):
        assert b == pow(x, -1, m)


def test_mixed_modulus_rejected():
    a = make_modulus(5, 2).residue(3)
    b = make_modulus(5, 3).residue(3)
    with pytest.raises(errors.ModulusMismatch):
        _ = a + b
    for op in (lambda: a - b, lambda: b - a, lambda: a * b):
        with pytest.raises(errors.ModulusMismatch):
            op()


def test_residue_arithmetic_with_ints_and_fractions():
    modulus = make_modulus(7, 3)
    r = modulus.residue(10)
    assert (1 + r).value == 11
    assert (r - 12).value == (10 - 12) % 343
    assert (12 - r).value == 2
    assert (Fr(1, 2) - r).value == (172 - 10) % 343
    assert (Fr(1, 2) * r).value == 5
    assert (r ** -2) * r ** 2 == 1
    assert (-r).value == 343 - 10
    assert int(r) == 10
    assert r == 10 and r != 11
    for bad in (lambda: r + "x", lambda: "x" + r, lambda: r - [], lambda: r * 1.5,
                lambda: 1.5 * r):
        with pytest.raises(TypeError):
            bad()


def test_reduce_compatibility():
    wide = make_modulus(7, 5)
    for x in (0, 1, 5, 16806, 7 ** 5 - 1, 123456):
        r = wide.residue(x)
        for j in range(1, 6):
            lower = make_modulus(7, j)
            assert lower.residue(r.value) == lower.residue(x)


def test_residue_valuation_caps():
    modulus = make_modulus(5, 4)
    assert modulus.residue(0).valuation() == 4
    assert modulus.residue(50).valuation() == 2
    assert modulus.residue(3).valuation() == 0


_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=500
).filter(lambda q: q.denominator % 7 != 0)


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals)
def test_embed_is_ring_homomorphism(q1, q2):
    modulus = make_modulus(7, 4)
    e = lambda q: embed_rational(q, modulus)
    assert e(q1 + q2) == e(q1) + e(q2)
    assert e(q1 - q2) == e(q1) - e(q2) == q1 - e(q2) == e(q1) - q2
    assert e(q1 * q2) == e(q1) * e(q2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=11 ** 5 - 1).filter(lambda x: x % 11))
def test_inverse_roundtrip(x):
    modulus = make_modulus(11, 5)
    r = modulus.residue(x)
    assert (r * inverse(r)).value == 1


def test_inverse_roundtrip_bulk():
    # 1e4 random coprime residues per modulus, direct multiplication
    import random

    for p, k in ((7, 6), (16843, 4)):
        modulus = make_modulus(p, k)
        rng = random.Random(p)
        for _ in range(10 ** 4):
            x = rng.randrange(1, modulus.m)
            if x % p == 0:
                continue
            r = modulus.residue(x)
            assert (r * inverse(r)).value == 1
