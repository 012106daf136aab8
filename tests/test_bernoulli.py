"""Bernoulli engines: exact recurrence, residue path, Kummer machinery.

The exact recurrence is the oracle for the residue path; sympy serves as
an extra third-party cross-check of the recurrence itself.
"""
from fractions import Fraction as Fr

import pytest

from wolstenholme import bernoulli, errors
from wolstenholme.bernoulli import (
    bernoulli_exact,
    bernoulli_mod,
    bernoulli_ratio,
    high_index_bernoulli,
    high_index_ratio,
    kummer_alternating_check,
    kummer_reduce,
    reduce_high_index,
    vsc_denominator,
)
from wolstenholme.modring import embed_rational, is_prime, make_modulus, valuation

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
    assert vsc_denominator(12) == 2730 == enumerate_vsc(12)
    assert vsc_denominator(2) == 6 == enumerate_vsc(2)
    assert vsc_denominator(12) == bernoulli_exact(12).value.denominator
    with pytest.raises(errors.OddIndex):
        vsc_denominator(9)


def test_vsc_matches_exact_denominators():
    for m in range(2, 102, 2):
        assert vsc_denominator(m) == bernoulli_exact(m).value.denominator, m


def test_bernoulli_mod_examples():
    assert bernoulli_mod(4, 7, 1).value.value == 3
    want = embed_exact(10, 7, 1)
    assert bernoulli_mod(10, 7, 1).value == want
    assert bernoulli_mod(16843 - 3, 16843, 1).value.value == 0


def test_bernoulli_mod_oracle_grid():
    # every even n <= 60, primes 11..97, r <= 3 (the full stated grid)
    for p in PRIMES_11_97:
        for n in range(2, 61, 2):
            if n % (p - 1) == 0:
                continue
            for r in (1, 2, 3):
                assert bernoulli_mod(n, p, r).value == embed_exact(n, p, r), (n, p, r)


def test_bernoulli_mod_r4_grid():
    # r = 4 works the deepest correction terms, including inner indices at
    # irregular positions (e.g. n = 14, p = 11 needs p*B_10 mod 11)
    for p in (11, 13, 17, 19, 23, 29, 31, 97):
        for n in range(2, 61, 2):
            if n % (p - 1) == 0:
                continue
            assert bernoulli_mod(n, p, 4).value == embed_exact(n, p, 4), (n, p)


def test_bernoulli_mod_odd_and_irregular():
    assert bernoulli_mod(9, 11, 2).value.value == 0
    with pytest.raises(errors.IrregularPosition):
        bernoulli_mod(10, 11, 1)
    with pytest.raises(errors.IrregularPosition):
        bernoulli_mod(24, 13, 2)


def test_bernoulli_mod_validation():
    with pytest.raises(errors.NotPrime):
        bernoulli_mod(4, 9, 1)
    with pytest.raises(ValueError):
        bernoulli_mod(4, 11, 5)
    with pytest.raises(errors.IndexTooLarge):
        bernoulli_mod(11 ** 6, 11, 1)


def test_bernoulli_ratio_with_p_in_index():
    # B_14/14 at p = 7: the index is divisible by p but the ratio is integral
    got = bernoulli_ratio(14, 7, 2)
    want = embed_rational(bernoulli_exact(14).value / 14, make_modulus(7, 2))
    assert got == want


def test_kummer_reduce_examples():
    red = kummer_reduce(10, 7, 1)
    assert red.target == 4
    assert bernoulli_ratio(10, 7, 1).value == 6
    assert bernoulli_ratio(4, 7, 1).value == 6
    # degenerate: small index maps to itself with factor 1
    red = kummer_reduce(10, 13, 1)
    assert red.target == 10 and red.factor.value == 1
    with pytest.raises(errors.IrregularPosition):
        kummer_reduce(20, 11, 2)
    with pytest.raises(errors.NoValidTarget):
        kummer_reduce(2, 11, 3)


def test_kummer_reduce_certified_transfer():
    # B_source = factor * B_target mod p^r, source huge, against direct path
    cases = [
        (11, 4, 11 ** 4 - 11 ** 3 - 2),
        (13, 3, 13 ** 3 - 13 ** 2 - 4),
        (17, 2, 17 * (17 - 1) + 6),
        (19, 2, 19 ** 2 - 19 - 4),
    ]
    for p, r, m in cases:
        red = kummer_reduce(m, p, r)
        direct = bernoulli_mod(m, p, r).value
        via = red.factor * bernoulli_mod(red.target, p, r).value
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
        red = kummer_reduce(m, p, r)
        lhs = bernoulli_mod(m, p, r).value
        rhs = red.factor * bernoulli_mod(red.target, p, r).value
        assert lhs == rhs, (m, p, r)
        done += 1


def test_kummer_alternating_examples():
    assert kummer_alternating_check(4, 11, 1) >= 1
    exact = bernoulli_exact(4).value / 4 - bernoulli_exact(14).value / 14
    assert valuation(exact, 11) >= 1
    assert kummer_alternating_check(4, 7, 2) >= 2
    exact = (bernoulli_exact(4).value / 4 - 2 * bernoulli_exact(10).value / 10
             + bernoulli_exact(16).value / 16)
    assert valuation(exact, 7) >= 2
    with pytest.raises(ValueError):
        kummer_alternating_check(4, 7, 0)


def test_kummer_alternating_sweep():
    for p in (11, 13, 31, 61):
        for m in (4, 6, 8, 14):
            for r in range(1, min(4, m - 1) + 1):
                if m % (p - 1) == 0:
                    continue
                if any((m + k * (p - 1)) % p == 0 for k in range(r + 1)) and r == 4:
                    continue  # ratio at p | index needs exponent r+1 > cap
                assert kummer_alternating_check(m, p, r) >= r, (m, p, r)


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
        assert kummer_alternating_check(8, 7, r) >= r


def test_high_index_expansion_grid():
    # left side by the direct power-sum route, right side by the expansion
    for p in PRIMES_11_97:
        for n in (2, 3, 4):
            for s in (2, 4):
                big = p ** n - p ** (n - 1) - s
                direct = bernoulli_mod(big, p, n).value
                assert direct == high_index_bernoulli(n, s, p), (p, n, s)
