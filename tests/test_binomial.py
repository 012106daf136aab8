"""Central binomial product form against the exact big-integer oracle."""
from math import comb

import pytest

from wolstenholme import checks, errors
from wolstenholme.binomial import (
    central_binomial_mod,
    exact_binomial,
    is_wolstenholme_prime,
    zhao_quotient_check,
)
from wolstenholme.harmonic import elementary_symmetric, wolstenholme_quotient
from wolstenholme.modring import make_modulus
from wolstenholme.plan import EvaluationPlan

PRIMES_200 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
              137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
              197, 199]


def test_exact_binomial_examples():
    assert exact_binomial(9, 4) == 126
    assert exact_binomial(13, 6) == 1716
    assert exact_binomial(100, 0) == 1
    with pytest.raises(errors.RangeError):
        exact_binomial(5001, 2)
    with pytest.raises(errors.RangeError):
        exact_binomial(5, 6)


def test_central_binomial_examples():
    b = central_binomial_mod(5, 3)
    assert b.value.value == 1 and b.wolstenholme_valuation == 3
    assert comb(9, 4) == 1 + 5 ** 3
    b = central_binomial_mod(7, 4)
    assert b.value.value == 1716
    b = central_binomial_mod(16843, 4)
    assert b.value.value == 1 and b.wolstenholme_valuation == 4


def test_central_binomial_against_oracle():
    for p in PRIMES_200:
        want = comb(2 * p - 1, p - 1)
        for k in (1, 2, 3, 5, 8):
            got = central_binomial_mod(p, k)
            assert got.value.value == want % p ** k, (p, k)


def test_wolstenholme_valuation_margin():
    # margin of two exponents: exactly 3 at 5 and 7, never less than 3
    assert central_binomial_mod(5, 3).wolstenholme_valuation == 3
    assert central_binomial_mod(7, 3).wolstenholme_valuation == 3
    for p in PRIMES_200:
        assert central_binomial_mod(p, 3).wolstenholme_valuation >= 3, p


def test_truncation_identity_against_symmetric_sums():
    # C(2p-1,p-1) = 1 + sum(p^j H_j, j < k) (mod p^k); needs k <= p-1 so
    # the elementary symmetric functions beyond the package cap stay out
    for p in (7, 11, 31, 97):
        for k in (2, 4, 6, 8):
            if k > p - 1:
                continue
            profile = elementary_symmetric(p, min(k - 1, 8, p - 2), k)
            modulus = make_modulus(p, k)
            acc = modulus.residue(1)
            for j in range(1, min(k - 1, profile.n_max) + 1):
                acc = acc + p ** j * profile.H[j]
            assert central_binomial_mod(p, k).value == acc, (p, k)


def test_is_wolstenholme_prime():
    assert is_wolstenholme_prime(16843)
    assert not any(is_wolstenholme_prime(p) for p in PRIMES_200)
    assert not is_wolstenholme_prime(4)


def test_zhao_quotient_examples():
    assert zhao_quotient_check(2, 1, 7) >= 5
    # C(14,7)/2 = 1716 against 1 + 2 w_7 p^3 = 18523
    w = wolstenholme_quotient(7).w
    assert comb(14, 7) // 2 == 1716
    assert (1 + 2 * w * 343 - 1716) % 7 ** 5 == 0
    assert zhao_quotient_check(3, 1, 11) >= 5
    assert zhao_quotient_check(4, 4, 11) >= 5  # degenerate r = n
    with pytest.raises(errors.RangeError):
        zhao_quotient_check(7, 1, 11)


def test_zhao_quotient_sweep():
    for p in (7, 11, 13, 37, 101):
        for n in range(1, 7):
            for r in range(1, n + 1):
                assert zhao_quotient_check(n, r, p) >= 5, (n, r, p)


def _residual(check_id, p):
    return checks.run_check(check_id, p).residual_valuation


def test_granville_examples():
    assert _residual("granville_p5", 7) >= 5
    assert _residual("granville_p5", 11) >= 5
    # p = 5 is below the registry's minimum prime; the evaluator still runs
    # there and reports the observed valuation (4, not a pass at 5)
    lhs, rhs = checks._ev_granville(EvaluationPlan(5))
    assert (lhs - rhs).valuation() == 4


def test_granville_against_exact_oracle():
    for p in (7, 11, 13, 101, 499):
        m = p ** 7
        lhs = comb(3 * p, 2 * p) * pow(comb(2 * p, p) ** 3, -1, m) % m
        rhs = comb(3, 2) * pow(comb(2, 1) ** 3, -1, m) % m
        diff = (lhs - rhs) % m
        v = 7
        if diff:
            v = 0
            while diff % p == 0:
                diff //= p
                v += 1
        assert _residual("granville_p5", p) == v, p
        assert v >= 5


def test_sun_wan_examples():
    assert _residual("sun_wan_p5", 7) >= 5
    assert _residual("sun_wan_p5", 11) >= 5
    assert _residual("sun_wan_p5", 13) >= 5
    outcome = checks.run_check("sun_wan_p5", 401)
    assert outcome.skipped and outcome.reason == "beyond exact-oracle bound 400"
    outcome = checks.run_check("sun_wan_p5", 15)
    assert outcome.skipped and outcome.reason == "not prime"
