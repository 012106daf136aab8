"""Central binomial product form against the exact big-integer oracle."""
from math import comb

import pytest

from wolstenholme import checks, errors
from wolstenholme.binomial import ORACLE_CAP, central_binomial_mod, exact_binomial
from wolstenholme.harmonic import _inverse_power_sums_raw, _newton_h_raw
from wolstenholme.modring import MAX_EXPONENT, is_prime, make_modulus
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


def symmetric_sums(p: int, n_max: int, k: int) -> list:
    """[_, H_1, .., H_n_max] in Z/p^k Z: the plan's up to n_max = 6, past
    it (the plan stops at H_6) Newton's recurrence over the raw R's."""
    modulus = make_modulus(p, k)
    if n_max <= 6:
        H = EvaluationPlan(p).H[:n_max + 1]
    else:
        H = _newton_h_raw(_inverse_power_sums_raw(p, n_max, modulus.m), n_max, modulus.m)
    return [None] + [modulus.residue(x) for x in H[1:]]


def test_truncation_identity_against_symmetric_sums():
    # C(2p-1,p-1) = 1 + sum(p^j H_j, j < k) (mod p^k); needs k <= p-1 so
    # the elementary symmetric functions beyond the package cap stay out
    for p in (7, 11, 31, 97):
        for k in (2, 4, 6, 8):
            if k > p - 1:
                continue
            n_max = min(k - 1, 8, p - 2)
            H = symmetric_sums(p, n_max, k)
            modulus = make_modulus(p, k)
            acc = modulus.residue(1)
            for j in range(1, min(k - 1, n_max) + 1):
                acc = acc + p ** j * H[j]
            assert central_binomial_mod(p, k).value == acc, (p, k)


def test_is_wolstenholme_prime():
    # the defining congruence C(2p-1, p-1) = 1 (mod p^4) by the product kernel
    assert central_binomial_mod(16843, 4).wolstenholme_valuation >= 4
    assert not any(central_binomial_mod(p, 4).wolstenholme_valuation >= 4
                   for p in PRIMES_200)
    with pytest.raises(errors.NotPrime):
        central_binomial_mod(4, 4)


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


def assert_binomials_off_products(primes):
    """Sun-Wan's and Zhao's binomials read off the plan's products E(1..3)
    equal the exact oracle mod p^10, wherever it reaches, and so do both
    checks' sides mod their p^W."""
    for p in primes:
        plan, m = EvaluationPlan(p), p ** MAX_EXPONENT
        e1, e2, e3 = plan.products
        c3p = exact_binomial(3 * p, p)
        assert e2 == c3p * pow(3, -1, m) % m, p  # C(3p, p)/3 = E(2)
        zhao = checks.lookup("zhao_eq4_p5").evaluator(plan)[0]
        assert zhao.value == c3p * pow(3, -1, zhao.modulus.m) % zhao.modulus.m, p
        if 4 * p > ORACLE_CAP:
            continue
        c4p, c4p1 = exact_binomial(4 * p, p), exact_binomial(4 * p - 1, 2 * p - 1)
        assert 4 * e3 % m == c4p % m, p  # C(4p, p) = 4 E(3)
        assert 3 * e2 * e3 * pow(e1, -1, m) % m == c4p1 % m, p
        lhs, rhs = checks.lookup("sun_wan_p5").evaluator(plan)
        M = lhs.modulus
        assert (lhs.value, rhs.value) == (c4p1 % M.m, (c4p - 1) % M.m), p


def test_binomials_off_products_against_exact_oracle():
    # every prime where sun_wan_p5 evaluates
    assert_binomials_off_products([p for p in range(7, 401) if is_prime(p)])


@pytest.mark.slow
def test_binomials_off_products_to_the_oracle_cap():
    # every prime where zhao_eq4_p5 evaluates; Sun-Wan's up to 1250, 4p <= 5000
    cap = checks.lookup("zhao_eq4_p5").max_prime
    assert_binomials_off_products([p for p in range(7, cap + 1) if is_prime(p)])
