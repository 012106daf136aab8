"""Sieve correctness, criterion agreement, and scan restartability."""
import pytest

from wolstenholme import errors
from wolstenholme.scan import (
    Criterion,
    SieveConfig,
    remark1_experiment,
    sieve_primes,
    wolstenholme_scan,
)


def trial_division_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def test_sieve_examples():
    assert list(sieve_primes(SieveConfig(2, 20))) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert list(sieve_primes(SieveConfig(16840, 16850))) == [16843]


def test_sieve_against_trial_division():
    assert list(sieve_primes(SieveConfig(2, 2000))) == trial_division_primes(2, 2000)
    assert list(sieve_primes(SieveConfig(90000, 90400, segment_size=64))) == \
        trial_division_primes(90000, 90400)


def test_sieve_prime_count_below_1e5():
    assert sum(1 for _ in sieve_primes(SieveConfig(2, 10 ** 5))) == 9592


def test_sieve_bounds():
    with pytest.raises(errors.RangeTooLarge):
        SieveConfig(2, 10 ** 8 + 1)
    with pytest.raises(ValueError):
        SieveConfig(10, 10)


def test_scan_skips_tiny_primes():
    records = list(wolstenholme_scan(SieveConfig(2, 10), Criterion.HARMONIC_R1_P3))
    assert [r.p for r in records] == [2, 3, 5, 7]
    assert [r.skipped for r in records] == [True, True, True, False]


def test_scan_finds_the_wolstenholme_prime():
    records = list(wolstenholme_scan(
        SieveConfig(16800, 16900), Criterion.BINOMIAL_P4))
    flagged = [r.p for r in records if r.flagged]
    assert flagged == [16843]
    rec = next(r for r in records if r.p == 16843)
    assert rec.observed_valuation >= 4


def test_criteria_agree_on_flags():
    # identical (empty) flag sets and per-prime agreement on [11, 600)
    votes = {}
    for criterion in (Criterion.BINOMIAL_P4, Criterion.HARMONIC_R1_P3,
                      Criterion.BERNOULLI_BP3):
        for rec in wolstenholme_scan(SieveConfig(11, 600), criterion):
            votes.setdefault(rec.p, []).append(rec.flagged)
    for p, flags in votes.items():
        assert len(flags) == 3 and len(set(flags)) == 1, (p, flags)


def test_no_flags_below_1e4_under_default_criterion():
    flagged = [r.p for r in wolstenholme_scan(
        SieveConfig(7, 10 ** 4), Criterion.HARMONIC_R1_P3) if r.flagged]
    assert flagged == []


def test_criteria_agree_at_wolstenholme_prime():
    for criterion in Criterion:
        recs = list(wolstenholme_scan(SieveConfig(16843, 16844), criterion))
        assert len(recs) == 1 and recs[0].flagged, criterion


def test_monotone_restartability():
    crit = Criterion.HARMONIC_R1_P3
    joined = [(r.p, r.flagged, r.observed_valuation)
              for r in wolstenholme_scan(SieveConfig(7, 400), crit)]
    split = [(r.p, r.flagged, r.observed_valuation)
             for r in wolstenholme_scan(SieveConfig(7, 150), crit)]
    split += [(r.p, r.flagged, r.observed_valuation)
              for r in wolstenholme_scan(SieveConfig(150, 400), crit)]
    assert joined == split


def test_scan_parallel_matches_serial():
    crit = Criterion.COR1_SECOND_P7
    serial = [(r.p, r.flagged, r.observed_valuation)
              for r in wolstenholme_scan(SieveConfig(11, 300), crit)]
    parallel = [(r.p, r.flagged, r.observed_valuation)
                for r in wolstenholme_scan(SieveConfig(11, 300), crit,
                                           parallelism=2)]
    assert serial == parallel


@pytest.mark.slow
def test_binomial_criterion_full_range_flags_16843():
    flagged = [r.p for r in wolstenholme_scan(
        SieveConfig(7, 2 * 10 ** 4), Criterion.BINOMIAL_P4) if r.flagged]
    assert flagged == [16843]


def test_remark1_small_limits():
    assert remark1_experiment(10000) == []
    assert remark1_experiment(16844) == [16843]
    with pytest.raises(errors.RangeTooLarge):
        remark1_experiment(10 ** 6 + 1)


def test_cor1second_valuation_against_exact_rationals():
    from fractions import Fraction as Fr
    from math import comb

    from wolstenholme.modring import is_prime, valuation
    from wolstenholme.scan import _cor1second_valuation, _r1_valuation

    for p in filter(is_prime, range(2, 200)):
        r1 = sum(Fr(1, k) for k in range(1, p))
        assert _r1_valuation(p) == min(valuation(r1, p), 3), p
        if p < 5:  # the 2/3 coefficient needs p != 3
            continue
        exact = (comb(2 * p - 1, p - 1) - 1 - 2 * p * r1
                 - Fr(2, 3) * p ** 3 * sum(Fr(1, k ** 3) for k in range(1, p)))
        assert _cor1second_valuation(p) == min(valuation(exact, p), 7), p
