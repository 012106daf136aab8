"""Sieve correctness, criterion agreement, and scan restartability."""
import pytest

from wolstenholme import errors, harmonic, scan
from wolstenholme.harmonic import _pair_power_sums_raw, _walk_pair_sums_raw
from wolstenholme.modring import capped_valuation, is_prime
from wolstenholme.scan import (
    Criterion,
    SieveConfig,
    _cor1second_residual,
    _r1_valuation,
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


def reference_two_sum(p: int) -> tuple[int, int]:
    """(min(v_p(R_1), 3), the cor1second residual) by the per-k fused kernel.

    One inverse of each k in 1..p-1 mod p^7 feeds R_1, R_3 (mod p^4, under
    the p^3 coefficient) and the product C(2p-1,p-1) = prod(1 + p/k): the
    oracle for the pair kernel.
    """
    m, m4 = p ** 7, p ** 4
    s1 = s3 = 0
    prod = 1
    for k in range(1, p):
        iv = pow(k, -1, m)
        s1 += iv
        s3 += pow(iv, 3, m4)
        prod = prod * (1 + p * iv) % m
    rhs = (1 + 2 * p * s1 + 2 * pow(3, -1, m) * p ** 3 * s3) % m
    return capped_valuation(s1 % p ** 3, p, 3), (prod - rhs) % m


def assert_pair_kernel_agrees(lo: int, hi: int) -> None:
    for p in filter(is_prime, range(lo, hi)):
        assert (_r1_valuation(p), _cor1second_residual(p)) == \
            reference_two_sum(p), p


def test_pair_kernel_agrees_below_3000():
    assert_pair_kernel_agrees(7, 3000)


@pytest.mark.slow
def test_pair_kernel_agrees_below_2e4():
    assert_pair_kernel_agrees(7, 2 * 10 ** 4)


@pytest.mark.slow
def test_pair_kernel_agrees_near_32768_and_1e5():
    # Either side of 2^15, where p^2 outgrows one int digit, and near 1e5:
    # the walk against the per-k kernel where the sums are widest here.
    assert_pair_kernel_agrees(32700, 33100)
    assert_pair_kernel_agrees(100000, 100400)


def test_two_sum_sweep_across_the_digit_boundary(monkeypatch):
    # 32749^2 < 2^30 < 32771^2, where one int digit stops holding p^2: the
    # two-sum walk inverts nothing, and its sums, R_1 mod p^3 and the
    # residual equal the full-width sweep's.
    moduli = []

    def recording(raw, m, _invert=harmonic._batch_invert_raw):
        moduli.append(m)
        return _invert(raw, m)

    for p in (32749, 32771, 100003):
        _, t1, t2, t3 = _pair_power_sums_raw(p, 3, p ** 3)
        with monkeypatch.context() as patch:
            patch.setattr(harmonic, "_batch_invert_raw", recording)
            assert _walk_pair_sums_raw(p) == (t1 % p ** 2, t3 % p), p
            assert harmonic._inverse_power_sums_raw(p, 1, p ** 3) == [0, p * t1 % p ** 3], p
            tail = (4 * pow(3, -1, p) * t1 ** 3 - 4 * t1 * t2 + 2 * t3) % p
            assert _cor1second_residual(p) == (2 * p ** 4 * t1 * t1 + p ** 6 * tail) % p ** 7, p
        assert moduli == [], p


@pytest.mark.slow
def test_walk_past_2_to_the_20():
    # Past 2^20, where a block's summand (K^2 + R^2)(3 + 2KR) is a three-digit
    # int: the walk against the full-width sweep, and both walk-based scans
    # flag the Wolstenholme prime 2124679 and neither flags its neighbours.
    for p in (1000003, 2124679):
        _, t1, _, t3 = _pair_power_sums_raw(p, 3, p ** 3)
        assert _walk_pair_sums_raw(p) == (t1 % p ** 2, t3 % p), p
    cfg = SieveConfig(2124659, 2124758)
    assert list(sieve_primes(cfg)) == [2124659, 2124667, 2124679, 2124757]
    for criterion in (Criterion.COR1_SECOND_P7, Criterion.HARMONIC_R1_P3):
        records = list(wolstenholme_scan(cfg, criterion))
        assert not any(r.reason for r in records), criterion
        assert [r.p for r in records if r.flagged] == [2124679], criterion


def test_two_sum_residual_checks_wolstenholme(monkeypatch):
    # The residual drops the T_1^3 and T_1 T_2 terms because p divides T_1;
    # a T_1 that p does not divide is an error, not a residual.
    p = 101
    t1, t3 = _walk_pair_sums_raw(p)
    monkeypatch.setattr(scan, "_walk_pair_sums_raw", lambda *args: (t1 + 1, t3))
    with pytest.raises(errors.DivisionNotExact):
        _cor1second_residual(p)
    record = scan._scan_one(p, Criterion.COR1_SECOND_P7)
    assert record.reason.startswith("error:") and not record.flagged
    assert record.observed_valuation is None


def test_sieve_examples():
    assert list(sieve_primes(SieveConfig(2, 20))) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert list(sieve_primes(SieveConfig(16840, 16850))) == [16843]


def test_sieve_against_trial_division(monkeypatch):
    assert list(sieve_primes(SieveConfig(2, 2000))) == trial_division_primes(2, 2000)
    monkeypatch.setattr(scan, "SEGMENT_SIZE", 64)  # seven segments
    assert list(sieve_primes(SieveConfig(90000, 90400))) == \
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


#: Valuation each criterion reports at p >= 7, given b = [p | B_{p-3}]:
#: C - 1 = -(1/3) p^3 B_{p-3} (mod p^4), R_1 = -(1/3) p^2 B_{p-3} (mod p^3),
#: and the two-sum residual is 2p^6 ((T_1/p)^2 + T_3) with T_1/p = R_1/p^2
#: (T_3 = 0 mod p for p > 7; at p = 7 the sum is 5 mod 7).
ONE_BIT_VALUATIONS = {Criterion.BINOMIAL_P4: 3, Criterion.HARMONIC_R1_P3: 2,
                      Criterion.BERNOULLI_BP3: 0, Criterion.COR1_SECOND_P7: 6}


def assert_one_bit_valuations(lo: int, hi: int) -> None:
    # bp3's half pass shares no code with the half walk, so its bit is
    # an oracle for every valuation the other three criteria report.
    found = {c: {r.p: r.observed_valuation
                 for r in wolstenholme_scan(SieveConfig(lo, hi), c)}
             for c in Criterion}
    for p, b in found[Criterion.BERNOULLI_BP3].items():
        assert b in (0, 1), p
        for criterion, base in ONE_BIT_VALUATIONS.items():
            assert found[criterion][p] == base + b, (p, criterion)


def test_one_bit_valuation_oracle_below_3000():
    assert_one_bit_valuations(7, 3000)


@pytest.mark.slow
def test_one_bit_valuation_oracle_below_2e4():
    assert_one_bit_valuations(7, 2 * 10 ** 4)


@pytest.mark.slow
def test_one_bit_valuation_oracle_below_1e5():
    assert_one_bit_valuations(7, 10 ** 5)


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


def two_sum_flags(limit: int) -> list[int]:
    """Primes 11 <= p < limit the mod-p^7 two-sum scan flags."""
    return [r.p for r in wolstenholme_scan(SieveConfig(11, limit),
                                           Criterion.COR1_SECOND_P7) if r.flagged]


def test_remark1_small_limits():
    assert two_sum_flags(10000) == []
    assert two_sum_flags(16844) == [16843]


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
