"""The value classes and records: immutable, equal by value, fields in order.

``PrimePowerModulus``, ``Residue`` and ``SieveConfig`` are ``__slots__``
classes; the six records are named tuples, so they also unpack and compare
equal to the plain tuple of their fields.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from wolstenholme import (
    BernoulliExact, BernoulliResidue, BinomialResidue, CheckOutcome,
    CongruenceCheck, Criterion, PrimePowerModulus, Residue, ScanRecord,
    SieveConfig, bernoulli_exact, bernoulli_mod, central_binomial_mod, lookup,
    make_modulus, run_check,
)
from wolstenholme.errors import RangeError, RangeTooLarge

_SCAN_RECORD = ScanRecord(11, Criterion.HARMONIC_R1_P3, 2)


def _instances():
    M = make_modulus(7, 3)
    return [M, M.residue(5), SieveConfig(2, 100), run_check("lemma1_p4", 11),
            lookup("lemma1_p4"), _SCAN_RECORD, bernoulli_exact(4),
            bernoulli_mod(4, 11, 2), central_binomial_mod(11, 4)]


@pytest.mark.parametrize("obj", _instances(), ids=lambda obj: type(obj).__name__)
def test_fields_refuse_assignment(obj):
    names = getattr(obj, "_fields", None) or type(obj).__slots__
    assert names
    for name in names:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, before)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_modulus_equal_by_value():
    built, made = PrimePowerModulus(7, 3, 343), make_modulus(7, 3)
    assert built == made and built is not made
    assert hash(built) == hash(made) == hash((7, 3, 343))
    assert len({built, made}) == 1
    assert built != make_modulus(7, 2) and built != make_modulus(11, 3)
    assert built != (7, 3, 343)


@pytest.mark.parametrize("obj", [make_modulus(7, 3), make_modulus(7, 3).residue(5),
                                 SieveConfig(2, 100)], ids=lambda obj: type(obj).__name__)
def test_frozen_values_pickle_and_copy_by_value(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert twin == obj and hash(twin) == hash(obj) and type(twin) is type(obj)
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(obj)).not_a_field = 1


def test_residue_equality_and_hash():
    M = make_modulus(7, 3)
    r = M.residue(10)
    assert r == Residue(10, PrimePowerModulus(7, 3, 343))
    assert hash(r) == hash(Residue(10, PrimePowerModulus(7, 3, 343))) == hash((10, 343))
    assert r == 10 and r == 353 and r == Fraction(10)
    assert r != M.residue(11) and r != make_modulus(7, 2).residue(10)
    assert r != "10" and r != (10, M)
    assert len({r, M.residue(353), M.residue(11)}) == 2


@pytest.mark.parametrize("args, error, message", [
    ((10, 10), RangeError, "bad range [10, 10)"),
    ((1, 10), RangeError, "bad range [1, 10)"),
    ((2, 10 ** 8 + 1), RangeTooLarge, "hi = 100000001 beyond 100000000"),
], ids=["empty", "below-2", "too-large"])
def test_sieve_config_errors(args, error, message):
    with pytest.raises(ValueError) as exc:
        SieveConfig(*args)
    assert type(exc.value) is error and str(exc.value) == message


#: Each record's fields in order, and the defaults of the trailing ones.
RECORD_FIELDS = {
    CheckOutcome: (
        ("check_id", "p", "modulus_exponent", "lhs", "rhs", "residual_valuation",
         "passed", "skipped", "reason", "elapsed_ns"),
        {"lhs": None, "rhs": None, "residual_valuation": None, "passed": False,
         "skipped": False, "reason": None, "elapsed_ns": 0}),
    ScanRecord: (
        ("p", "criterion", "observed_valuation", "flagged", "elapsed_ns",
         "skipped", "reason"),
        {"observed_valuation": None, "flagged": False, "elapsed_ns": 0,
         "skipped": False, "reason": None}),
    CongruenceCheck: (
        ("id", "description", "source", "min_prime", "scope",
         "modulus_exponent", "evaluator", "max_prime"),
        {"max_prime": None}),
    BernoulliExact: (("index", "value"), {}),
    BernoulliResidue: (("index", "p", "r", "value", "regular"), {}),
    BinomialResidue: (("p", "k", "value", "wolstenholme_valuation"), {}),
}


@pytest.mark.parametrize("record", list(RECORD_FIELDS), ids=lambda r: r.__name__)
def test_record_fields_keep_order_and_defaults(record):
    assert (record._fields, record._field_defaults) == RECORD_FIELDS[record]


def test_records_are_tuples():
    assert _SCAN_RECORD == (11, Criterion.HARMONIC_R1_P3, 2, False, 0, False, None)
    p, criterion, *_ = _SCAN_RECORD
    assert (p, criterion) == (11, Criterion.HARMONIC_R1_P3)
    outcome = CheckOutcome("lemma1_p4", 5, 4, skipped=True,
                           reason="below minimum prime 7")
    assert outcome == run_check("lemma1_p4", 5)
    assert outcome == ("lemma1_p4", 5, 4, None, None, None, False, True,
                       "below minimum prime 7", 0)
