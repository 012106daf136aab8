"""The package's public surface: a name added to or removed from
``wolstenholme.__all__`` shows here first, and the refusals of its
functions that no other test reaches are pinned here."""
import pytest

import wolstenholme
from wolstenholme import bernoulli_mod, bernoulli_ratio, high_index_ratio, reduce_high_index
from wolstenholme.errors import (
    ExponentOutOfRange, IndexTooLarge, ModulusMismatch, OddIndex, WolstenholmeError,
)
from wolstenholme.plan import EvaluationPlan


def test_public_names():
    assert sorted(wolstenholme.__all__) == [
        "BernoulliExact", "BernoulliResidue", "BinomialResidue", "CheckOutcome",
        "CongruenceCheck", "Criterion", "PrimePowerModulus", "Residue",
        "ScanRecord", "Scope", "SieveConfig", "all_check_ids", "bernoulli_exact",
        "bernoulli_mod", "bernoulli_ratio", "central_binomial_mod",
        "embed_rational", "exact_binomial", "high_index_bernoulli",
        "high_index_ratio", "inverse", "is_prime", "lookup", "make_modulus",
        "reduce_high_index", "registry", "run_check", "run_suite", "sieve_primes",
        "valuation", "wolstenholme_scan",
    ]


def test_star_import_binds_no_submodule():
    # A name listed but not bound would raise here; a submodule is not listed.
    namespace = {}
    exec("from wolstenholme import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(wolstenholme.__all__)


@pytest.mark.parametrize("call, error, message", [
    (lambda: bernoulli_ratio(3, 11, 1), OddIndex, "even n"),
    (lambda: bernoulli_ratio(22, 11, 4), IndexTooLarge, "exponent 5 > 4"),
    (lambda: bernoulli_mod(12, 11, 2, EvaluationPlan(13)), ModulusMismatch,
     "plan for 13 cannot serve p = 11"),
    (lambda: high_index_ratio(5, 2, 11), ExponentOutOfRange, "exponent n must be in 1..4"),
    (lambda: reduce_high_index(0, 2, 11), ExponentOutOfRange, "n must be >= 1"),
], ids=["odd ratio", "ratio past its exponent", "another prime's plan",
        "high index exponent", "high index n = 0"])
def test_public_refusals(call, error, message):
    # Each refusal is the package's own error, and still a ValueError.
    with pytest.raises(error, match=message) as exc:
        call()
    assert isinstance(exc.value, WolstenholmeError) and isinstance(exc.value, ValueError)
