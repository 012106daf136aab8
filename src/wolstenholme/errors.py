"""Exception types shared across the package."""


class WolstenholmeError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(WolstenholmeError, ValueError):
    """A value that must be prime is composite (or < 2)."""


class PrimalityUndecided(WolstenholmeError, ValueError):
    """A probable prime above the deterministic Miller-Rabin bound (3.317e24)."""


class ExponentOutOfRange(WolstenholmeError, ValueError):
    """Modulus exponent outside the supported range 1..10."""


class WidthExceeded(WolstenholmeError, ValueError):
    """Modulus too wide for the exact-arithmetic contract (>= 2**200)."""


class ModulusMismatch(WolstenholmeError, ValueError):
    """Arithmetic attempted between residues of different moduli."""


class NotInvertible(WolstenholmeError, ValueError):
    """Element shares a factor with the modulus.

    ``index`` identifies the first offending position for batch inversions.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DenominatorNotCoprime(WolstenholmeError, ValueError):
    """Rational with p in the denominator cannot embed into Z/p^k Z."""


class NMaxTooLarge(WolstenholmeError, ValueError):
    """Symmetric-sum order exceeds p-2 (or the supported cap)."""


class DivisionNotExact(WolstenholmeError, ArithmeticError):
    """Expected exact division by a prime power failed."""


class IndexTooLarge(WolstenholmeError, ValueError):
    """Bernoulli index beyond the supported range."""


class OddIndex(WolstenholmeError, ValueError):
    """Operation defined only for even indices."""


class IrregularPosition(WolstenholmeError, ValueError):
    """Bernoulli index divisible by p-1; the residue has p in its denominator."""


class ExactDivisionFailed(WolstenholmeError, ArithmeticError):
    """Internal exact division by p failed; signals an arithmetic fault."""


class NoValidTarget(WolstenholmeError, ValueError):
    """No admissible low index for an index-reduction congruence."""


class RangeError(WolstenholmeError, ValueError):
    """Argument outside the range an exact oracle can serve."""


class RangeTooLarge(WolstenholmeError, ValueError):
    """Scan or sieve range beyond the supported bound."""


class UnknownCheck(WolstenholmeError, KeyError):
    """Congruence-check id not present in the registry."""


class MalformedRecord(WolstenholmeError, ValueError):
    """A line of a jsonl input file is not a record of the documented schema."""


class WorkerDied(WolstenholmeError, RuntimeError):
    """A worker process of a parallel run died before returning its results."""
