"""Exception types shared across the package."""


class WolstenholmeError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(WolstenholmeError, ValueError):
    """A value that must be prime is composite (or < 2)."""


class PrimalityUndecided(WolstenholmeError, ValueError):
    """A probable prime above the deterministic Miller-Rabin bound (3.317e24)."""


class ExponentOutOfRange(WolstenholmeError, ValueError):
    """An exponent outside its range: a modulus's 1..10, a residue's 1..4."""


class ModulusMismatch(WolstenholmeError, ValueError):
    """Residues of different moduli combined, or a plan given another prime."""


class NotInvertible(WolstenholmeError, ValueError):
    """Element shares a factor with the modulus."""


class DenominatorNotCoprime(WolstenholmeError, ValueError):
    """Rational with p in the denominator cannot embed into Z/p^k Z."""


class DivisionNotExact(WolstenholmeError, ArithmeticError):
    """Expected exact division by a prime power failed."""


class IndexTooLarge(WolstenholmeError, ValueError):
    """Bernoulli index beyond the supported range."""


class OddIndex(WolstenholmeError, ValueError):
    """Operation defined only for even indices (a ratio B_n/n: even n >= 2)."""


class IrregularPosition(WolstenholmeError, ValueError):
    """Bernoulli index divisible by p-1; the residue has p in its denominator."""


class RangeError(WolstenholmeError, ValueError):
    """Argument a function does not serve: past an exact oracle, a bad range, B_1."""


class RangeTooLarge(WolstenholmeError, ValueError):
    """Scan or sieve range beyond the supported bound."""


class UnknownCheck(WolstenholmeError, KeyError):
    """Congruence-check id not present in the registry."""


class MalformedRecord(WolstenholmeError, ValueError):
    """A line of a jsonl input file is not a record of the documented schema."""


class WorkerDied(WolstenholmeError, RuntimeError):
    """A worker process of a parallel run died before returning its results."""
