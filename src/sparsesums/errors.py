"""Exception types shared across the package."""


class SparseSumsError(Exception):
    """Base class for all package-specific errors."""


class CompositeModulus(SparseSumsError):
    """The requested modulus failed the deterministic primality test."""


class ModulusTooLarge(SparseSumsError):
    """The requested modulus is >= 2**31 and would overflow 64-bit products."""


class NotADivisor(SparseSumsError):
    """A subgroup order was requested that does not divide p - 1."""


class DegenerateExponents(SparseSumsError):
    """Two exponents of a sparse polynomial collide mod p - 1."""


class BudgetExceeded(SparseSumsError):
    """An enumeration would exceed its configured work budget."""


class NonzeroRequired(SparseSumsError):
    """A parameter that must be a nonzero residue was zero."""


class OrderingViolated(SparseSumsError):
    """Cardinality arguments violate the required ordering."""


class ConfigInvalid(SparseSumsError):
    """A sweep configuration failed validation; message names the field."""


class UnknownKind(SparseSumsError):
    """Unrecognized plot-data kind."""


class IoFailure(SparseSumsError):
    """Reading or writing a dataset file failed."""
