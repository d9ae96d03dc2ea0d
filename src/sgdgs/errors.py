"""Exception types shared across the package."""


class SgdgsError(Exception):
    """Base class for all package errors."""


class DimensionError(SgdgsError, ValueError):
    """Matrix/vector dimensions incompatible with the requested operation."""


class SingularMatrixError(SgdgsError, ArithmeticError):
    """Inversion of a singular matrix; carries the det = 0 witness."""

    def __init__(self, message="matrix is singular (det = 0)"):
        super().__init__(message)
        self.determinant = 0


class UndefinedInputError(SgdgsError, ValueError):
    """Input outside the mathematical domain of the operation."""


class NotBipartiteError(SgdgsError, ValueError):
    """Graph is not bipartite; carries an odd closed walk as witness."""

    def __init__(self, odd_walk):
        super().__init__(f"graph is not bipartite (odd closed walk: {odd_walk})")
        self.odd_walk = tuple(odd_walk)


class PreconditionError(SgdgsError, ValueError):
    """A documented operation precondition does not hold."""


class NotTreeError(PreconditionError):
    """Underlying graph is not a tree (the precondition of every tree
    operation)."""


class ResourceGuardError(SgdgsError, RuntimeError):
    """Requested order is above the CLI resource guard --max-n (env
    SPECTRAL_MAX_N), or below 1 for tree enumeration."""


class InternalInvariantError(SgdgsError, AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""
