"""Exception types raised across the package."""

__all__ = [
    "SubspaceAlignError",
    "InvalidInput",
    "DimensionMismatch",
    "ShapeError",
    "InvalidBasis",
    "UnsupportedOrder",
    "RankMismatch",
    "NotAligned",
    "NumericalFailure",
]


class SubspaceAlignError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(SubspaceAlignError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatch(InvalidInput):
    """Operands have incompatible shapes."""


class ShapeError(InvalidInput):
    """A matrix has the wrong orientation for the requested operation."""


class InvalidBasis(InvalidInput):
    """A matrix expected to have orthonormal columns does not."""


class UnsupportedOrder(InvalidInput):
    """No Hadamard matrix of the requested order can be constructed."""


class RankMismatch(InvalidInput):
    """Two matrices that must share a numerical rank do not."""


class NotAligned(InvalidInput):
    """A basis whose product with the pinning matrix must be PSD fails the check."""


class NumericalFailure(SubspaceAlignError, RuntimeError):
    """An underlying numerical routine failed to converge."""
