"""Exception hierarchy shared across the package."""


class DppcaError(Exception):
    """Base class for all errors raised by this package.

    `reason` is the code that prefixes a failed trial's bench error column.
    """

    reason = "error"


class ContractViolationError(DppcaError, ValueError):
    """An input violated a documented precondition (shape, norm, finiteness)."""

    reason = "contract_violation"


class ParameterError(DppcaError, ValueError):
    """A scalar parameter was outside its documented domain."""

    reason = "parameter_error"


class BudgetError(DppcaError, ValueError):
    """A privacy budget was non-positive, non-finite, or composed past delta >= 1."""

    reason = "budget_error"


class NumericalError(DppcaError, RuntimeError):
    """A LAPACK factorization failed: the eigensolver's eigh or the
    low-coherence generator's Cholesky."""

    reason = "numerical_error"


class SizingError(DppcaError, ValueError):
    """A requested allocation would exceed addressable limits."""

    reason = "sizing_error"


class FormatError(DppcaError, ValueError):
    """A serialized matrix file was malformed."""

    reason = "format_error"
