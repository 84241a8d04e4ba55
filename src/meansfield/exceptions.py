"""Exception hierarchy shared by all modules."""

__all__ = [
    "InvalidInput", "DegenerateInput", "NumericalFailure",
    "ConvergenceFailure", "UndefinedMetric", "UnsupportedFormat",
    "CorruptArchive",
]


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class DegenerateInput(InvalidInput):
    """Input is structurally valid but carries no usable information."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class ConvergenceFailure(NumericalFailure):
    """An iterative solver stopped short of its tolerance: its budget
    ran out, its step length stalled, or an iterate left the domain.

    Carries the last iterate and residual so callers can inspect or
    restart the computation.
    """

    def __init__(self, message, last_iterate=None, residual=None,
                 iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations


class UndefinedMetric(InvalidInput):
    """The requested metric is undefined for this input (e.g. one class)."""


class UnsupportedFormat(ValueError):
    """A file does not carry the expected magic or version."""


class CorruptArchive(ValueError):
    """A trial archive violates its byte-level contract.

    ``offset`` locates the first offending byte when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
