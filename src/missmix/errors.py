"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class MissmixError(Exception):
    """Base class for all package errors."""


class ParseError(MissmixError):
    """A data file could not be parsed (carries the offending line number)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataValidationError(MissmixError):
    """A dataset violates a structural invariant (range, duplicate, dims)."""


class ConfigurationError(MissmixError):
    """A parameter value violates a precondition of the requested operation."""


class EstimationError(MissmixError):
    """An estimator was given insufficient or degenerate input."""


class GenerationError(MissmixError):
    """Synthetic data generation could not satisfy the requested shape."""


class EvaluationError(MissmixError):
    """A score could not be computed (e.g. empty prediction set)."""
