"""Exception hierarchy shared across the package.

The CLI exits with each class's exit_code (IO_EXIT_CODE for an OSError,
MEMORY_EXIT_CODE for a MemoryError), so library code should raise the most
specific class that applies.
"""

IO_EXIT_CODE = 4
MEMORY_EXIT_CODE = 6


class MissmixError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class ParseError(MissmixError):
    """A data file could not be parsed (carries the offending line number)."""
    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataValidationError(MissmixError):
    """A dataset violates a structural invariant (range, duplicate, dims)."""
    exit_code = 2


class ConfigurationError(MissmixError):
    """A parameter value violates a precondition of the requested operation."""
    exit_code = 3


class EstimationError(MissmixError):
    """An estimator was given insufficient or degenerate input."""
    exit_code = 5


class GenerationError(MissmixError):
    """Synthetic data generation could not satisfy the requested shape."""
    exit_code = 5


class EvaluationError(MissmixError):
    """A score could not be computed (e.g. empty prediction set)."""
    exit_code = 5
