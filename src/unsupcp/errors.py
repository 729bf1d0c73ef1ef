"""Exception types shared across the package."""


class CsvParseError(ValueError):
    """Malformed CSV input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyInputError(ValueError):
    """An input that must be non-empty was empty."""


class SplitSizeError(ValueError):
    """Requested partition sizes exceed the available samples."""


class DegenerateTrainingError(ValueError):
    """Training data admits no meaningful fit (e.g. a single observed class)."""


class InterpolationError(RuntimeError):
    """No kernel candidate's CG solve reached tolerance. Carries the
    smallest residual."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class InfeasibleConstraintError(ValueError):
    """The loss constraint cannot be met by any point of the feasible set."""
