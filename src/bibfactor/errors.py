"""Exception and warning types shared across the package, and the check
on repeated names that tables and results share."""


class BibfactorError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BibfactorError, ValueError):
    """Input data violates a documented precondition."""


class EmptyCoreError(BibfactorError, ValueError):
    """An index requiring a non-empty h-core was requested for h = 0."""


class InsufficientDataError(BibfactorError, ValueError):
    """Too few observations for the requested statistic."""


class ZeroVarianceError(BibfactorError, ValueError):
    """A constant column makes the statistic undefined."""


class SingularMatrixError(BibfactorError, ValueError):
    """A matrix that must be invertible is numerically singular."""


class DegenerateInputError(BibfactorError, ValueError):
    """The computation degenerates to 0/0 or similar for this input."""


class AsymmetricMatrixError(BibfactorError, ValueError):
    """A symmetric matrix was expected."""


class ConvergenceError(BibfactorError, RuntimeError):
    """An iterative procedure failed to converge within its budget.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class SpecificationError(BibfactorError, ValueError):
    """A model specification is not identifiable or not well formed."""


class ParseError(BibfactorError, ValueError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class HeywoodWarning(UserWarning):
    """A communality or uniqueness hit the admissible boundary and was clamped."""


def check_unique(names, kind="label"):
    """Raise ``ValidationError`` naming the first repeat in the tuple
    ``names``: two rows or columns under one name would merge in a result."""
    if len(set(names)) != len(names):
        repeat = next(n for i, n in enumerate(names) if n in names[:i])
        raise ValidationError(f"duplicate {kind} {repeat!r}")
