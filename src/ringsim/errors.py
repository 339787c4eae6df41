"""Exception taxonomy shared by all ringsim modules."""


class RingsimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RingsimError, ValueError):
    """A parameter lies outside its physical or mathematical domain."""


class PoleError(RingsimError, ValueError):
    """A denominator collapses for the given parameters (e.g. |tau*eta| = 1)."""


class SingularPivotError(RingsimError):
    """A mode-swap pivot is too small for the algebra to be meaningful.

    Attributes
    ----------
    mode : int
        1-based index of the mode whose pivot vanished.
    pivot : complex
        The offending pivot value.
    """

    def __init__(self, message, mode, pivot):
        super().__init__(message)
        self.mode = mode
        self.pivot = pivot


class UndefinedPhaseError(RingsimError):
    """The phase of a (numerically) zero amplitude was requested."""


class ConstraintError(RingsimError):
    """Gate success constraints are violated.

    Attributes
    ----------
    verdict : NlpsgVerdict or None
        The verdict that triggered the rejection, when available.
    """

    def __init__(self, message, verdict=None):
        super().__init__(message)
        self.verdict = verdict


class ConfigError(RingsimError):
    """A run configuration could not be parsed or validated.

    Attributes
    ----------
    field : str or None
        Name of the offending field, when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
