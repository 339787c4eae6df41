"""Exception taxonomy shared by all ringsim modules, one class per exit code
of the command line: DomainError is bad input (exit 2), PoleError a
numerical condition (exit 3), ConstraintError a gate that fails (exit 4)."""


class RingsimError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RingsimError, ValueError):
    """Bad input: a parameter lies outside its physical or mathematical
    domain, or a run configuration or command-line option cannot be read,
    parsed or validated."""


class PoleError(RingsimError, ValueError):
    """A denominator collapses for the given parameters (e.g. |tau*eta| = 1)."""


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
