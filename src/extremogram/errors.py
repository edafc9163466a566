"""Exception types shared across the package.

Every error carries only its message, which says all a caller needs about
the failure. This keeps each one picklable by default: the band functions
pickle a forked worker's error back to the caller (``resample._split``),
and a constructor with more arguments would not rebuild there.
"""


class ExtremogramError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(ExtremogramError):
    """Inputs violate a documented precondition (e.g. an unresolved threshold,
    or a quantile with the wrong sign for its tail)."""


class AnalysisFailed(ExtremogramError):
    """Valid inputs admit no result: no conditioning events at the quantile
    level, too many bootstrap replicates without any, or a GARCH fit that did
    not converge within its iteration cap."""
