"""Exception types shared across the package."""


class ExtremogramError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(ExtremogramError):
    """Inputs violate a documented precondition."""


class InvalidState(ExtremogramError):
    """An object was used before it was ready (e.g. an unresolved threshold)."""


class DegenerateThreshold(ExtremogramError):
    """A resolved threshold is zero or has the wrong sign for its tail."""


class NoExceedances(ExtremogramError):
    """No conditioning events at the requested quantile level.

    Carries the quantile level and series length so callers can lower q.
    """

    def __init__(self, message: str, q: float | None = None, n: int | None = None):
        super().__init__(message)
        self.q = q
        self.n = n


class UnstableResample(ExtremogramError):
    """Too many bootstrap replicates lost all conditioning events."""

    def __init__(self, message: str, skip_rate: float):
        super().__init__(message)
        self.skip_rate = skip_rate

    def __reduce__(self):  # the default passes only the message
        return type(self), (str(self), self.skip_rate)


class FitDiverged(ExtremogramError):
    """A volatility fit failed to converge; carries the last iterate."""

    def __init__(self, message: str, params=None, grad_norm: float | None = None):
        super().__init__(message)
        self.params = params
        self.grad_norm = grad_norm
