"""Exception types shared across the toolkit."""


class OrliczHardyError(Exception):
    """Base class for all toolkit errors."""


class CertificationError(OrliczHardyError):
    """An N-function failed a certification invariant (monotonicity, positivity, ...)."""


class PreconditionError(OrliczHardyError):
    """An operation was called outside its stated hypotheses."""


class DivergenceError(OrliczHardyError):
    """A quantity that must be finite grew past its declared cap."""


class EvaluationError(OrliczHardyError):
    """An integrand or function produced a non-finite value at a node."""


class ManifestError(OrliczHardyError):
    """A corpus manifest failed to parse or validate."""
