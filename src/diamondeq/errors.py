"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant.

    The message names the failed check and, where meaningful, the residual.
    """


class EigendecompositionError(RuntimeError):
    """The eigensolver (or SVD) failed to converge."""


class OracleBoundError(RuntimeError):
    """A solver oracle returned a matrix or value outside its promised bounds
    by more than the roundoff tolerance ``mmw.LOSS_TOL``."""


class GapTooSmallError(RuntimeError):
    """A promise decision is refused rather than guessed: before solving,
    when the promise gap is too small for a direct decision at the
    configured precision, or after solving, when the reported interval
    lies neither above b nor below a. The amplification pipeline that would
    handle such instances is out of scope."""


class CertificateViolation(RuntimeError):
    """A solver result failed its own certificate sanity bounds, indicating a
    numerical problem or an internal bug."""
