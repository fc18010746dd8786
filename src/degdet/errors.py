"""Exception types shared across the solver, oracles, and I/O layers."""


class DegDetError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(DegDetError):
    """Operands have incompatible shapes or ambient dimensions."""


class NonPrimeError(DegDetError):
    """A modulus that must be prime is not."""


class PositiveDegreeError(DegDetError):
    """A pencil update would create a coefficient of positive degree.

    This can only happen when the certificate handed to the update does not
    actually have the promised zero block, so it is raised rather than
    clamped: masking it would corrupt the accumulated degree count.
    """


class NcRankGapError(DegDetError):
    """The Wong sequence escaped at every sampled point of a pencil and of its
    (n-1)-fold blow-up, so no certificate was found.

    Over a tiny field every point can fall short of the maximum rank; over a
    large one this takes exceptionally bad luck.
    """


class IterationBoundExceededError(DegDetError):
    """A solve phase used more oracle calls than the proven bound allows."""


class PrecisionUnsupportedError(DegDetError):
    """The modulus is too small for the requested evaluation point count."""


class RetryExhaustedError(DegDetError):
    """A randomized retry budget ran out without a usable result."""


class ExtractionFailedError(DegDetError):
    """No perfect consistent 2-matching was found in a nonsingular pencil."""


class SizeLimitError(DegDetError):
    """The requested computation exceeds its hard-coded enumeration budget."""


class FormatError(DegDetError):
    """An instance file is malformed or has an unsupported schema version."""


class AllPrimesFailedError(DegDetError):
    """Every prime in the reduction budget failed or was skipped."""
