"""Exception hierarchy for crossinglab.

Every failure mode that callers are expected to handle gets its own class;
all inherit from CrossingLabError so a harness can catch the lot.
"""


class CrossingLabError(Exception):
    """Base class for all crossinglab errors."""


class ConfigError(CrossingLabError):
    """Malformed configuration document or invalid parameter combination."""


class ZeroOrderUndetermined(CrossingLabError):
    """Derivatives up to the configured maximum order all vanish at a zero."""


class BracketingFailed(CrossingLabError):
    """Sign analysis of the coupling function is inconsistent with its zeros."""


class QuadratureTolExceeded(CrossingLabError):
    """A quadrature could not reach the requested tolerance."""


class AnchorInsideCrossings(CrossingLabError):
    """A tail anchor was placed inside the region containing zeros."""


class TailIntegralVanishes(CrossingLabError):
    """The regularizing tail integral vanishes; the anchor must move."""


class NewtonDiverged(CrossingLabError):
    """Complex Newton iteration failed to converge."""


class BranchAmbiguity(CrossingLabError):
    """Square-root branch tracking failed along a complex integration path."""


class StepUnderflow(CrossingLabError):
    """Integrator step fell below the machine-feasible size."""


class TailNotConverged(CrossingLabError):
    """Improper oscillatory tail integral truncation bound exceeds tolerance."""


class SeriesNotContracting(CrossingLabError):
    """Successive-approximation series terms stopped decreasing."""


class RegimeViolation(CrossingLabError):
    """Requested asymptotic formula used outside its parameter regime."""


class MStarTooSmall(CrossingLabError):
    """Leading-order expansion requires a tangential crossing (order >= 2)."""


class TurningPointFailure(CrossingLabError):
    """Turning-point location or action evaluation failed."""


class NoMinimaFound(CrossingLabError):
    """An interference scan located no local minima."""


class PathCrossesForbiddenBand(CrossingLabError):
    """Every row of a parameter path sits inside the untreated mu ~ 1 band."""
