"""Exception taxonomy for the toolkit.

Every error raised by the library derives from HypMetricsError so callers
(and the CLI) can distinguish tool errors from programming errors.
"""


class HypMetricsError(Exception):
    """Base class for all toolkit errors."""


class OutsideDomain(HypMetricsError):
    """A point lies outside the domain of the metric or operation; non-finite
    points (nan or inf in either part) lie outside every domain."""


class SingularPoint(OutsideDomain):
    """A point is the puncture z = 0 of a doubly connected domain."""


class StencilOutsideDomain(HypMetricsError):
    """A finite-difference stencil does not fit inside the domain."""


class NonpositiveDensity(HypMetricsError):
    """The density is zero or negative where a positive value is required."""


class DegenerateSample(HypMetricsError):
    """All sampled ratios equal 1; the fit is degenerate (equality case)."""


class TooFewPoints(HypMetricsError):
    """Not enough usable sample points for a fit."""


class WrongSingularityOrder(HypMetricsError):
    """The metric does not have the singularity type the operation expects."""


class NumericOverflow(HypMetricsError):
    """A value left the range of double precision: a radial solution past
    the overflow guard (blow-up reached), or a curvature that is not finite."""


class BadParameter(HypMetricsError):
    """A parameter is outside its declared range."""


class UnknownSuite(HypMetricsError):
    """The requested verification suite does not exist."""


class ParseError(HypMetricsError):
    """A metric/domain/map specification string could not be parsed."""


class GeodesicSolveFailed(HypMetricsError):
    """The oracle's geodesic solve produced a non-finite value or a singular
    Hessian, found no step inside the domain that lowers its energy, or did
    not converge."""
