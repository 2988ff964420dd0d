"""Error taxonomy for the pinchlab package.

Every failure mode named by an operation contract gets its own exception
class so callers (and the verify driver) can react precisely.
"""


class PinchlabError(Exception):
    """Base class for all package-specific errors."""


# family -----------------------------------------------------------------

class DisconnectedGraph(PinchlabError):
    """Dual graph of the plumbing family is not connected."""


class OverlappingMarkedPoints(PinchlabError):
    """Marked points coincide or sit closer than the chart separation rule."""


class PointOffFiber(PinchlabError):
    """Chart point lies outside the admissible region of its chart."""


class ZeroRadiusAtNode(PinchlabError):
    """Conformal factor requested at |x| = 0 in a neck chart."""


class UnresolvedChartOverlap(PinchlabError):
    """Fermat chart atlas fails to cover the fiber."""


# mesh -------------------------------------------------------------------

class DegenerateTriangle(PinchlabError):
    """A triangle violates the strict triangle inequality or has zero area."""


class ChartOverlapConflict(PinchlabError):
    """Fiber cannot be decomposed into the structured chart blocks."""


# laplace ----------------------------------------------------------------

class NonFiniteEntry(PinchlabError):
    """Assembled matrix contains NaN or infinity."""


class NoConvergence(PinchlabError):
    """Eigensolver failed to converge within the iteration budget."""


# heat -------------------------------------------------------------------

class InsufficientSpectrum(PinchlabError):
    """Computed spectrum too short: truncation tail exceeds the tolerance."""


# periods ----------------------------------------------------------------

class QuadratureNotConverged(PinchlabError):
    """Polar quadrature (components, Fermat patches, annulus oracle) not converged."""


class AGMNotConverged(PinchlabError):
    """Arithmetic-geometric mean iteration failed to converge."""


class GridMismatch(PinchlabError):
    """Spectra and period grids do not refer to the same parameter grid."""


# rayleigh ---------------------------------------------------------------

class EpsilonOutOfRange(PinchlabError):
    """Cutoff radius epsilon leaves the admissible neck chart range."""


class RankDeficientTestSet(PinchlabError):
    """Test functions are linearly dependent in the discrete space."""


# curvature --------------------------------------------------------------

class StencilOutOfChart(PinchlabError):
    """Finite-difference stencil leaves the chart's admissible region."""


class NotConverged(PinchlabError):
    """Limit extraction did not stabilize on the refinement grid."""


# fitting ----------------------------------------------------------------

class IllConditionedFit(PinchlabError):
    """Regression design matrix is (numerically) rank deficient."""


class UnstableFit(PinchlabError):
    """Fitted model deviates too strongly from the data (wrong model)."""


class GridTooShort(PinchlabError):
    """Parameter grid has too few points or spans too few decades."""


# cli --------------------------------------------------------------------

class SchemaError(PinchlabError):
    """CSV/JSON input does not match the expected schema."""
