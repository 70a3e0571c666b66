"""Exception and warning hierarchy shared by all tvdecay modules."""


class TvDecayError(Exception):
    """Base class for all tvdecay errors."""


# -- measure construction / evaluation ----------------------------------------

class InvalidSpec(TvDecayError):
    """Potential specification is malformed (non-finite V, bad parameters)."""


class NonIntegrablePotential(TvDecayError):
    """exp(-2V) fails the tail test at every finite |x| the truncation reaches."""


class GridMismatch(TvDecayError):
    """A grid function does not align with the measure's grid."""


class NotADensity(TvDecayError):
    """h is negative somewhere or does not have unit mass against mu."""


class VanishingDensity(TvDecayError):
    """pdf underflows in the bulk; sup-type criteria would be spurious."""


# -- eta and psi profiles ------------------------------------------------------

class InadmissibleEta(TvDecayError):
    """eta fails one of the admissibility flags on the probe grid."""


class BadSplice(TvDecayError):
    """Splice point a must exceed max(2, b)."""


class NotPinskerAdmissible(TvDecayError):
    """The Pinsker ratio sup diverges; no finite c_psi exists."""


# -- inequality criteria -------------------------------------------------------

class AsymmetricInput(TvDecayError):
    """The tail criterion is stated for symmetric densities only."""


class DivergentSup(TvDecayError):
    """A criterion sup grows without bound along the grid."""


class BadExponent(TvDecayError):
    """A beta function's parameters or values, the drift-tail p and d_p, a
    capacity-check parameter (rho, the splice point a), or an xi clock (beta(s)
    log(c/s) rising on its probe, or a bracket top that is not positive) are out
    of range."""


class DivergentCcap(TvDecayError):
    """The capacity ratio sup diverges on the probe grid."""


class MissingPoincare(TvDecayError):
    """A finite Poincare bracket is required but could not be computed."""


class GammaNotInvertible(TvDecayError):
    """beta(u)/u is not strictly decreasing on the probe range."""


class MomentMissing(TvDecayError):
    """A truncation envelope needs the moment integral int h*phi(h) dmu."""


class WrongMeasure(TvDecayError):
    """The exact Ornstein-Uhlenbeck kernel requires the V = x^2/2 measure."""


class LowerBoundViolated(TvDecayError):
    """min h_t dropped below 1/2; signals a solver defect, not analysis."""


class SolverBreakdown(TvDecayError):
    """The step matrix Q(I - dt*L) is not finite or not positive definite, a
    right-hand side or state is not finite, a solve fails, or a series
    state's negative mass exceeds max(1e-12, 16 eps ||h0||_{L2(mu)})."""


class ConfigError(TvDecayError):
    """Scenario configuration is missing a key or has a malformed value."""


# -- warnings ------------------------------------------------------------------

class NonYoungWarning(UserWarning):
    """The Young-function candidate is not convex on the probe grid; the
    Legendre transform proceeds with the convex hull."""
