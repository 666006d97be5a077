"""Exception hierarchy shared across the package."""


class AddgapError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteIntegrand(AddgapError):
    """An integrand returned nan or +-inf at a probed point."""


class ToleranceNotMet(AddgapError):
    """Adaptive refinement exhausted its budget without convergence or a divergence signature."""


class DivergentIntegral(AddgapError):
    """A required integral (small-jump moment, compensated drift gap, ...) diverges."""


class NotAbsolutelyContinuous(AddgapError):
    """The probe grid found points where nu1 has density but nu2 does not."""


class ZeroVolatility(AddgapError):
    """An operation that divides by sigma^2 met an identically-zero (or < 1e-30) volatility."""


class NotGaussianCase(AddgapError):
    """gaussian_tv_exact requires both Levy measures to be Zero."""


class HypothesisFailed(AddgapError):
    """A bound's applicability hypothesis does not hold for this spec.

    The first argument is a short machine-stable reason string.
    """

    @property
    def reason(self) -> str:
        return self.args[0] if self.args else "hypothesis failed"


class RatioUndefined(AddgapError):
    """A jump landed where the dominating measure's density vanishes."""


class DivergentMass(AddgapError):
    """Exact (epsilon = 0) jump simulation requested for an infinite-activity measure."""


class ConfigParse(AddgapError):
    """Structured configuration error; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class UnknownParameterPath(ConfigParse):
    """A sweep parameter path does not address a numeric leaf of the config."""
