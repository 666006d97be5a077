"""Explicit upper bounds on the L1 distance between two additive process laws.

`compute_report` evaluates the pair once: the volatility class, absolute
continuity, L1 and H^2 of the Levy measures, eta, gamma and xi^2 (or the
drift match) are each computed a single time, and every bound is then
decided from those values.  A bound that does not apply gets a short
reason, the first of its hypotheses that fails, checked in that bound's
own order; `bound_thm1`, `bound_thm2` and `bound_simple_sqrt` read their
value from the report and raise HypothesisFailed with that reason.  Raw
bound values are kept unclamped (the sinh bound explodes for large
horizons); only the report's `best` clamps every applicable bound to the
trivial ceiling of 2 before taking the minimum.

Applicability is decided by the volatility class of the pair: shared positive
volatility activates the Gaussian-smoothing terms, shared zero volatility
requires the drift gap to match the compensated jump drift exactly, and any
volatility mismatch or partial degeneracy leaves only the trivial bound.
`_continuous_verdict` makes this decision once, with the reason xi^2 is
missing; the report reads it, and `continuous_part` reads the same verdict
for the Monte Carlo estimators.

The normal CDF and erf of the Gaussian terms are the scalar Cephes ports
of ``_cephes``, equal bit for bit to SciPy's `special` functions; the
library does not need SciPy.
"""

import math
from dataclasses import dataclass

from .errors import (
    DivergentIntegral,
    HypothesisFailed,
    NotAbsolutelyContinuous,
    NotGaussianCase,
    ZeroVolatility,
)
from ._cephes import _erf
from .measures import ZeroMeasure, gamma_nu, hellinger_sq, l1_distance
from .processes import ProblemSpec

# The L1 distance between probability laws never exceeds 2.
TRIVIAL_BOUND = 2.0
_SINH_OVERFLOW = 700.0
_SQRT8 = math.sqrt(8.0)
_INV_2SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))


def _gaussian_term(xi_sq: float) -> float:
    """2 (1 - 2 Phi(-xi/2)), evaluated as 2 erf(xi / (2 sqrt 2)) so small
    distances keep full relative precision."""
    if math.isinf(xi_sq):
        return 2.0
    return 2.0 * _erf(math.sqrt(xi_sq) * _INV_2SQRT2)


# ---------------------------------------------------------------------------
# Applicability: one decision for the bounds and the estimators
# ---------------------------------------------------------------------------


_NO_SHARED_VOL = "undefined without positive shared volatility"


def _continuous_verdict(spec: ProblemSpec, mismatch: bool, vol_class: str, eta_reason=None):
    """The one decision on the continuous part of the pair: (volatility
    reason, drift reason, xi^2 reason, xi^2, drift match), a reason None
    where its hypothesis holds.  The volatilities must agree and not vanish
    on only part of [0, T] (else eta is not computed); then a zero-volatility
    pair must match its drift and a positive-volatility pair needs a finite
    xi^2.  Given eta_reason, the message of an eta the caller found
    divergent, neither is computed; else a divergent eta raises
    DivergentIntegral."""
    if mismatch:
        return "sigma mismatch", None, "instantaneous variances differ on [0, T]", None, None
    if vol_class == "degenerate":
        return "sigma^2 vanishes on part of [0, T]", None, _NO_SHARED_VOL, None, None
    positive = vol_class == "positive"
    if eta_reason is not None:
        return None, "eta divergent", eta_reason if positive else _NO_SHARED_VOL, None, None
    if not positive:
        matched = spec.drift_matched()
        drift_reason = None if matched else "drift mismatch at sigma = 0"
        return None, drift_reason, _NO_SHARED_VOL, None, matched
    xi_sq = spec.xi_sq()
    return None, "xi^2 infinite" if math.isinf(xi_sq) else None, None, xi_sq, None


def continuous_part(spec: ProblemSpec) -> float | None:
    """Check the hypotheses on the continuous part of the pair, as the
    report does, for the Monte Carlo estimators.

    Returns xi^2 for positive volatility and None for zero volatility.
    Raises HypothesisFailed with the first failing hypothesis; a divergent
    eta raises DivergentIntegral.
    """
    vol_reason, drift_reason, _, xi_sq, _ = _continuous_verdict(
        spec, spec.sigma_mismatch(), spec.vol_class()
    )
    if vol_reason or drift_reason:
        raise HypothesisFailed(vol_reason or drift_reason)
    return xi_sq


def _gaussian_case(nu1, nu2, mismatch: bool, vol_class: str) -> None:
    if not (isinstance(nu1, ZeroMeasure) and isinstance(nu2, ZeroMeasure)):
        raise NotGaussianCase("exact value requires both Levy measures to be Zero")
    if mismatch:
        raise ZeroVolatility("instantaneous variances differ on [0, T]")
    if vol_class != "positive":
        raise ZeroVolatility("exact Gaussian distance needs sigma^2 > 0 on [0, T]")


def gaussian_tv_exact(spec: ProblemSpec) -> float:
    """Exact L1 distance for purely Gaussian pairs (no jumps, shared sigma > 0)."""
    _gaussian_case(
        spec.process1.levy, spec.process2.levy, spec.sigma_mismatch(), spec.vol_class()
    )
    return _gaussian_term(spec.xi_sq())


# ---------------------------------------------------------------------------
# Bounds as functions of the ingredients
# ---------------------------------------------------------------------------


def _measure_reason(value: float | None, name: str) -> str | None:
    if value is None:
        return "not-abs-continuous"
    if math.isinf(value):
        return f"{name} infinite"
    return None


def _thm1(horizon: float, h2: float, xi_sq: float | None) -> float:
    """sqrt(8 (1 - exp(-xi^2/8 - T H^2 / 2)); xi_sq is None, and its term
    drops, at zero volatility."""
    arg = 0.125 * (0.0 if xi_sq is None else xi_sq) + 0.5 * horizon * h2
    return _SQRT8 * math.sqrt(-math.expm1(-arg))


def _thm2(horizon: float, l1: float, xi_sq: float | None) -> float:
    """2 sinh(T L1), plus 2 (1 - 2 Phi(-xi/2)) at positive volatility."""
    gauss = 0.0 if xi_sq is None else _gaussian_term(xi_sq)
    z = horizon * l1
    if z >= _SINH_OVERFLOW:
        return math.inf
    return 2.0 * math.sinh(z) + gauss


def _bound_from_report(spec: ProblemSpec, key: str) -> float:
    report = compute_report(spec)
    value = getattr(report, key)
    if value is None:
        raise HypothesisFailed(report.reasons[key])
    return value


def bound_thm1(spec: ProblemSpec) -> float:
    """Hellinger-route bound sqrt(8 (1 - exp(-xi^2/8 - T H^2 / 2))).

    Under shared zero volatility (drift-matched) the xi^2 term drops.
    """
    return _bound_from_report(spec, "thm1")


def bound_thm2(spec: ProblemSpec) -> float:
    """Coupling bound 2 sinh(T L1(nu)) plus, under positive volatility, the
    Gaussian drift term 2 (1 - 2 Phi(-xi/2)). Raw value; may exceed 2."""
    return _bound_from_report(spec, "thm2")


def bound_simple_sqrt(spec: ProblemSpec) -> float:
    """Small-gap bound 2 sqrt(T L1(nu)): zero volatility, matched drift only."""
    return _bound_from_report(spec, "simple_sqrt")


@dataclass(frozen=True)
class BoundReport:
    """All computed ingredients and bounds for one process pair.

    Numeric fields are None when the quantity does not apply or could not be
    computed; the matching entry in `reasons` says why. Bound values are raw
    (unclamped); `best` is the minimum applicable bound clamped to [0, 2],
    or 2 when nothing applies.
    """

    horizon: float
    vol_class: str
    sigma_mismatch: bool
    drift_matched: bool | None
    l1_nu: float | None
    hellinger_sq_nu: float | None
    eta: float | None
    gamma1: float | None
    gamma2: float | None
    xi_sq: float | None
    thm1: float | None
    thm2: float | None
    simple_sqrt: float | None
    gaussian_exact: float | None
    best: float
    reasons: dict


def compute_report(spec: ProblemSpec) -> BoundReport:
    """Evaluate every ingredient once, then every applicable bound."""
    nu1, nu2, horizon = spec.process1.levy, spec.process2.levy, spec.horizon
    reasons: dict[str, str] = {}
    mismatch, vol_class = spec.sigma_mismatch(), spec.vol_class()

    # Measure-level ingredients do not depend on the volatility.
    try:
        l1_nu, hell = l1_distance(nu1, nu2), hellinger_sq(nu1, nu2)
    except NotAbsolutelyContinuous as exc:
        l1_nu = hell = None
        reasons["l1_nu"] = reasons["hellinger_sq_nu"] = str(exc)

    moments = {}  # the small-jump first moments, None where one diverges
    for key, moment in (
        ("eta", spec.eta), ("gamma1", lambda: gamma_nu(nu1)), ("gamma2", lambda: gamma_nu(nu2))
    ):
        try:
            moments[key] = moment()
        except DivergentIntegral as exc:
            moments[key] = None
            reasons[key] = str(exc)

    vol_reason, drift_reason, xi_reason, xi_sq, drift_matched = _continuous_verdict(
        spec, mismatch, vol_class, reasons.get("eta")
    )
    if xi_reason is not None:
        reasons["xi_sq"] = xi_reason

    # Each bound reports the first failing hypothesis in its own order.
    l1_reason = _measure_reason(l1_nu, "L1")
    zero_only = (
        "applies only under shared zero volatility" if vol_class == "positive" else None
    )
    hypotheses = {
        "thm1": (vol_reason, _measure_reason(hell, "H^2"), drift_reason),
        "thm2": (vol_reason, l1_reason, drift_reason),
        "simple_sqrt": (vol_reason, zero_only, drift_reason, l1_reason),
    }
    formulas = {
        "thm1": lambda: _thm1(horizon, hell, xi_sq),
        "thm2": lambda: _thm2(horizon, l1_nu, xi_sq),
        "simple_sqrt": lambda: 2.0 * math.sqrt(horizon * l1_nu),
    }
    values = {}
    for key, in_order in hypotheses.items():
        failed = next(filter(None, in_order), None)
        values[key] = formulas[key]() if failed is None else None
        if failed is not None:
            reasons[key] = failed

    try:
        _gaussian_case(nu1, nu2, mismatch, vol_class)
    except (NotGaussianCase, ZeroVolatility) as exc:
        gaussian_exact = None
        reasons["gaussian_exact"] = str(exc)
    else:
        gaussian_exact = _gaussian_term(xi_sq)

    candidates = [
        min(v, TRIVIAL_BOUND)
        for v in (values["thm1"], values["thm2"], values["simple_sqrt"], gaussian_exact)
        if v is not None
    ]
    best = min(candidates) if candidates else TRIVIAL_BOUND

    return BoundReport(
        horizon=horizon,
        vol_class=vol_class,
        sigma_mismatch=mismatch,
        drift_matched=drift_matched,
        l1_nu=l1_nu,
        hellinger_sq_nu=hell,
        eta=moments["eta"],
        gamma1=moments["gamma1"],
        gamma2=moments["gamma2"],
        xi_sq=xi_sq,
        thm1=values["thm1"],
        thm2=values["thm2"],
        simple_sqrt=values["simple_sqrt"],
        gaussian_exact=gaussian_exact,
        best=best,
        reasons=reasons,
    )
