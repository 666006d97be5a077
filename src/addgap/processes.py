"""Additive process specifications: time-varying local characteristics.

A process is described by a deterministic drift rate f(t), a deterministic
instantaneous variance sigma^2(t), and a Levy measure for the jumps. A
problem pairs two such processes over a common horizon and exposes the
pairwise ingredients the distance bounds are built from: the compensated
drift gap eta, the normalized drift distance xi^2, volatility-class
detection, and drift matching in the driftless-Gaussian case.

Time functions carry exact integrals (polynomial antiderivatives, piecewise
sums); only the quotient integrals behind xi^2 go through quadrature.
"""

import abc
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DivergentIntegral, NonFiniteIntegrand, ZeroVolatility
from .measures import (
    FUNCTIONAL_CACHE_SIZE,
    LevyMeasure,
    TabulatedLevyMeasure,
    _unit_cut_edges,
    pair_difference_fn,
    pair_support_edges,
    validate_levy,
)
from .quadrature import integrate_segments

# Instantaneous variance at or below this is treated as exactly zero.
MACHINE_ZERO = 1e-30
# Uniform probe grid for pointwise function comparisons over [0, T].
PROBE_POINTS = 2049
# Relative tolerance for "equal on [0, T]" verdicts.
MATCH_TOL = 1e-9


# ---------------------------------------------------------------------------
# Deterministic time functions
# ---------------------------------------------------------------------------


class TimeFunction(abc.ABC):
    """Deterministic function of time with an exact integral."""

    @abc.abstractmethod
    def value(self, t: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b], a <= b."""

    def breakpoints(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class ConstantFunction(TimeFunction):
    c: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def integral(self, a, b):
        return self.c * (b - a)


@dataclass(frozen=True)
class PolynomialFunction(TimeFunction):
    """Polynomial in t with coefficients in ascending degree order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")

    def value(self, t):
        return npoly.polyval(np.asarray(t, dtype=float), self.coeffs)

    def integral(self, a, b):
        anti = npoly.polyint(self.coeffs)
        return float(npoly.polyval(b, anti) - npoly.polyval(a, anti))


@dataclass(frozen=True)
class PiecewiseConstantFunction(TimeFunction):
    """values[i] on [breaks[i-1], breaks[i]), values[-1] beyond the last break."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) + 1:
            raise ValueError("piecewise constant needs len(values) == len(breaks) + 1")
        if len(self.breaks) == 0:
            raise ValueError("piecewise constant needs at least one break")
        if not all(x < y for x, y in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must be strictly increasing")

    def value(self, t):
        idx = np.searchsorted(np.asarray(self.breaks), np.asarray(t, dtype=float), side="right")
        return np.asarray(self.values, dtype=float)[idx]

    def integral(self, a, b):
        if not a <= b:
            raise ValueError("integral needs a <= b")
        edges = [a] + [x for x in self.breaks if a < x < b] + [b]
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            idx = int(np.searchsorted(np.asarray(self.breaks), 0.5 * (lo + hi), side="right"))
            total += self.values[idx] * (hi - lo)
        return total

    def breakpoints(self):
        return self.breaks


# ---------------------------------------------------------------------------
# Process and problem specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessSpec:
    """One additive process: drift rate, instantaneous variance, jump measure."""

    drift: TimeFunction
    vol_sq: TimeFunction
    levy: LevyMeasure

    def __post_init__(self):
        check = validate_levy(self.levy)
        if not check.ok:
            raise ValueError(f"invalid Levy measure: {check.message}")


def _probe_grid(horizon: float) -> np.ndarray:
    return np.linspace(0.0, horizon, PROBE_POINTS)


@dataclass(frozen=True)
class ProblemSpec:
    """A pair of additive processes compared over [0, horizon]."""

    process1: ProcessSpec
    process2: ProcessSpec
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and > 0")
        for k, v in enumerate(self._vol_probes, start=1):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"process {k} volatility is not finite on [0, T]")
            if v.min() < 0.0:
                raise ValueError(f"process {k} volatility is negative on [0, T]")

    # -- volatility classification ------------------------------------------

    @cached_property
    def _vol_probes(self) -> tuple[np.ndarray, np.ndarray]:
        """Both instantaneous variances on the probe grid, evaluated once."""
        t = _probe_grid(self.horizon)
        probes = tuple(
            np.asarray(p.vol_sq.value(t), dtype=float)
            for p in (self.process1, self.process2)
        )
        for v in probes:
            v.flags.writeable = False
        return probes

    def sigma_mismatch(self) -> bool:
        """True when the two instantaneous variances differ somewhere on [0, T]."""
        v1, v2 = self._vol_probes
        scale = max(v1.max(), v2.max(), MACHINE_ZERO)
        return bool(np.max(np.abs(v1 - v2)) > MATCH_TOL * scale)

    def vol_class(self) -> str:
        """'zero' | 'positive' | 'degenerate' for the shared variance.

        'degenerate' marks a variance that vanishes on part of [0, T] while
        being positive elsewhere; no bound form covers that case. Meaningful
        only when sigma_mismatch() is False.
        """
        v1, v2 = self._vol_probes
        v = np.maximum(v1, v2)
        if v.max() <= MACHINE_ZERO:
            return "zero"
        if v.min() <= MACHINE_ZERO:
            return "degenerate"
        return "positive"

    # -- pairwise drift and jump-compensation quantities ---------------------

    def eta(self) -> float:
        """Compensated small-jump drift gap: integral of y against the signed
        density gap over {|y| <= 1}.

        Computed jointly, so pairs whose individual small-jump first moments
        diverge but whose gap is integrable still get a finite value.
        """
        return _eta_cached(self.process1.levy, self.process2.levy)

    def xi_sq(self) -> float:
        """Integral over [0, T] of (f1 - f2 - eta)^2 / sigma^2.

        Requires the shared positive-volatility class; math.inf when the
        quotient integral diverges or meets a non-finite quotient, as where
        sigma^2 vanishes between the probe points of vol_class.
        """
        if self.vol_class() == "zero":
            raise ZeroVolatility("xi^2 is undefined for zero volatility")
        eta = self.eta()
        f1, f2 = self.process1.drift, self.process2.drift
        vol = self.process1.vol_sq

        def integrand(t):
            t = np.asarray(t, dtype=float)
            gap = np.asarray(f1.value(t), dtype=float) - np.asarray(f2.value(t), dtype=float) - eta
            return gap * gap / np.asarray(vol.value(t), dtype=float)

        cuts = {0.0, self.horizon}
        for fn in (f1, f2, vol, self.process2.vol_sq):
            cuts.update(b for b in fn.breakpoints() if 0.0 < b < self.horizon)
        try:
            res = integrate_segments(integrand, sorted(cuts))
        except NonFiniteIntegrand:
            return math.inf
        return math.inf if res.diverged else res.value

    def drift_gap_sup(self) -> float:
        """sup over the probe grid of |f1(t) - f2(t) - eta|."""
        eta = self.eta()
        t = _probe_grid(self.horizon)
        gap = (
            np.asarray(self.process1.drift.value(t), dtype=float)
            - np.asarray(self.process2.drift.value(t), dtype=float)
            - eta
        )
        return float(np.max(np.abs(gap)))

    def drift_matched(self) -> bool:
        """Zero-volatility compatibility: f1 - f2 must equal eta on [0, T]."""
        t = _probe_grid(self.horizon)
        scale = max(
            1.0,
            float(np.max(np.abs(np.asarray(self.process1.drift.value(t), dtype=float)))),
            float(np.max(np.abs(np.asarray(self.process2.drift.value(t), dtype=float)))),
        )
        return self.drift_gap_sup() <= MATCH_TOL * scale


@lru_cache(maxsize=FUNCTIONAL_CACHE_SIZE)
def _eta_cached(nu1: LevyMeasure, nu2: LevyMeasure) -> float:
    for nu in (nu1, nu2):
        if isinstance(nu, TabulatedLevyMeasure) and nu.diverges_near_zero(1.0):
            raise DivergentIntegral(
                "tabulated small-jump first moment diverges near 0"
            )
    edges = pair_support_edges(nu1, nu2, clip=(-1.0, 1.0))
    if not edges:
        return 0.0
    diff = pair_difference_fn(nu1, nu2)
    res = integrate_segments(
        lambda y: y * diff(y), edges, singular_at_zero=True
    )
    if res.diverged:
        raise DivergentIntegral("compensated drift gap diverges near 0")
    return res.value


# ---------------------------------------------------------------------------
# Characteristic function (ground truth for simulation checks)
# ---------------------------------------------------------------------------


def char_function(process: ProcessSpec, horizon: float, u) -> np.ndarray:
    """Characteristic function of the process value at the horizon.

    Small jumps (|y| <= 1) enter compensated, matching the simulator's
    centering convention. Returns a complex array over the given frequencies.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    drift_term = process.drift.integral(0.0, horizon)
    var_term = process.vol_sq.integral(0.0, horizon)
    nu = process.levy
    edges = _unit_cut_edges(nu)

    out = np.empty(u_arr.shape, dtype=complex)
    for k, uk in enumerate(u_arr):
        if not edges or uk == 0.0:
            jump_re = jump_im = 0.0
        else:
            jump_re = _jump_re(nu, edges, uk)
            jump_im = _jump_im(nu, edges, uk)
        psi = (
            1j * uk * drift_term
            - 0.5 * uk * uk * var_term
            + horizon * (jump_re + 1j * jump_im)
        )
        out[k] = np.exp(psi)
    return out


def _jump_re(nu, edges, uk):
    def integrand(y):
        y = np.asarray(y, dtype=float)
        s = np.sin(0.5 * uk * y)
        return -2.0 * s * s * nu.density(y)

    res = integrate_segments(integrand, edges, singular_at_zero=True)
    if res.diverged:
        raise DivergentIntegral("characteristic exponent real part diverged")
    return res.value


def _sin_minus_id(s):
    """sin(s) - s without cancellation for small s."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    series = -(s2 * s / 6.0) * (1.0 - s2 / 20.0 * (1.0 - s2 / 42.0 * (1.0 - s2 / 72.0)))
    with np.errstate(invalid="ignore"):
        direct = np.sin(s) - s
    return np.where(np.abs(s) < 0.1, series, direct)


def _jump_im(nu, edges, uk):
    def integrand(y):
        y = np.asarray(y, dtype=float)
        s = uk * y
        inner = _sin_minus_id(s)
        outer = np.sin(s)
        return np.where(np.abs(y) <= 1.0, inner, outer) * nu.density(y)

    res = integrate_segments(integrand, edges, singular_at_zero=True)
    if res.diverged:
        raise DivergentIntegral("characteristic exponent imaginary part diverged")
    return res.value
