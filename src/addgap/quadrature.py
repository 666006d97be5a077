"""Adaptive one-dimensional quadrature for Levy-measure functionals.

Panel scheme: global adaptive interval bisection, refining the worst panel
first. Each panel is estimated with a Gauss-Legendre 15-point rule and its
error with the difference against the 7-point rule; all nodes are strictly
interior, so endpoint singularities are never evaluated. Semi-infinite
intervals are mapped to [0, 1) with y = a + t/(1 - t).

Divergence handling is part of the contract, not an afterthought: integrals
such as int_0^1 y^{-1-alpha} dy with alpha >= 0 must come back flagged as
divergent, never as a large trusted number. Two triggers exist:
  - the running sum of absolute panel values exceeds DIVERGENCE_CAP;
  - panels peeling off a watched singular endpoint keep contributing at a
    near-constant rate over many halvings (logarithmic divergence, which the
    cap alone would take astronomically many levels to reach).

Panels halve geometrically toward singular points down to a width floor of
1e-30 (scaled up near endpoints of large magnitude so quadrature nodes remain
representable). Integrable singularities steeper than about y^{-0.8} stall at
that floor and raise ToleranceNotMet rather than returning an unconverged
value.

Lockstep rounds. A request's breakpoints cut [lower, upper] into pieces,
each with an equal share of abs_tol, and each piece becomes one to three
working intervals (split at 0, tails and a singular origin substituted),
which share the piece's tolerance equally. Each working interval is one
`_Work`: its substitution, the panels it waits for, and, once its first
panel (the whole span) misses max(abs_tol, rel_tol |value|), its bisection
state: heap, running totals, stall trackers and bisection budget.
`_Work.advance` takes the sums of the panels evaluated last and either names
the two halves of the next bisection or sets the outcome. `integrate`
advances all unfinished intervals together: each round it builds the nodes
of every wanted panel, makes one integrand call on their concatenation, and
hands each interval its panel sums. An interval refines in exactly the
order it would alone, so values, error estimates and the set of integrand
points are those of integrating the intervals one after another.

A round's panel sums come from one array pass: the values are viewed as a
(panels, 22) array, and `np.vecdot` takes the 15- and 7-point dot products
of every row at once.  Each row's dot is the BLAS ddot that a single
panel's `_HI_W @ values` makes, and the products with the half widths are
Python floats, so every sum has the bits of summing one panel at a time
and overflows to inf as silently.  In a round with a non-finite value, each
interval stops at its first bad node.

Outcomes resolve in piece order, then in interval order: the first interval
that diverges, meets a non-finite value or misses its tolerance decides the
result, and the intervals after it are no longer evaluated.

The integrand maps a float array of points to a float array of the same
shape. A value of another shape raises ValueError, and an exception the
integrand raises propagates from `integrate` unchanged.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonFiniteIntegrand, ToleranceNotMet

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8
DIVERGENCE_CAP = 1e8
MIN_PANEL_WIDTH = 1e-30
MAX_BISECTIONS = 20_000

# Stall detector: this many consecutive peel-off contributions with ratio
# >= _STALL_RATIO at a watched singular endpoint is read as divergence.
_STALL_WINDOW = 24
_STALL_RATIO = 0.999

_LO_X, _LO_W = leggauss(7)
_HI_X, _HI_W = leggauss(15)
# Node layout for one panel evaluation: 15 high-order then 7 low-order nodes.
_NODES = np.concatenate([_HI_X, _LO_X])
_N = _NODES.size


@dataclass(frozen=True)
class IntegrationRequest:
    integrand: Callable
    lower: float
    upper: float
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL
    singular_at_zero: bool = False
    # Sorted cut points in [lower, upper]: known kinks and support edges.
    # Each piece between neighbours gets an equal share of abs_tol; equal
    # neighbours collapse.
    breakpoints: tuple[float, ...] = ()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    diverged: bool


def _width_floor(a: float, b: float) -> float:
    # Near endpoints of magnitude ~1 the quadrature nodes of a panel narrower
    # than ~2e-13*|edge| would collide in double precision.
    return max(MIN_PANEL_WIDTH, 2e-13 * max(abs(a), abs(b)))


class _Diverged(Exception):
    """Outcome of a working interval on which a divergence trigger fired.

    args[0] carries the signed partial value at the moment of detection.
    """


class _Tracker:
    """Peel-off contributions at one watched singular endpoint."""

    def __init__(self, coord: float, abs_tol: float):
        self.coord = coord
        self.abs_tol = abs_tol
        self.contribs: list[float] = []

    def stalled(self, value: float) -> bool:
        self.contribs.append(abs(value))
        c = self.contribs
        if len(c) < _STALL_WINDOW:
            return False
        tail = c[-_STALL_WINDOW:]
        if min(tail) <= self.abs_tol:
            return False
        ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
        return min(ratios) >= _STALL_RATIO


# Substitutions: `pre` maps working nodes to integrand points and returns
# what `post` needs to weight the integrand values.


def _tail(edge: float, sign: float):
    """[edge, inf) (sign 1) or (-inf, edge] (sign -1) from t in [0, 1) via
    y = edge + sign t/(1 - t)."""

    def pre(ts):
        u = 1.0 - ts
        return edge + sign * (ts / u), u

    return pre, _tail_weight


def _tail_weight(gy, u):
    return gy / (u * u)


def _power(sign: float):
    """(0, hi] (sign 1) or [-hi, 0) (sign -1) from u in (0, hi^(1/5)] via
    y = sign u^5.

    Softens an integrable singularity at 0 (y^-p becomes u^(4-5p), integrable
    up to p just below 1) while keeping true divergence divergent: y^-1 maps
    to u^-1, so the stall detector still fires on the borderline case.
    """

    def pre(us):
        u4 = us * us * us * us
        return sign * (u4 * us), u4

    return pre, _power_weight


def _power_weight(gy, u4):
    return gy * (5.0 * u4)


class _Work:
    """One working interval, finite after its substitution: the panels it
    waits for (at first its whole span), its bisection state once its first
    panel misses the tolerance, and its outcome once it has one: (value,
    error), _Diverged or ToleranceNotMet."""

    __slots__ = (
        "pre", "post", "a", "b", "abs_tol", "rel_tol", "trackers", "panels", "aux", "sums",
        "outcome", "heap", "tie", "budget", "total_val", "total_err", "total_abs",
    )

    def __init__(self, substitution, lo, hi, abs_tol, rel_tol, wl, wr):
        self.pre, self.post = substitution or (None, None)
        self.a, self.b = lo, hi
        self.abs_tol, self.rel_tol = abs_tol, rel_tol
        self.trackers = [_Tracker(c, abs_tol) for c, watch in ((lo, wl), (hi, wr)) if watch]
        self.panels = ((lo, hi),)
        self.heap = None
        self.outcome = None

    def advance(self) -> bool:
        """Take the sums of the panels evaluated last and bisect the worst
        panel, adaptively; True when the work waits for the two halves in
        `panels`, else its outcome is set."""
        if self.heap is None:
            ((val, err),) = self.sums
            # The test the bisection makes before its first step.
            if err <= max(self.abs_tol, self.rel_tol * abs(val)):
                self.outcome = (val, err)
                return False
            self.heap = [(-err, 0, self.a, self.b, val, err)]
            self.tie = 1
            self.budget = MAX_BISECTIONS
            self.total_val, self.total_err, self.total_abs = val, err, abs(val)
        else:
            (pa, m), (_, pb) = self.panels
            (lval, lerr), (rval, rerr) = self.sums
            heapq.heappush(self.heap, (-lerr, self.tie, pa, m, lval, lerr))
            heapq.heappush(self.heap, (-rerr, self.tie + 1, m, pb, rval, rerr))
            self.tie += 2
            self.total_val += lval + rval
            self.total_err += lerr + rerr
            self.total_abs += abs(lval) + abs(rval)
            for tracker in self.trackers:
                # The half peeled off the watched end: the far one from it.
                peeled = rval if pa == tracker.coord else lval
                if tracker.coord in (pa, pb) and tracker.stalled(peeled):
                    self.outcome = _Diverged(self.total_val)
                    return False

        # Each pass, a skipped narrow panel too, spends one of MAX_BISECTIONS.
        while self.budget > 0:
            self.budget -= 1
            if self.total_err <= max(self.abs_tol, self.rel_tol * abs(self.total_val)):
                self.outcome = (self.total_val, self.total_err)
                return False
            if self.total_abs >= DIVERGENCE_CAP:
                self.outcome = _Diverged(self.total_val)
                return False
            if not self.heap:
                break
            _, _, pa, pb, pval, perr = heapq.heappop(self.heap)
            if pb - pa <= _width_floor(pa, pb):
                continue
            self.total_val -= pval
            self.total_err -= perr
            self.total_abs -= abs(pval)
            m = 0.5 * (pa + pb)
            self.panels = ((pa, m), (m, pb))
            return True

        if self.total_err <= max(self.abs_tol, self.rel_tol * abs(self.total_val)):
            self.outcome = (self.total_val, self.total_err)
        else:
            self.outcome = ToleranceNotMet(
                f"refinement budget exhausted on [{self.a!r}, {self.b!r}]: "
                f"value ~ {self.total_val!r}, error ~ {self.total_err!r}"
            )
        return False


def _working_intervals(a: float, b: float, singular: bool) -> list[tuple]:
    """(substitution, lo, hi, watch_left, watch_right) covering [a, b]."""
    # Split at 0 when it is interior (needed both for the singular flag and
    # to anchor the two tail substitutions of a fully infinite interval).
    cuts = [a, b]
    if a < 0.0 < b and (singular or (math.isinf(a) and math.isinf(b))):
        cuts = [a, 0.0, b]

    # Keep infinite tails off a singular origin so the power substitution
    # always acts on a finite span.
    if singular:
        expanded = [cuts[0]]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if 0.0 in (lo, hi) and math.isinf(lo + hi):
                expanded.append(math.copysign(1.0, lo + hi))
            expanded.append(hi)
        cuts = expanded

    work = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # A tail maps from its finite end, the power substitution from 0.
        sign = 1.0 if math.isinf(hi) or lo == 0.0 else -1.0
        near, far = (lo, hi) if sign > 0 else (hi, lo)
        if math.isinf(far):
            work.append((_tail(near, sign), 0.0, 1.0, singular and near == 0.0, True))
        elif singular and near == 0.0:
            work.append((_power(sign), 0.0, (sign * far) ** 0.2, True, False))
        else:
            work.append((None, lo, hi, False, False))
    return work


def _evaluate(f: Callable, works: list[_Work]) -> None:
    """Evaluate every panel the works wait for with one call of f.

    f maps the round's points, a flat array of _N entries a panel, to an
    array of the same shape; another shape raises ValueError, and what f
    raises propagates. Leaves each work the (value, error) sums of its
    panels in `sums`, or in `outcome` the NonFiniteIntegrand that stops it.
    """
    spans = []
    centres = []
    for w in works:
        first = len(centres)
        for lo, hi in w.panels:
            centres.append((0.5 * (lo + hi), 0.5 * (hi - lo)))
        spans.append((w, first, len(centres)))
    mh = np.array(centres)
    ts = (mh[:, :1] + mh[:, 1:] * _NODES).ravel()
    blocks = []
    for w, p0, p1 in spans:
        if w.pre is None:
            blocks.append(ts[p0 * _N : p1 * _N])
        else:
            y, w.aux = w.pre(ts[p0 * _N : p1 * _N])
            blocks.append(y)
    ys = np.concatenate(blocks)

    with np.errstate(all="ignore"):
        gy = np.asarray(f(ys), dtype=float)
        if gy.shape != ys.shape:
            raise ValueError(f"integrand returned shape {gy.shape} for points of shape {ys.shape}")
        blocks = []
        for w, p0, p1 in spans:
            block = gy[p0 * _N : p1 * _N]
            blocks.append(block if w.post is None else w.post(block, w.aux))
        gy = np.concatenate(blocks)
        # One pass over the round: each row's dot is the BLAS ddot that
        # _HI_W @ row makes, so every bit is that of a panel.  The weights
        # are positive, so a non-finite value makes its dot non-finite, and
        # finite dots need no look at gy.
        rows = gy.reshape(-1, _N)
        highs = np.vecdot(rows[:, :15], _HI_W).tolist()
        lows = np.vecdot(rows[:, 15:], _LO_W).tolist()
        finite = math.isfinite(sum(highs) + sum(lows)) or np.isfinite(gy).all()
    sums = []
    for (_, half), high, low in zip(centres, highs, lows):
        value = half * high
        low = half * low
        sums.append((value, abs(value - low)))
    for w, p0, p1 in spans:
        if not finite:
            bad = ~np.isfinite(gy[p0 * _N : p1 * _N])
            if bad.any():
                x_bad = float(ts[p0 * _N + int(np.argmax(bad))])
                w.outcome = NonFiniteIntegrand(
                    f"integrand returned a non-finite value at x = {x_bad!r}"
                )
                continue
        w.sums = sums[p0:p1]


def integrate(request: IntegrationRequest) -> IntegrationResult:
    """Integrate request.integrand over [lower, upper], cut at its breakpoints.

    The integrand maps a float array to one of the same shape. Infinite
    bounds are allowed. With singular_at_zero each piece is split
    at 0 and the origin is approached by geometric refinement; divergence at
    the origin or in an infinite tail is reported via the diverged flag.
    """
    a, b = float(request.lower), float(request.upper)
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise ValueError(f"invalid interval [{a!r}, {b!r}]")
    if math.isnan(request.abs_tol) or math.isnan(request.rel_tol):
        raise ValueError("tolerances must not be nan")
    if request.abs_tol <= 0 and request.rel_tol <= 0:
        raise ValueError("at least one tolerance must be positive")
    pairs = _pieces([a, *map(float, request.breakpoints), b]) if request.breakpoints else [(a, b)]

    pieces = []
    works = []
    for lo, hi in pairs:
        intervals = _working_intervals(lo, hi, request.singular_at_zero)
        seg_abs = request.abs_tol / len(pairs) / len(intervals)
        piece = []
        for sub, wlo, whi, wl, wr in intervals:
            piece.append(_Work(sub, wlo, whi, seg_abs, request.rel_tol, wl, wr))
        pieces.append(piece)
        works += piece

    f = request.integrand
    active = works
    while active:
        _evaluate(f, active)
        waiting = []
        for w in active:
            if w.outcome is None and w.advance():
                waiting.append(w)
                continue
            if isinstance(w.outcome, Exception):
                break  # the intervals after it can no longer change the result
        active = waiting

    value = 0.0
    error = 0.0
    for piece in pieces:
        piece_value = 0.0
        piece_error = 0.0
        for w in piece:
            if isinstance(w.outcome, _Diverged):
                sign = -1.0 if w.outcome.args[0] < 0 else 1.0
                return IntegrationResult(sign * DIVERGENCE_CAP, math.inf, True)
            if isinstance(w.outcome, Exception):
                raise w.outcome
            piece_value += w.outcome[0]
            piece_error += w.outcome[1]
        value += piece_value
        error += piece_error
    return IntegrationResult(value, error, False)


def _pieces(edges: list[float]) -> list[tuple[float, float]]:
    """The non-empty (lo, hi) pieces between sorted, nan-free edges."""
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        if not lo <= hi:
            raise ValueError(f"edges must be sorted and free of nan: {edges!r}")
        if lo < hi:
            pieces.append((lo, hi))
    return pieces
