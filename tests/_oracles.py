"""Shared brute-force oracles and frozen expected values for the test suite.

Frozen constants were computed with mpmath at 40 digits and cross-checked
against the Riemann oracle below; the self-check test in test_quadrature
re-derives them at import-accuracy so a corrupted constant cannot go unseen.
"""

import bisect
import dataclasses
import heapq
import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly

from addgap.bounds import continuous_part
from addgap.measures import (
    AbsContinuityReport,
    LevyMeasure,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    ZeroMeasure,
    _by_sign,
    _Interval,
)
from addgap.errors import NonFiniteIntegrand, ToleranceNotMet
from addgap import montecarlo, processes, quadrature
from addgap.montecarlo import _ct_dt_row, _one, e_abs_one_minus_exp_normal
from addgap.quadrature import (
    _HI_W,
    _LO_W,
    _NODES,
    DIVERGENCE_CAP,
    IntegrationResult,
    _Diverged,
    _Tracker,
    _width_floor,
)


def path_sums(batch, values=None):
    """Per-path sums of ``values`` (default: the sizes) of a jump batch, by
    one ``np.bincount`` keyed by the path of each jump."""
    ids = np.repeat(np.arange(batch.n_paths), batch.counts)
    weights = batch.sizes if values is None else values
    sums = np.bincount(ids, weights=weights, minlength=batch.n_paths)
    return sums.astype(float, copy=False)  # an empty bincount is integer


def chunk_values(monkeypatch, estimate):
    """The path values of each chunk that ``estimate()`` reduces when one
    worker thread runs the chunks, one value per path: a chunk given on a
    support (a pair that draws a histogram of jump counts) has each value
    repeated as many times as paths take it."""
    monkeypatch.setenv("ADDGAP_THREADS", "1")
    seen = []
    moments = montecarlo._moments

    def record(v, counts):
        seen.append(np.array(v if counts is None else np.repeat(v, counts), copy=True))
        return moments(v, counts)

    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_moments", record)
        estimate()
    return seen


def estimator_inputs(monkeypatch, spec, n_paths, epsilon, seed):
    """C_T + D_T of each path, as the value_fn of the Monte Carlo estimators
    receives it, chunk after chunk (``chunk_values``)."""
    seen = chunk_values(
        monkeypatch, lambda: _one(_ct_dt_row(spec, n_paths, epsilon, seed, lambda x: x))
    )
    return np.concatenate(seen)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def loaded(name):
    """Yield perfbench/<name>.py as a module, registered while in use."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def clear_caches():
    """Empty every cache in the addgap modules (each attribute with a
    ``cache_clear``), so that the next call computes from scratch: the
    measure functionals ``validate_levy``, ``check_abs_continuity``,
    ``l1_distance``, ``hellinger_sq`` and ``gamma_nu``, the pair's eta, and
    the sampler's per-(measure, epsilon) masses, shifts and size tables."""
    for name, module in list(sys.modules.items()):
        if name == "addgap" or name.startswith("addgap."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def report_bits(report):
    """Every field of a BoundReport, floats as hex, so that equality is
    equality of bits (0.0 and -0.0 differ, nan equals nan)."""
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in dataclasses.asdict(report).items()
    }


def riemann_log(f, lo, hi, n=10_000_000):
    """Composite midpoint rule on a log-spaced grid with n panels.

    The acceptance-grade brute-force oracle: no adaptivity, no reuse of the
    library integrator. Accuracy on y^{-0.5}-type singular integrands is
    limited by the lo cutoff (tail below lo is dropped), about 1.3e-8
    relative for lo = 1e-16.
    """
    edges = np.logspace(np.log10(lo), np.log10(hi), n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(f(mids) * np.diff(edges)))


# int_0^inf |e^{-2y} - e^{-y}| y^{-1.5} dy  = 2 sqrt(pi) (sqrt(2) - 1)
L1_EX3 = 1.4683488474509690
# int_0^inf (e^{-y/2} - 1)^2 e^{-y} y^{-1.5} dy = 2 sqrt(pi)(2 sqrt(1.5) - sqrt(2) - 1)
H2_EX3 = 0.12505080362617885
# same with y^{-2.5} (alpha = 1.5): Gamma(-3/2)(2^1.5 - 2*1.5^1.5 + 1)
H2_EX3_A15 = 0.36439881219081080
# int_0^1 y^{-0.5} e^{-y} dy = sqrt(pi) erf(1)
GAMMA_POS_LAM1 = 1.4936482656248541
# int_0^1 y^{-0.5} e^{-2y} dy = sqrt(pi/2) erf(sqrt(2))
GAMMA_POS_LAM2 = 1.1962880133226082
# eta of the heavy-tail example pair: GAMMA_POS_LAM2 - GAMMA_POS_LAM1
ETA_EX3 = -0.29736025230224585
# standard normal cdf at -1
PHI_M1 = 0.15865525393145705
# 2 (1 - 2 phi(-1)): exact Gaussian distance for drift gap 1, sigma^2 = 1, T = 4
GAUSS_T4 = 1.3653789842741718
# (sqrt(1.2) - 1)^2: Hellinger between compound Poisson intensities 1.2 / 1.0
H2_CP12 = 0.009109769979335546
# sqrt(8 (1 - exp(-H2_CP12 / 2))): sigma = 0 Hellinger-rate bound at T = 1
THM1_CP12_T1 = 0.19067306538954182
TWO_SINH_02 = 0.40267200508218798
TWO_SINH_04 = 0.82150465160563102
TWO_SINH_1 = 2.3504023872876029
# E|1 - e^X| for X ~ N(1, 4), by 40-digit quadrature of |1 - e^x| against
# the normal density (mpmath.quad over (-inf, 0, inf)).  The two-phi short
# form 2(phi(-1/2) - phi(-5/2)) is NOT this value: that identity needs the
# unit-mean normalization m = -s^2/2, and at (m, s) = (1, 2) a direct Monte
# Carlo sits at ~19.45, not 0.60.
EABS_1_2 = 19.453163076276613


def inverse_gaussian_pdf(mean, shape):
    """Density of the inverse Gaussian law IG(mean, shape) on s > 0."""

    def pdf(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):
            out = np.sqrt(shape / (2.0 * math.pi * s**3)) * np.exp(
                -shape * (s - mean) ** 2 / (2.0 * mean * mean * s)
            )
        return np.where(s > 0.0, out, 0.0)

    return pdf


def exact_ts_l1(spec):
    """(E|1 - M_T|, quadrature error estimate) for a pair of tempered-stable
    measures with equal alpha = 1/2 and equal C+-, without simulation.

    On a side where lambda1 != lambda2 the log-ratio is -(lambda1 -
    lambda2)|y|, so D_T = shift - sum over those sides of (lambda1 -
    lambda2) S, where S is the side's jump sum under nu2, independent
    IG(C T sqrt(pi / lambda2), 2 pi (C T)^2), and shift = -T integral of
    (nu1 - nu2) = -T sum C Gamma(-1/2) (sqrt(lambda1) - sqrt(lambda2)).
    Given D_T, E|1 - M_T| is |1 - e^D| without a Gaussian part and
    e_abs_one_minus_exp_normal(D - xi^2/2, xi) with one.  That is
    integrated against the IG density of one side by
    ``quadrature.integrate``; with two differing sides the second side's
    expectation is an inner integral (a convolution).
    """
    nu1, nu2, horizon = spec.process1.levy, spec.process2.levy, spec.horizon
    assert nu1.alpha == nu2.alpha == 0.5
    assert (nu1.c_minus, nu1.c_plus) == (nu2.c_minus, nu2.c_plus)
    sides = [
        (c, lam1, lam2)
        for c, lam1, lam2 in (
            (nu1.c_minus, nu1.lam_minus, nu2.lam_minus),
            (nu1.c_plus, nu1.lam_plus, nu2.lam_plus),
        )
        if lam1 != lam2
    ]
    shift = -horizon * sum(
        c * math.gamma(-0.5) * (math.sqrt(lam1) - math.sqrt(lam2)) for c, lam1, lam2 in sides
    )
    xi_sq = continuous_part(spec)
    if xi_sq is None:
        def given_d(d):
            return np.abs(np.expm1(d))
    else:
        xi = math.sqrt(xi_sq)
        given_d = np.vectorize(lambda d: e_abs_one_minus_exp_normal(d - 0.5 * xi_sq, xi))

    def side_expectation(f, side, tol):
        # d -> (E f(d - (lambda1 - lambda2) S), error estimate) for the
        # jump sum S of one side.
        c, lam1, lam2 = side
        ct, rate = c * horizon, lam1 - lam2
        pdf = inverse_gaussian_pdf(ct * math.sqrt(math.pi / lam2), 2.0 * math.pi * ct * ct)

        def at(d):
            # The kink of |1 - e^x| at x = 0 lies at s = d / rate.
            kink = (d / rate,) if d / rate > 0.0 else ()
            res = quadrature.integrate(
                quadrature.IntegrationRequest(
                    lambda s: f(d - rate * s) * pdf(s), 0.0, math.inf, tol, tol, True, kink
                )
            )
            return res.value, res.error_estimate

        return at

    if not sides:
        return float(given_d(shift)), 0.0
    if len(sides) == 1:
        return side_expectation(given_d, sides[0], 1e-12)(shift)
    inner = side_expectation(given_d, sides[1], 1e-11)
    convolved = np.vectorize(lambda d: inner(d)[0])
    return side_expectation(convolved, sides[0], 1e-9)(shift)


# ---------------------------------------------------------------------------
# Sequential adaptive quadrature: the bit-identity reference for the
# lockstep integrator in addgap.quadrature. One working interval at a time, one
# integrand call per panel, pieces in order with an early return.
# ---------------------------------------------------------------------------


def _seq_panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid + half * _NODES
    ys = f(xs)
    bad = ~np.isfinite(ys)
    if bad.any():
        x_bad = float(xs[bad][0])
        raise NonFiniteIntegrand(f"integrand returned a non-finite value at x = {x_bad!r}")
    hi = half * float(_HI_W @ ys[:15])
    lo = half * float(_LO_W @ ys[15:])
    return hi, abs(hi - lo)


def _seq_adaptive(f, a, b, abs_tol, rel_tol, watch_left, watch_right):
    left_tracker = _Tracker(a, abs_tol) if watch_left else None
    right_tracker = _Tracker(b, abs_tol) if watch_right else None

    val, err = _seq_panel(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    tie = 1
    total_val = val
    total_err = err
    total_abs = abs(val)

    for _ in range(quadrature.MAX_BISECTIONS):  # looked up, so tests may patch it
        if total_err <= max(abs_tol, rel_tol * abs(total_val)):
            return total_val, total_err
        if total_abs >= DIVERGENCE_CAP:
            raise _Diverged(total_val)
        if not heap:
            break
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa <= _width_floor(pa, pb):
            continue
        total_val -= pval
        total_err -= perr
        total_abs -= abs(pval)
        m = 0.5 * (pa + pb)
        lval, lerr = _seq_panel(f, pa, m)
        rval, rerr = _seq_panel(f, m, pb)
        heapq.heappush(heap, (-lerr, tie, pa, m, lval, lerr))
        heapq.heappush(heap, (-rerr, tie + 1, m, pb, rval, rerr))
        tie += 2
        total_val += lval + rval
        total_err += lerr + rerr
        total_abs += abs(lval) + abs(rval)
        if left_tracker is not None and pa == left_tracker.coord:
            if left_tracker.stalled(rval):
                raise _Diverged(total_val)
        if right_tracker is not None and pb == right_tracker.coord:
            if right_tracker.stalled(lval):
                raise _Diverged(total_val)

    if total_err <= max(abs_tol, rel_tol * abs(total_val)):
        return total_val, total_err
    raise ToleranceNotMet(
        f"refinement budget exhausted on [{a!r}, {b!r}]: "
        f"value ~ {total_val!r}, error ~ {total_err!r}"
    )


def _seq_tail_up(f, a):
    def g(ts):
        u = 1.0 - ts
        ys = a + ts / u
        return f(ys) / (u * u)

    return g


def _seq_tail_down(f, b):
    def g(ts):
        u = 1.0 - ts
        ys = b - ts / u
        return f(ys) / (u * u)

    return g


def _seq_power_up(f, hi):
    def g(us):
        u4 = us * us * us * us
        return f(u4 * us) * (5.0 * u4)

    return g, hi**0.2


def _seq_power_down(f, lo):
    def g(us):
        u4 = us * us * us * us
        return f(-(u4 * us)) * (5.0 * u4)

    return g, (-lo) ** 0.2


def per_panel_sums(f, work):
    """The (value, error) sums of the panels a quadrature._Work waits for,
    one panel at a time: its nodes, substitution, one call of f and the two
    Gauss-Legendre dot products, as `_evaluate` made them before it reduced
    a round in one array pass.  The products are Python floats, which
    overflow to inf silently."""
    sums = []
    for lo, hi in work.panels:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts = mid + half * _NODES
        if work.pre is None:
            gy = f(ts)
        else:
            ys, aux = work.pre(ts)
            gy = work.post(f(ys), aux)
        value = half * float(_HI_W @ gy[:15])
        low = half * float(_LO_W @ gy[15:])
        sums.append((value, abs(value - low)))
    return sums


def sequential_integrate(request):
    """addgap.quadrature.integrate, one piece after another with an early
    return on the first divergent piece, and in each piece one working
    interval after another (breakpoints assumed sorted and nan-free)."""
    a, b = float(request.lower), float(request.upper)
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise ValueError(f"invalid interval [{a!r}, {b!r}]")
    if math.isnan(request.abs_tol) or math.isnan(request.rel_tol):
        raise ValueError("tolerances must not be nan")
    if request.abs_tol <= 0 and request.rel_tol <= 0:
        raise ValueError("at least one tolerance must be positive")

    edges = [a, *map(float, request.breakpoints), b]
    pairs = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if lo < hi]
    value = 0.0
    error = 0.0
    with np.errstate(all="ignore"):
        for lo, hi in pairs:
            res = _sequential_piece(
                request.integrand, lo, hi, request.abs_tol / len(pairs), request.rel_tol,
                request.singular_at_zero,
            )
            if res.diverged:
                return res
            value += res.value
            error += res.error_estimate
    return IntegrationResult(value, error, False)


def _sequential_piece(f, a, b, abs_tol, rel_tol, singular):
    cuts = [a, b]
    if a < 0.0 < b and (singular or (math.isinf(a) and math.isinf(b))):
        cuts = [a, 0.0, b]
    if singular:
        expanded = [cuts[0]]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if lo == 0.0 and math.isinf(hi):
                expanded.append(1.0)
            elif hi == 0.0 and math.isinf(lo):
                expanded.append(-1.0)
            expanded.append(hi)
        cuts = expanded

    work = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if math.isinf(hi):
            work.append((_seq_tail_up(f, lo), 0.0, 1.0, singular and lo == 0.0, True))
        elif math.isinf(lo):
            work.append((_seq_tail_down(f, hi), 0.0, 1.0, singular and hi == 0.0, True))
        elif singular and lo == 0.0:
            g, umax = _seq_power_up(f, hi)
            work.append((g, 0.0, umax, True, False))
        elif singular and hi == 0.0:
            g, umax = _seq_power_down(f, lo)
            work.append((g, 0.0, umax, True, False))
        else:
            work.append((f, lo, hi, False, False))

    seg_abs = abs_tol / len(work)
    value = 0.0
    error = 0.0
    for g, lo, hi, wl, wr in work:
        try:
            v, e = _seq_adaptive(g, lo, hi, seg_abs, rel_tol, wl, wr)
        except _Diverged as d:
            sign = -1.0 if d.args[0] < 0 else 1.0
            return IntegrationResult(sign * DIVERGENCE_CAP, math.inf, True)
        value += v
        error += e
    return IntegrationResult(value, error, False)


# ---------------------------------------------------------------------------
# Reference support edges: the three edge helpers that
# addgap.measures.support_edges replaced, kept as they were.  Per sign and
# with cuts it must equal them; with a clip, it must equal
# pair_support_edges restricted to the hull of the clipped segments (the
# old helper clipped the hull instead, so a gap of the support around a
# clip bound gave edges on which every density is 0).
# ---------------------------------------------------------------------------


def _side_edges(nu: LevyMeasure, lo_mag: float, hi_mag: float) -> list[list[float]]:
    """Sorted edges of support ∩ {lo_mag < |y| < hi_mag}, one list per sign,
    negative side first, split at the breakpoints inside; a side without
    support gets an empty list.  Every built-in family has at most one
    support segment per sign, so each list covers one segment."""
    out = []
    for window in ((-hi_mag, -lo_mag), (lo_mag, hi_mag)):
        pts = set()
        for a, b in nu.support_segments():
            lo, hi = max(a, window[0]), min(b, window[1])
            if lo < hi:
                pts.update((lo, hi))
        if pts:
            lo, hi = min(pts), max(pts)
            pts.update(b for b in nu.breakpoints() if lo < b < hi)
        out.append(sorted(pts))
    return out


def _unit_cut_edges(nu: LevyMeasure) -> list[float]:
    """The support edges of nu, also cut at -1 and 1 where they fall
    inside, for integrands that switch form at |y| = 1."""
    edges = pair_support_edges(nu, ZeroMeasure())
    for cut in (-1.0, 1.0):
        if edges and edges[0] < cut < edges[-1] and cut not in edges:
            edges = sorted(edges + [cut])
    return edges


def pair_support_edges(nu1, nu2, clip: _Interval | None = None):
    segs = list(nu1.support_segments()) + list(nu2.support_segments())
    if not segs:
        return []
    lo = min(s[0] for s in segs)
    hi = max(s[1] for s in segs)
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
        if not lo < hi:
            return []
    pts = {lo, hi}
    if lo < 0.0 < hi:
        pts.add(0.0)
    for p in (p for s in segs for p in s):
        if lo < p < hi:
            pts.add(p)
    for b in tuple(nu1.breakpoints()) + tuple(nu2.breakpoints()):
        if lo < b < hi:
            pts.add(b)
    return sorted(pts)


# ---------------------------------------------------------------------------
# Exact functionals of log-linear tables.  On a knot cell [u0, u1] of one
# side of a TabulatedLevyMeasure the density is the power law c t^p of t =
# |y|, p = log(v1 / v0) / log(u1 / u0), c = v0 / u0^p, so every functional
# of one or two tables is a sum of integrals of powers over the cells,
# split where two power laws cross; each is taken exactly in mpmath.
# ---------------------------------------------------------------------------

_TABLE_DPS = 40


def _power_laws(nu):
    """Per sign, (knots, laws): the knot magnitudes of that side, ascending,
    and the (c, p) of each cell, as mpf; None for a side without knots."""
    out = {}
    for sign in (-1.0, 1.0):
        knots = sorted((mpmath.mpf(abs(y)), mpmath.mpf(v)) for y, v in zip(nu.grid, nu.values) if sign * y > 0)
        if not knots:
            out[sign] = None
            continue
        laws = []
        for (u0, v0), (u1, v1) in zip(knots, knots[1:]):
            p = mpmath.log(v1 / v0) / mpmath.log(u1 / u0)
            laws.append((v0 / u0**p, p))
        out[sign] = ([u for u, _ in knots], laws)
    return out


def _law_at(side, t):
    """The (c, p) of the cell of ``side`` holding t, None off its range."""
    if side is None:
        return None
    knots, laws = side
    if not knots[0] <= t <= knots[-1]:
        return None
    return laws[min(bisect.bisect_right(knots, t), len(laws)) - 1]


def _power_integral(law, k, a, b):
    """int_a^b c t^(p + k) dt for law = (c, p); 0 for None."""
    if law is None:
        return mpmath.mpf(0)
    c, p = law
    q = p + k + 1
    if q == 0:
        return c * mpmath.log(b / a)
    return c * (b**q - a**q) / q


def _table_pieces(sides, cuts):
    """(sign, a, b, laws) per piece of each side: the side is split at the
    knots of every table, at the magnitudes ``cuts`` and where two tables'
    power laws cross; laws holds each table's (c, p) on the piece."""
    pieces = []
    for sign in (-1.0, 1.0):
        points = {mpmath.mpf(c) for c in cuts}
        for side in sides:
            if side[sign] is not None:
                points.update(side[sign][0])
        points = sorted(points)
        for a, b in zip(points, points[1:]):
            laws = [_law_at(side[sign], (a + b) / 2) for side in sides]
            inner = []
            if len(laws) == 2 and None not in laws and laws[0][1] != laws[1][1]:
                (c1, p1), (c2, p2) = laws
                t = (c2 / c1) ** (1 / (p1 - p2))
                if a < t < b:
                    inner = [t]
            ends = [a, *inner, b]
            for lo, hi in zip(ends, ends[1:]):
                pieces.append((sign, lo, hi, [_law_at(side[sign], (lo + hi) / 2) for side in sides]))
    return pieces


def loglinear_functionals(nu1, nu2):
    """Exact functionals of two TabulatedLevyMeasures as {name: (value,
    integral of the absolute integrand)}, floats: ``gamma_nu[i]`` and
    ``mass_above(eps)[i]`` (eps 0, 0.3, 1.5) of nu_i, and ``eta_nu``,
    ``l1_distance`` and ``hellinger_sq`` of the pair."""
    out = {}
    with mpmath.workdps(_TABLE_DPS):
        sides = [_power_laws(nu1), _power_laws(nu2)]
        pieces = _table_pieces(sides, (0.3, 1.0, 1.5))

        def total(term):
            value = absolute = mpmath.mpf(0)
            for sign, a, b, laws in pieces:
                v, av = term(sign, a, b, laws)
                value += v
                absolute += av
            return float(value), float(absolute)

        for i in (0, 1):
            def gamma(sign, a, b, laws):
                v = _power_integral(laws[i], 1, a, b) if b <= 1 else 0
                return sign * v, v

            out[f"gamma_nu[{i + 1}]"] = total(gamma)
            for eps in (0.0, 0.3, 1.5):
                def mass(sign, a, b, laws):
                    v = _power_integral(laws[i], 0, a, b) if a >= eps else 0
                    return v, v

                out[f"mass_above({eps})[{i + 1}]"] = total(mass)

        def gap(sign, a, b, laws, k):
            v = _power_integral(laws[0], k, a, b) - _power_integral(laws[1], k, a, b)
            return v, abs(v)

        def eta(sign, a, b, laws):
            v, av = gap(sign, a, b, laws, 1) if b <= 1 else (0, 0)
            return sign * v, av

        def l1(sign, a, b, laws):
            v = gap(sign, a, b, laws, 0)[1]
            return v, v

        def hellinger(sign, a, b, laws):
            v = _power_integral(laws[0], 0, a, b) + _power_integral(laws[1], 0, a, b)
            if None not in laws:
                (c1, p1), (c2, p2) = laws
                v -= 2 * _power_integral((mpmath.sqrt(c1 * c2), (p1 + p2) / 2), 0, a, b)
            return v, v

        out["eta_nu"] = total(eta)
        out["l1_distance"] = total(l1)
        out["hellinger_sq"] = total(hellinger)
    return out


def piecewise_constant_integral(fn, a, b):
    """``PiecewiseConstantFunction.integral`` as a loop over the cells of
    [a, b], each looking its value up in the whole break array: quadratic in
    the break count, and the reference for the bits of the vectorised cells."""
    if not a <= b:
        raise ValueError("integral needs a <= b")
    edges = [a] + [x for x in fn.breaks if a < x < b] + [b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        idx = int(np.searchsorted(np.asarray(fn.breaks), 0.5 * (lo + hi), side="right"))
        total += fn.values[idx] * (hi - lo)
    return total


# The probe grid that decided nu1 << nu2 before the verdict was read from
# the support segments: log-spaced magnitudes per side.
AC_PROBES_PER_SIDE = 4096
AC_PROBE_MIN = 1e-8
AC_PROBE_MAX_FLOOR = 1e2


def ac_probes(nu1, nu2):
    """The probes of ``probe_abs_continuity``: AC_PROBES_PER_SIDE log-spaced
    magnitudes per side from AC_PROBE_MIN up to the larger of
    AC_PROBE_MAX_FLOOR and the outermost finite support edge, and the knots
    of a tabulated Levy measure."""
    edges = [p for nu in (nu1, nu2) for seg in nu.support_segments() for p in seg]
    hi = max([AC_PROBE_MAX_FLOOR] + [abs(p) for p in edges if math.isfinite(p)])
    mags = np.logspace(math.log10(AC_PROBE_MIN), math.log10(hi), AC_PROBES_PER_SIDE)
    probes = np.concatenate([-mags[::-1], mags])
    knots = [nu.grid for nu in (nu1, nu2) if isinstance(nu, TabulatedLevyMeasure)]
    return np.unique(np.concatenate([probes, *knots])) if knots else probes


def probe_abs_continuity(nu1, nu2):
    """The probe-grid reference for nu1 << nu2: no probe where nu1's
    density is positive and nu2's is 0.  It is right where every support
    end lies off the probes, no density underflows on the probed range and
    every gap holds a probe; ``check_abs_continuity`` needs none of that."""
    probes = ac_probes(nu1, nu2)
    bad = (nu1.density(probes) > 0.0) & (nu2.density(probes) == 0.0)
    return AbsContinuityReport(not bad.any(), tuple(probes[bad][:16].tolist()), probes.size)


def _same_shape_ts_difference(nu1, nu2, root, factor):
    """y -> root(density(nu1)) - root(density(nu2)) of a same-shape
    tempered-stable pair, for root(x) = x**factor (the identity and 1.0, or
    np.sqrt and 0.5): the reference integrand of the pair's closed forms.
    With y's side constants it is root(C |y|^(-1-alpha)) e^(-factor lambda2
    |y|) expm1(factor (lambda2 - lambda1) |y|), which keeps relative
    precision where the densities nearly cancel.  Where that is not finite,
    two other forms of the same value take over:
      - far out where lambda1 < lambda2 (the exponential underflows to 0,
        the expm1 overflows), the heavier density is factored out:
        -root(C |y|^(-1-alpha)) e^(-factor lambda1 |y|)
        expm1(factor (lambda1 - lambda2) |y|);
      - near 0, where |y|^(-1-alpha) overflows, one |y| moves from the
        power into the expm1: root(C) |y|^(1 - factor (1 + alpha))
        e^(-factor lambda2 |y|) expm1(factor (lambda2 - lambda1) |y|) / |y|."""

    def diff(y):
        y = np.asarray(y, dtype=float)
        pos = y > 0
        ay = np.abs(y)
        c = _by_sign(pos, nu1.c_plus, nu1.c_minus)
        lam1 = _by_sign(pos, nu1.lam_plus, nu1.lam_minus)
        lam2 = _by_sign(pos, nu2.lam_plus, nu2.lam_minus)
        with np.errstate(all="ignore"):
            scale = root(c * ay ** (-1.0 - nu1.alpha))
            out = scale * np.exp(-factor * lam2 * ay) * np.expm1(factor * (lam2 - lam1) * ay)
            heavier = -scale * np.exp(-factor * lam1 * ay) * np.expm1(factor * (lam1 - lam2) * ay)
            out = np.where(np.isfinite(out), out, heavier)
            bad = ~np.isfinite(out)
            if bad.any():
                power = root(c) * ay ** (1.0 - factor * (1.0 + nu1.alpha))
                k = factor * (lam2 - lam1)
                z = k * ay  # expm1(z) / |y| as k expm1(z) / z, which has no 0 / 0
                rel = np.where(z == 0.0, 1.0, np.expm1(z) / z)
                out = np.where(bad, power * np.exp(-factor * lam2 * ay) * (k * rel), out)
        return np.where(pos | (y < 0), out, 0.0)

    return diff


@dataclasses.dataclass(frozen=True)
class OneSide(TemperedStableMeasure):
    """The half line of sign ``side`` of a tempered-stable measure: a
    measure outside every family, given by its own density and segments."""

    side: float = 1.0

    def density(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(self.side * y > 0.0, super().density(y), 0.0)

    def support_segments(self):
        return ((0.0, math.inf),) if self.side > 0 else ((-math.inf, 0.0),)


# ---------------------------------------------------------------------------
# The forms and loops that a faster rewrite must match bit for bit
# ---------------------------------------------------------------------------


def upper_gamma_cf_with_abs(s, x):
    """``_forms._upper_gamma_cf`` written with ``abs``: e^x x^-s Gamma(s,
    x) by the modified Lentz continued fraction, each |v| <= tiny (or nan)
    replaced by tiny, stopped where |d c - 1| <= 2^-54 or after 10,000
    steps."""
    tiny = 1e-300
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / b
    cf = d
    for n in range(1, 10_000):
        a = -n * (n - s)
        b += 2.0
        d = a * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + a / c
        c = c if abs(c) > tiny else tiny
        cf *= d * c
        if abs(d * c - 1.0) <= 2.0**-54:
            break
    return cf


def direct_ts_total_mass(nu):
    """Gamma(-alpha) (C+ lambda+^alpha + C- lambda-^alpha) as one product
    of doubles, and whether every factor, the sum and the product are
    finite normal doubles (where the library's form must keep its bits)."""
    a = nu.alpha
    try:
        p, q = nu.lam_plus**a, nu.lam_minus**a
        inner = nu.c_plus * p + nu.c_minus * q
        value = math.gamma(-a) * inner
    except OverflowError:
        return math.inf, False
    return value, all(2.0**-1022 <= v < math.inf for v in (p, q, inner, value))


def polynomial_xi_sq(spec):
    """xi^2 of a spec whose variance is constant on every cell, each cell's
    (f1 - f2 - eta)^2 / c integrated as a polynomial (``npoly.polymul``,
    ``polyint``, ``polyval``), also where the gap is a constant; math.inf
    where a cell's variance is 0 or the total is not finite."""
    eta = spec.eta()
    vol, _, f1, f2 = spec._pieces
    cells = processes._refinement(f1, f2)
    gaps = [(lo, hi, processes._difference(c1, c2)) for lo, hi, c1, c2 in cells]
    gaps = [(lo, hi, (g[0] - eta, *g[1:])) for lo, hi, g in gaps]
    total = 0.0
    for lo, hi, v, g in processes._refinement(vol, gaps):
        assert len(v) == 1
        if v[0] <= 0.0:
            return math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            sq = npoly.polymul(g, g)
            if len(sq) == 1:
                part = float(sq[0]) * (hi - lo)
            else:
                anti = npoly.polyint(sq)
                part = float(npoly.polyval(hi, anti) - npoly.polyval(lo, anti))
        total += part / v[0]
    return total if math.isfinite(total) else math.inf
