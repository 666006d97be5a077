"""Adaptive integrator: closed forms, properties, divergence detection."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addgap import quadrature
from addgap.errors import NonFiniteIntegrand, ToleranceNotMet
from addgap.quadrature import DIVERGENCE_CAP, IntegrationRequest, integrate

from _oracles import L1_EX3, per_panel_sums, riemann_log, sequential_integrate

TOL = 1e-8


def test_frozen_constant_self_check():
    # mpmath-frozen value vs an independent analytic expression.
    assert abs(L1_EX3 - 2 * math.sqrt(math.pi) * (math.sqrt(2) - 1)) < 1e-15


def test_inverse_sqrt_singularity():
    res = integrate(IntegrationRequest(lambda y: y ** -0.5, 0.0, 1.0, singular_at_zero=True))
    assert not res.diverged
    assert abs(res.value - 2.0) < 1e-7


def test_exponential_tail():
    res = integrate(IntegrationRequest(lambda y: np.exp(-y), 0.0, math.inf))
    assert abs(res.value - 1.0) < TOL


def test_full_line_gaussian():
    f = lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
    res = integrate(IntegrationRequest(f, -math.inf, math.inf))
    assert abs(res.value - 1.0) < TOL


def test_heavy_tail_difference_vs_riemann_oracle():
    f = lambda y: np.abs(np.exp(-2 * y) - np.exp(-y)) * y ** -1.5
    oracle = riemann_log(f, 1e-16, 200.0, n=2_000_000)
    res = integrate(IntegrationRequest(f, 0.0, math.inf, singular_at_zero=True))
    assert not res.diverged
    assert abs(res.value - oracle) / oracle < 1e-6
    assert abs(res.value - L1_EX3) / L1_EX3 < 1e-6


class TestDivergence:
    def test_power_divergence_at_origin(self):
        res = integrate(IntegrationRequest(lambda y: y ** -1.5, 0.0, 1.0, singular_at_zero=True))
        assert res.diverged
        assert abs(res.value) == DIVERGENCE_CAP

    def test_log_divergence_at_origin(self):
        # int y^-1: partial sums grow only logarithmically, so the cap never
        # fires; the level-stall detector must.
        res = integrate(IntegrationRequest(lambda y: 1.0 / y, 0.0, 1.0, singular_at_zero=True))
        assert res.diverged

    def test_tail_divergence(self):
        res = integrate(IntegrationRequest(lambda y: 1.0 / y, 1.0, math.inf))
        assert res.diverged

    def test_near_critical_convergent_not_flagged(self):
        # y^-0.5 converges; must not be mistaken for divergence.
        res = integrate(IntegrationRequest(lambda y: y ** -0.5, 0.0, 1.0, singular_at_zero=True))
        assert not res.diverged

    def test_signed_divergence_sign(self):
        res = integrate(IntegrationRequest(lambda y: -(y ** -1.5), 0.0, 1.0, singular_at_zero=True))
        assert res.diverged
        assert res.value == -DIVERGENCE_CAP


class TestErrors:
    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrand):
            integrate(IntegrationRequest(lambda y: np.log(y - 0.5), 0.0, 1.0))

    def test_noise_never_converges(self):
        rng = np.random.default_rng(7)

        def noisy(y):
            return 1.0 + rng.standard_normal(np.shape(y))

        with pytest.raises(ToleranceNotMet):
            integrate(IntegrationRequest(noisy, 0.0, 1.0, abs_tol=1e-14, rel_tol=1e-14))

    @pytest.mark.parametrize("tols", [(math.nan, 1e-8), (0.0, math.nan), (1e-10, math.nan)])
    def test_nan_tolerance(self, tols):
        calls = []

        def f(y):
            calls.append(y)
            return y * y

        with pytest.raises(ValueError, match="nan"):
            integrate(IntegrationRequest(f, 0.0, 1.0, *tols))
        assert calls == []

    def test_scalar_returning_integrand(self):
        with pytest.raises(ValueError, match=r"shape \(\) for points of shape \(22,\)"):
            integrate(IntegrationRequest(lambda y: 1.0, 0.0, 1.0))

    def test_integrand_exception_propagates(self):
        calls = []
        raised = ZeroDivisionError("no panel today")

        def f(y):
            calls.append(y)
            raise raised

        with pytest.raises(ZeroDivisionError) as info:
            integrate(IntegrationRequest(f, -1.0, math.inf, singular_at_zero=True))
        assert info.value is raised and str(info.value) == "no panel today"
        assert len(calls) == 1

    def test_bad_interval(self):
        for lower, upper in ((1.0, 1.0), (2.0, 1.0), (math.nan, math.nan)):
            with pytest.raises(ValueError, match="invalid interval"):
                integrate(IntegrationRequest(lambda y: y, lower, upper))


class TestProperties:
    """Linearity, additivity, nonnegativity on seeded random integrands."""

    def test_linearity(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            c1 = rng.uniform(-3, 3, size=4)
            c2 = rng.uniform(-3, 3, size=4)
            a, b = sorted(rng.uniform(-2, 2, size=2))
            if b - a < 1e-3:
                continue
            f = lambda y: c1[0] + c1[1] * y + c1[2] * y ** 2 + c1[3] * np.sin(y)
            g = lambda y: c2[0] + c2[1] * y + c2[2] * y ** 2 + c2[3] * np.cos(y)
            s, t = rng.uniform(-2, 2, size=2)
            value = lambda h: integrate(IntegrationRequest(h, a, b)).value
            lhs = value(lambda y: s * f(y) + t * g(y))
            rhs = s * value(f) + t * value(g)
            assert abs(lhs - rhs) < 10 * TOL * max(1.0, abs(lhs))

    def test_interval_additivity(self):
        rng = np.random.default_rng(43)
        f = lambda y: np.exp(-0.3 * y) * np.sin(3 * y)
        for _ in range(25):
            a, m, b = sorted(rng.uniform(-4, 4, size=3))
            whole = integrate(IntegrationRequest(f, a, b)).value if b > a else 0.0
            parts = 0.0
            if m > a:
                parts += integrate(IntegrationRequest(f, a, m)).value
            if b > m:
                parts += integrate(IntegrationRequest(f, m, b)).value
            assert abs(whole - parts) < 10 * TOL * max(1.0, abs(whole))

    def test_nonnegative_integrand_nonnegative_value(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            c = rng.uniform(0.1, 2.0, size=2)
            a, b = sorted(rng.uniform(-3, 3, size=2))
            if b - a < 1e-3:
                continue
            f = lambda y: c[0] * np.exp(-c[1] * y * y)
            res = integrate(IntegrationRequest(f, a, b))
            assert res.value >= -1e-10

    def test_polynomial_exactness(self):
        # The 15-point rule is exact well past degree 20; single panel.
        f = lambda y: 5 * y ** 9 - 3 * y ** 4 + y
        res = integrate(IntegrationRequest(f, -1.0, 2.0))
        truth = 5 * (2 ** 10 - 1) / 10 - 3 * (2 ** 5 + 1) / 5 + (2 ** 2 - 1) / 2
        assert abs(res.value - truth) < 1e-12 * abs(truth)


def test_request_dataclass_roundtrip():
    req = IntegrationRequest(lambda y: y, 0.0, 1.0, 1e-9, 1e-7, False)
    res = integrate(req)
    assert abs(res.value - 0.5) < 1e-9
    assert res.error_estimate >= 0.0


def test_first_panel_settles_without_bisection_state():
    # Only the piece with the kink inside misses its tolerance on the
    # first panel: one call evaluates the three whole pieces, and every
    # later call bisects [1, 2] alone.
    calls = []

    def f(y):
        calls.append(np.array(y))
        return 1.0 + y * y + np.abs(y - 1.5)

    req = IntegrationRequest(f, 0.0, 3.0, breakpoints=(1.0, 2.0))
    result = integrate(req)
    assert calls[0].shape == (3 * quadrature._N,)
    assert len(calls) > 1
    assert all(((1.0 <= ys) & (ys <= 2.0)).all() for ys in calls[1:])
    assert result == sequential_integrate(req)


def test_breakpoints_match_whole():
    f = lambda y: np.exp(-y) * (1 + 0.2 * np.sin(5 * y))
    whole = integrate(IntegrationRequest(f, 0.0, 3.0)).value
    split = integrate(IntegrationRequest(f, 0.0, 3.0, breakpoints=(0.7, 0.7, 2.1))).value
    assert abs(whole - split) < 10 * TOL


@pytest.mark.parametrize("breakpoints", [(2.0,), (math.nan,), (0.5, math.nan), (-1.0,), (0.5, 0.25)])
def test_breakpoints_reject_unsorted_nan_or_outside(breakpoints):
    request = IntegrationRequest(lambda y: np.ones_like(y), 0.0, 1.0, breakpoints=breakpoints)
    with pytest.raises(ValueError, match="sorted and free of nan"):
        integrate(request)


def test_breakpoints_split_like_segments():
    f = lambda y: np.abs(y - 0.7) * np.exp(-y)
    req = IntegrationRequest(f, 0.0, 3.0, breakpoints=(0.7, 0.7, 2.1))
    assert integrate(req) == sequential_integrate(req)


# ---------------------------------------------------------------------------
# Bit identity with the sequential integrator
# ---------------------------------------------------------------------------

INF = math.inf
edge = st.floats(-4.0, 4.0)
edge_lists = st.lists(edge, min_size=2, max_size=5).map(sorted)


@st.composite
def smooth(draw):
    c0, c1 = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    k, w = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 20.0))
    return (lambda y: c0 + c1 * np.sin(w * y) * np.exp(-k * y * y)), draw(edge_lists), {}


@st.composite
def kinked(draw):
    kink, slope = draw(edge), draw(st.floats(-3.0, 3.0))

    def f(y):
        return slope * np.abs(y - kink) + np.sqrt(np.maximum(y - kink, 0.0))

    return f, draw(edge_lists), {}


@st.composite
def tabulated(draw):
    knots = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8, unique=True)))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=len(knots), max_size=len(knots)))
    edges = knots if draw(st.booleans()) else [knots[0], knots[-1]]
    return (lambda y: np.interp(y, knots, values)), edges, {}


@st.composite
def settled_and_bisected(draw):
    # A cubic on every piece, kinked inside the middle one: the other
    # pieces settle on their first panel, the middle one bisects.
    start = draw(st.floats(-4.0, 2.0))
    kink = start + 1.0 + draw(st.floats(0.1, 0.9))
    c = [draw(st.floats(-3.0, 3.0)) for _ in range(4)]

    def f(y):
        return c[0] + y * (c[1] + y * (c[2] + y * c[3])) + np.abs(y - kink)

    return f, [start, start + 1.0, start + 2.0, start + 3.0], {}


@st.composite
def singular_or_tail(draw):
    p, k = draw(st.floats(0.0, 0.75)), draw(st.floats(0.1, 3.0))
    edges = draw(st.sampled_from([
        [0.0, 2.0], [-1.5, 0.0, 2.0], [-3.0, 1.0], [0.0, INF], [-INF, 0.0],
        [-INF, INF], [-INF, -1.0, 0.0, 0.5, INF], [1.0, 2.0, INF],
    ]))
    singular = draw(st.booleans()) if 0.0 not in edges else True

    def f(y):
        return np.abs(y) ** -p * np.exp(-k * np.abs(y))

    return f, edges, {"singular_at_zero": singular}


@st.composite
def divergent(draw):
    edges, singular = draw(st.sampled_from([
        ([0.0, 1.0], True), ([-1.0, 0.0, 1.0], True), ([1.0, INF], False),
        ([0.0, 0.5, INF], True), ([-INF, -2.0], False),
    ]))
    # A y^-1.5 tail converges: only the origin gets the steeper power.
    sign = draw(st.sampled_from([1.0, -1.0]))
    power = draw(st.sampled_from([1.0, 1.5])) if 0.0 in edges else 1.0
    return (lambda y: sign * np.abs(y) ** -power), edges, {"singular_at_zero": singular}


@st.composite
def later_piece_fails(draw):
    # The first piece diverges at 0 (or converges); a later piece meets a
    # nan at its first panel.
    split = draw(st.floats(0.5, 2.0))
    power = draw(st.sampled_from([0.5, 1.0, 1.5]))

    def f(y):
        return np.where(y < split, y**-power, np.log(split - y - 1.0))

    return f, [0.0, split, split + 1.0], {"singular_at_zero": True}


@st.composite
def not_converging(draw):
    f, edges = draw(st.sampled_from([
        (lambda y: np.sin(1.0 / y), [0.0, 1.0]),
        (lambda y: np.abs(y - 0.3) ** -0.95, [0.0, 0.3, 1.0]),
        (lambda y: np.where(y < 1.0 / 3.0, 0.0, 1.0), [0.0, 0.25, 1.0]),
    ]))
    budget = draw(st.integers(50, 400))
    return f, edges, {"abs_tol": 1e-14, "rel_tol": 1e-14, "budget": budget}


def outcome(impl, f, edges, kwargs):
    """Everything a caller can observe: result bits or exception, and for a
    finished integral the sorted points the integrand saw."""
    kwargs = dict(kwargs)
    budget = kwargs.pop("budget", quadrature.MAX_BISECTIONS)
    seen = []

    def recording(y):
        seen.append(np.array(y, dtype=float))
        return f(y)

    request = IntegrationRequest(
        recording, edges[0], edges[-1], breakpoints=tuple(edges[1:-1]), **kwargs
    )
    with mock.patch.object(quadrature, "MAX_BISECTIONS", budget):
        try:
            res = impl(request)
        except Exception as exc:
            return type(exc), str(exc)
    bits = (res.value.hex(), res.error_estimate.hex(), res.diverged)
    if res.diverged:
        return bits
    return bits, np.sort(np.concatenate(seen)).tobytes()


@pytest.mark.parametrize(
    "family",
    [
        smooth, kinked, tabulated, settled_and_bisected, singular_or_tail, divergent,
        later_piece_fails, not_converging,
    ],
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_lockstep_matches_sequential_oracle(family, data):
    f, edges, kwargs = data.draw(family())
    assert outcome(integrate, f, edges, kwargs) == outcome(sequential_integrate, f, edges, kwargs)


# ---------------------------------------------------------------------------
# One array pass per round: _evaluate's sums against the per-panel loop
# ---------------------------------------------------------------------------


def _mixed(y):
    """Values from about 1e-12 to 1e12 in size, of both signs."""
    return np.exp(np.sin(3.0 * y) * 28.0) * np.cos(y) / (1.0 + y * y)


def _random_works(rng, n_works, max_panels):
    """Works with random panels: plain ones on spans from 1e-12 to 1e3
    wide, tail ones in [0, 1) and power ones near 0."""
    works = []
    for _ in range(n_works):
        kind = rng.integers(3)
        if kind == 0:
            lo = rng.uniform(-50.0, 50.0)
            work = quadrature._Work(None, lo, lo + 1.0, 1e-10, 1e-8, False, False)
            widths = 10.0 ** rng.uniform(-12.0, 3.0, rng.integers(1, max_panels + 1))
            starts = rng.uniform(-50.0, 50.0, widths.size)
        else:
            sign = rng.choice([-1.0, 1.0])
            sub = quadrature._tail(rng.uniform(-3.0, 3.0), sign) if kind == 1 else quadrature._power(sign)
            work = quadrature._Work(sub, 0.0, 1.0, 1e-10, 1e-8, kind == 2, kind == 1)
            widths = 10.0 ** rng.uniform(-15.0, -0.5, rng.integers(1, max_panels + 1))
            starts = rng.uniform(0.0, 1.0 - widths)
        work.panels = tuple(zip(starts.tolist(), (starts + widths).tolist()))
        works.append(work)
    return works


def _bits(sums):
    return [(value.hex(), error.hex()) for value, error in sums]


@pytest.mark.parametrize("seed", range(40))
def test_round_sums_match_the_per_panel_loop(seed):
    rng = np.random.default_rng(seed)
    # One work of one panel on the first seeds, then rounds of up to 12
    # works of up to 6 panels each.
    n_works, max_panels = (1, 1) if seed < 4 else (int(rng.integers(1, 13)), 6)
    works = _random_works(rng, n_works, max_panels)
    want = [_bits(per_panel_sums(_mixed, w)) for w in works]
    quadrature._evaluate(_mixed, works)
    assert [w.outcome for w in works] == [None] * len(works)
    assert [_bits(w.sums) for w in works] == want
    assert all(type(v) is float and type(e) is float for w in works for v, e in w.sums)


@pytest.mark.parametrize("n_panels", [1, 5])
def test_round_whose_products_overflow_is_silent(n_panels):
    # Each dot product is finite (about 1e300), its product with the half
    # width is not: inf, and an error of inf - inf = nan, as Python floats
    # give them.
    work = quadrature._Work(None, 0.0, 1.0, 1e-10, 1e-8, False, False)
    work.panels = tuple((k * 1e10, (k + 1) * 1e10) for k in range(n_panels))

    def big(y):
        return np.full_like(y, 1e300)

    want = _bits(per_panel_sums(big, work))
    assert want[0] == ("inf", "nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quadrature._evaluate(big, [work])
    assert work.outcome is None
    assert _bits(work.sums) == want


def test_round_with_a_bad_value_stops_only_its_interval():
    works = []
    for lo in (0.0, 10.0):
        work = quadrature._Work(None, lo, lo + 3.0, 1e-10, 1e-8, False, False)
        work.panels = ((lo, lo + 1.0), (lo + 1.0, lo + 2.0), (lo + 2.0, lo + 3.0))
        works.append(work)
    nodes = 10.5 + 0.5 * quadrature._NODES  # the second panel of the second work
    first_bad, later_bad = float(nodes[3]), float(nodes[20])

    def f(y):
        return np.where((y == first_bad) | (y == later_bad) | (y > 12.0), np.nan, _mixed(y))

    want = _bits(per_panel_sums(f, works[0]))
    quadrature._evaluate(f, works)
    assert works[0].outcome is None and _bits(works[0].sums) == want
    assert isinstance(works[1].outcome, NonFiniteIntegrand)
    assert str(works[1].outcome) == f"integrand returned a non-finite value at x = {first_bad!r}"


# ---------------------------------------------------------------------------
# Stall trackers: which half of a bisection each one sees
# ---------------------------------------------------------------------------


def tracker_feed(monkeypatch, impl, request):
    """(watched end, value as hex) of every call to a stall tracker that
    ``impl(request)`` makes, in order."""
    fed = []
    stalled = quadrature._Tracker.stalled

    def spy(self, value):
        fed.append((self.coord, float(value).hex()))
        return stalled(self, value)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature._Tracker, "stalled", spy)
        impl(request)
    return fed


@pytest.mark.parametrize(
    "f, lower, upper",
    [
        (lambda y: 1.0 / np.sqrt(y) + np.cos(y), 0.0, 1.0),  # watched at its left end
        (lambda y: 1.0 / (y * np.sqrt(y)) + np.exp(-y), 1.0, math.inf),  # at its right end
    ],
    ids=["left_watched", "right_watched"],
)
def test_stall_trackers_see_the_far_half(monkeypatch, f, lower, upper):
    # A bisection next to a watched end peels off the half far from it, as
    # the sequential oracle does; the near half stays and is bisected again.
    request = IntegrationRequest(f, lower, upper, singular_at_zero=lower == 0.0)
    fed = tracker_feed(monkeypatch, integrate, request)
    assert len(fed) >= 3
    assert fed == tracker_feed(monkeypatch, sequential_integrate, request)
