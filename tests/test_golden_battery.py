"""Golden battery: every report field, bound and estimator outcome, bit for bit.

Each pair below exercises one branch of the applicability logic (sigma
mismatch, partial degeneracy, drift mismatch, a divergent eta, infinite
L1 or H^2, a measure that is not absolutely continuous, the sinh
overflow, pure Gaussian pairs) or is one of the bundled configs.  For
each pair the battery pins:

* every field of ``compute_report`` (floats as hex) and its reasons;
* the value or the (exception type, message) of each ``bound_*`` and of
  ``gaussian_tv_exact``;
* ``estimate_tv`` (at the default truncation, passed as
  ``default_epsilon(spec)`` and as None), ``martingale_check`` and
  ``estimate_sinh_oracle`` at 9000 paths, seed 5, as hex (mean,
  half-width) or (exception type, message).

``golden_battery.json`` was recorded with the per-bound evaluation that
each ``bound_*`` function carried out on its own, before the report
computed every ingredient in one pass.  The ``estimate_tv`` and
``martingale_check`` records of ``ts_bundled`` and
``ts_same_shape_poly_drift`` were re-recorded when those pairs (alpha =
1/2, equal C+-) began drawing their jump part exactly from inverse
Gaussian sums instead of truncating at epsilon; each new estimate lies
within 0.5 combined half-widths of the truncated one it replaced.  The
other compound Poisson pairs have uniform(0, 1) jumps on both sides, a
constant log-ratio, and so draw counts and no sizes (the ``"constant"``
law of ``measures.pair_jump_law``); ``cp_exponential`` and
``cp_wider_reference`` (uniform(0, 1) against uniform(0, 2)) keep the
path that draws and weighs every jump pinned, and were recorded before
the counted path existed.  The counted and weighed paths give the same
bits, so ``JUMP_LAW_KIND`` pins the law of each pair: a pair that slipped
from one law to another would change no record, only the time it takes.
The six estimator records of ``not_ac_positive`` and
``not_ac_zero_drift_mismatch`` were re-recorded when the estimators began
refusing a pair that is not absolutely continuous with the report's
message, which names a probe (``nu1 has density where nu2 has none, e.g.
at y = ...``), in place of ``nu1 carries density where nu2 has none``.
Their report reasons and estimator records were re-recorded again when the
verdict began reading the support segments in place of a probe grid: the
point named moved from the probe 1.0056387566976546 to 1.5, the midpoint
of (1, 2), which uniform(0, 2) covers and uniform(0, 1) leaves out; no
number moved.
The report and bound records of ``ts_bundled``,
``ts_same_shape_poly_drift``, ``ts_alpha_1_5`` and ``ts_diff_shape_zero``
were re-recorded when the tempered-stable functionals (L1, H^2, gamma)
began taking their closed forms; each moved value lies within the error
estimate of the quadrature it replaced, and no estimate moved.
To inspect a record, run
``PYTHONPATH=src python tests/test_golden_battery.py``; it prints the
battery as JSON.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

from addgap.bounds import (
    bound_simple_sqrt,
    bound_thm1,
    bound_thm2,
    compute_report,
    gaussian_tv_exact,
)
from addgap.config import parse_config, parse_config_dict
from addgap.errors import AddgapError
from addgap.measures import pair_jump_law
from addgap.montecarlo import (
    default_epsilon,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "configs"
GOLDEN = HERE / "golden_battery.json"
N_PATHS = 9000
SEED = 5

REPORT_FIELDS = (
    "horizon", "vol_class", "sigma_mismatch", "drift_matched", "l1_nu",
    "hellinger_sq_nu", "eta", "gamma1", "gamma2", "xi_sq", "thm1", "thm2",
    "simple_sqrt", "gaussian_exact", "best",
)


def _bundled(name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.pop("estimator", None)
    raw.pop("sweep", None)
    return raw


def _const(c):
    return {"form": "constant", "c": c}


def _cp(lam, a=0.0, b=1.0, density=None):
    return {
        "type": "compound_poisson",
        "lambda": lam,
        "jump_density": density or {"family": "uniform", "a": a, "b": b},
    }


def _ts(c_minus, c_plus, lam_minus, lam_plus, alpha):
    return {
        "type": "tempered_stable", "c_minus": c_minus, "c_plus": c_plus,
        "lambda_minus": lam_minus, "lambda_plus": lam_plus, "alpha": alpha,
    }


def _tab(scale):
    # Power law y^-2.5 below 1e-3: the small-jump first moment, and so
    # eta, diverges while the measure stays a valid Levy measure.
    grid = [5e-4 * 2000.0 ** (k / 8) for k in range(9)]
    return {"type": "tabulated", "grid": grid, "values": [scale * y ** -2.5 for y in grid]}


def _pair(drift1, drift2, vol1, vol2, levy1, levy2, horizon=1.0):
    def proc(drift, vol, levy):
        return {"drift": drift, "vol_sq": vol, "levy": levy}

    return {
        "process1": proc(drift1, vol1, levy1),
        "process2": proc(drift2, vol2, levy2),
        "horizon": horizon,
    }


# The ``pair_jump_law`` kind of each pair of the battery.
JUMP_LAW_KIND = {
    "cp_bundled": "constant",
    "cp_exponential": "generic",
    "cp_sigma_mismatch": "constant",
    "cp_wider_reference": "generic",
    "degenerate": "constant",
    "gauss_positive": "generic",
    "gauss_sigma_mismatch": "generic",
    "gauss_zero_matched": "generic",
    "gauss_zero_unmatched": "generic",
    "jd_bundled": "constant",
    "not_ac_positive": "constant",
    "not_ac_zero_drift_mismatch": "constant",
    "sinh_overflow": "constant",
    "tab_eta_divergent_positive": "generic",
    "tab_eta_divergent_zero": "generic",
    "ts_alpha_1_5": "generic",
    "ts_bundled": "ig_sides",
    "ts_diff_shape_zero": "generic",
    "ts_same_shape_poly_drift": "ig_sides",
    "zero_sigma_drift_mismatch": "constant",
}

ZERO = {"type": "zero"}
DEGENERATE = {"form": "piecewise_constant", "breaks": [0.5], "values": [0.0, 1.0]}


def battery() -> dict:
    """Pair name -> raw config dict."""
    return {
        "cp_bundled": _bundled("compound_poisson"),
        "jd_bundled": _bundled("jump_diffusion"),
        "ts_bundled": _bundled("tempered_stable"),
        "cp_sigma_mismatch": _pair(
            _const(1.0), _const(0.5), _const(0.0), _const(1.0), _cp(2.0), _cp(1.0)
        ),
        "gauss_sigma_mismatch": _pair(
            _const(1.0), _const(0.0), _const(1.0), _const(2.0), ZERO, ZERO
        ),
        "degenerate": _pair(
            _const(1.0), _const(0.0), DEGENERATE, DEGENERATE, _cp(2.0), _cp(1.0)
        ),
        "zero_sigma_drift_mismatch": _pair(
            _const(2.0), _const(0.5), _const(0.0), _const(0.0), _cp(2.0), _cp(1.0)
        ),
        "sinh_overflow": _pair(
            _const(0.0), _const(0.0), _const(1.0), _const(1.0), _cp(801.0), _cp(1.0)
        ),
        "not_ac_positive": _pair(
            _const(0.0), _const(0.0), _const(1.0), _const(1.0),
            _cp(1.0, 0.0, 2.0), _cp(1.0),
        ),
        "not_ac_zero_drift_mismatch": _pair(
            _const(1.0), _const(0.0), _const(0.0), _const(0.0),
            _cp(1.0, 0.0, 2.0), _cp(1.0),
        ),
        "cp_exponential": _pair(
            _const(0.3), _const(0.0), _const(1.0), _const(1.0),
            _cp(1.0, density={"family": "exponential", "rate": 1.0}),
            _cp(1.0, density={"family": "exponential", "rate": 2.0}),
        ),
        "cp_wider_reference": _pair(
            _const(0.0), _const(0.0), _const(1.0), _const(1.0),
            _cp(1.0), _cp(1.0, 0.0, 2.0),
        ),
        "gauss_positive": _pair(
            _const(1.0), _const(0.0), _const(1.0), _const(1.0), ZERO, ZERO, 4.0
        ),
        "gauss_zero_matched": _pair(
            _const(0.5), _const(0.5), _const(0.0), _const(0.0), ZERO, ZERO
        ),
        "gauss_zero_unmatched": _pair(
            _const(1.0), _const(0.0), _const(0.0), _const(0.0), ZERO, ZERO
        ),
        "ts_alpha_1_5": _pair(
            _const(0.0), _const(0.0), _const(1.0), _const(1.0),
            _ts(1e-5, 1e-5, 1.0, 2.0, 1.5), _ts(1e-5, 1e-5, 1.0, 1.0, 1.5),
        ),
        "ts_same_shape_poly_drift": _pair(
            {"form": "polynomial", "coeffs": [0.1, 0.5]}, _const(0.0),
            _const(1.0), _const(1.0),
            _ts(1.0, 1.0, 1.0, 2.0, 0.5), _ts(1.0, 1.0, 1.0, 1.0, 0.5),
        ),
        "ts_diff_shape_zero": _pair(
            _const(0.0), _const(0.0), _const(0.0), _const(0.0),
            _ts(1.0, 2.0, 1.0, 1.0, 0.5), _ts(1.0, 1.0, 1.0, 1.0, 0.5),
        ),
        "tab_eta_divergent_zero": _pair(
            _const(0.0), _const(0.0), _const(0.0), _const(0.0), _tab(1e-4), _tab(2e-4)
        ),
        "tab_eta_divergent_positive": _pair(
            _const(0.0), _const(0.0), _const(1.0), _const(1.0), _tab(1e-4), _tab(2e-4)
        ),
    }


def _plain(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except AddgapError as exc:
        return [type(exc).__name__, str(exc)]
    if hasattr(value, "mean"):
        return [value.mean.hex(), value.half_width_95.hex()]
    return value.hex()


def record(raw: dict) -> dict:
    spec = parse_config_dict(copy.deepcopy(raw)).problem
    report = compute_report(spec)
    fields = {name: _plain(getattr(report, name)) for name in REPORT_FIELDS}
    fields["reasons"] = dict(sorted(report.reasons.items()))
    bounds = {
        fn.__name__: _outcome(fn, spec)
        for fn in (bound_thm1, bound_thm2, bound_simple_sqrt, gaussian_tv_exact)
    }
    estimates = {
        "estimate_tv": _outcome(estimate_tv, spec, N_PATHS, default_epsilon(spec), SEED),
        "martingale_check": _outcome(martingale_check, spec, N_PATHS, SEED),
        "estimate_sinh_oracle": _outcome(estimate_sinh_oracle, spec, N_PATHS, SEED),
    }
    return {"report": fields, "bounds": bounds, "estimates": estimates}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_battery_covers_the_recorded_pairs(golden):
    assert sorted(golden) == sorted(battery())


@pytest.mark.parametrize("name", sorted(battery()))
def test_pair_matches_golden_record(golden, name):
    got = json.loads(json.dumps(record(battery()[name])))
    assert got == golden[name]
    # epsilon None is the default truncation, resolved by the estimator.
    spec = parse_config_dict(copy.deepcopy(battery()[name])).problem
    got_none = _outcome(estimate_tv, spec, N_PATHS, None, SEED)
    assert json.loads(json.dumps(got_none)) == golden[name]["estimates"]["estimate_tv"]


def _law_kind(spec):
    return pair_jump_law(spec.process1.levy, spec.process2.levy).kind


def test_every_pair_has_a_jump_law_kind():
    assert sorted(JUMP_LAW_KIND) == sorted(battery())


@pytest.mark.parametrize("name", sorted(battery()))
def test_pair_jump_law_kind(name):
    spec = parse_config_dict(copy.deepcopy(battery()[name])).problem
    assert _law_kind(spec) == JUMP_LAW_KIND[name]


@pytest.mark.parametrize(
    "name, kind",
    [("compound_poisson", "constant"), ("jump_diffusion", "constant"), ("tempered_stable", "ig_sides")],
)
def test_bundled_config_jump_law_kind(name, kind):
    assert _law_kind(parse_config(CONFIG_DIR / f"{name}.json").problem) == kind


if __name__ == "__main__":
    records = {name: record(raw) for name, raw in sorted(battery().items())}
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
