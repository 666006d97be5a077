"""The value-keyed caches of the measure functionals change no output bit.

``measures.validate_levy``, ``check_abs_continuity``, ``l1_distance``,
``hellinger_sq``, ``gamma_nu`` and ``eta_nu`` are
``functools.lru_cache``s keyed by the measures' values; ``l1_distance``
and ``hellinger_sq`` look up the cached absolute-continuity check before
they integrate, and a pair that fails it is refused on every call.  A report computed
after an equal measure, parsed separately, has filled them must equal the
report computed from empty caches bit for bit, also for measures that are
equal without being written the same way (0.0 and -0.0).
"""

import copy
import json
from pathlib import Path

import pytest

from addgap import cli
from addgap.bounds import compute_report
from addgap.config import parse_config_dict, set_config_value

from _oracles import clear_caches, report_bits
from test_golden_battery import _const, _cp, _pair, _ts, battery

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def cold_and_warm(raw, twin=None):
    """The report bits of raw computed from empty caches, and again after
    a separately parsed copy of twin (default: raw) has filled them."""
    clear_caches()
    cold = report_bits(compute_report(parse_config_dict(copy.deepcopy(raw)).problem))
    clear_caches()
    compute_report(parse_config_dict(copy.deepcopy(twin or raw)).problem)
    warm = report_bits(compute_report(parse_config_dict(copy.deepcopy(raw)).problem))
    return cold, warm


@pytest.mark.parametrize("name", sorted(battery()))
def test_battery_report_is_the_same_cold_and_warm(name):
    cold, warm = cold_and_warm(battery()[name])
    assert cold == warm


# Pairs built with a signed zero: a twin with -0.0 in place of 0.0 has
# equal measures, which share cache entries.
SIGNED_ZERO_PAIRS = {
    "uniform_a_nu1": lambda zero: _pair(
        _const(1.0), _const(0.5), _const(0.0), _const(0.0), _cp(2.0, zero), _cp(1.0)
    ),
    "uniform_a_nu2_positive_vol": lambda zero: _pair(
        _const(1.0), _const(0.0), _const(1.0), _const(1.0), _cp(2.0), _cp(1.0, zero)
    ),
    "ts_alpha": lambda zero: _pair(
        _const(0.0), _const(0.0), _const(1.0), _const(1.0),
        _ts(1.0, 1.0, 1.0, 2.0, zero), _ts(1.0, 1.0, 1.0, 1.0, zero),
    ),
}


@pytest.mark.parametrize("name", sorted(SIGNED_ZERO_PAIRS))
@pytest.mark.parametrize("zero, twin_zero", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zero_twins_share_bits(name, zero, twin_zero):
    make = SIGNED_ZERO_PAIRS[name]
    cold, warm = cold_and_warm(make(zero), twin=make(twin_zero))
    assert cold == warm
    assert cold == cold_and_warm(make(twin_zero))[0]


def _bounds_only(name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.pop("estimator", None)
    raw.pop("sweep", None)
    return raw


@pytest.mark.parametrize("name", ["compound_poisson", "jump_diffusion", "tempered_stable"])
def test_horizon_sweep_csv_equals_cold_reports(tmp_path, capsys, name):
    raw = _bounds_only(name)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    clear_caches()
    argv = ["sweep", "--config", str(path), "--param", "horizon",
            "--from", "0.1", "--to", "5.0", "--steps", "6"]
    assert cli.main(argv) == 0
    got = capsys.readouterr().out

    lines = [cli.CSV_HEADER]
    for value in cli._sweep_values(0.1, 5.0, 6):
        clear_caches()
        report = compute_report(parse_config_dict(set_config_value(raw, "horizon", value)).problem)
        cells = [value, report.l1_nu, report.hellinger_sq_nu, report.xi_sq, report.thm1,
                 report.thm2, report.simple_sqrt, report.gaussian_exact, None, None]
        lines.append(",".join(cli._csv_cell(c) for c in cells))
    assert got == "".join(line + "\n" for line in lines)

