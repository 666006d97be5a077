"""Command line interface: output contracts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from addgap import cli, measures, montecarlo
from addgap.bounds import compute_report
from addgap.config import parse_config_dict
from addgap.measures import l1_distance
from addgap.montecarlo import estimate_tv

from _oracles import L1_EX3, TWO_SINH_1, clear_caches

TOL = 1e-12
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def cp_process(drift, intensity):
    return {
        "drift": {"form": "constant", "c": drift},
        "vol_sq": {"form": "constant", "c": 0.0},
        "levy": {
            "type": "compound_poisson",
            "lambda": intensity,
            "jump_density": {"family": "uniform", "a": 0.0, "b": 1.0},
        },
    }


def matched_cp_config(horizon=1.0):
    # Drifts equal to each gamma^nu, so the compensated drifts match.
    return {
        "process1": cp_process(1.0, 2.0),
        "process2": cp_process(0.5, 1.0),
        "horizon": horizon,
    }


def gaussian_config():
    return {
        "process1": {
            "drift": {"form": "constant", "c": 1.0},
            "vol_sq": {"form": "constant", "c": 1.0},
            "levy": {"type": "zero"},
        },
        "process2": {
            "drift": {"form": "constant", "c": 0.0},
            "vol_sq": {"form": "constant", "c": 1.0},
            "levy": {"type": "zero"},
        },
        "horizon": 4.0,
    }


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_table_output_and_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, err = run(capsys, ["bound", "--config", path])
        assert code == 0
        assert err == ""
        report = compute_report(parse_config_dict(matched_cp_config()).problem)
        assert repr(report.best) in out
        assert "thm1" in out and "thm2" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "bound"
        report = compute_report(parse_config_dict(matched_cp_config()).problem)
        assert math.isclose(doc["report"]["best"], report.best, rel_tol=TOL)
        assert math.isclose(doc["report"]["thm2"], report.thm2, rel_tol=TOL)
        assert doc["report"]["xi_sq"] is None
        assert "xi_sq" in doc["report"]["reasons"]

    def test_identical_processes_best_zero(self, tmp_path, capsys):
        data = matched_cp_config()
        data["process2"] = data["process1"]
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["best"] == 0.0

    def test_sigma_mismatch_best_two_exit_zero(self, tmp_path, capsys):
        data = gaussian_config()
        data["process2"]["vol_sq"] = {"form": "constant", "c": 2.0}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["best"] == 2.0
        assert doc["report"]["sigma_mismatch"] is True
        assert doc["report"]["reasons"]["thm1"] == "sigma mismatch"

    def test_vol_vanishing_between_probes_reports_infinite_xi(self, tmp_path, capsys):
        data = gaussian_config()
        data["horizon"] = 1.0
        for side in ("process1", "process2"):
            data[side]["vol_sq"] = {"form": "polynomial", "coeffs": [0.25010001, -1.0002, 1.0]}
        path = write_config(tmp_path, data)
        code, out, err = run(capsys, ["bound", "--config", path, "--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["xi_sq"] == "inf"
        assert report["reasons"]["thm1"] == report["reasons"]["thm2"] == "xi^2 infinite"

    def test_intense_compound_poisson_is_a_valid_measure(self, tmp_path, capsys):
        # lambda = 1e9 takes the y^2-integral past the quadrature's divergence
        # cap, but a finite-activity measure is always a Levy measure.
        data = gaussian_config()
        data["horizon"] = 1.0
        data["process1"]["drift"] = {"form": "constant", "c": 0.0}
        data["process1"]["levy"] = _cp_levy(1e9)
        data["process2"]["levy"] = _cp_levy(1.0)
        path = write_config(tmp_path, data)
        code, out, err = run(capsys, ["bound", "--config", path, "--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["l1_nu"] == pytest.approx(1e9 - 1.0, rel=1e-8)
        assert report["best"] == 2.0

    def test_no_applicable_bound_exit_two(self, tmp_path, capsys):
        data = matched_cp_config()
        data["process1"]["drift"] = {"form": "constant", "c": 3.0}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 2
        doc = json.loads(out)
        assert all(
            doc["report"][key] is None
            for key in ("thm1", "thm2", "simple_sqrt", "gaussian_exact")
        )

    def test_out_writes_file(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, ["bound", "--config", path, "--json", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["command"] == "bound"

    def test_infinite_values_serialized_as_strings(self, tmp_path, capsys):
        data = {
            "process1": {
                "drift": {"form": "constant", "c": 0.0},
                "vol_sq": {"form": "constant", "c": 1.0},
                "levy": {
                    "type": "tempered_stable",
                    "c_minus": 1.0,
                    "c_plus": 1.0,
                    "lambda_minus": 1.0,
                    "lambda_plus": 2.0,
                    "alpha": 1.5,
                },
            },
            "process2": {
                "drift": {"form": "constant", "c": 0.0},
                "vol_sq": {"form": "constant", "c": 1.0},
                "levy": {
                    "type": "tempered_stable",
                    "c_minus": 1.0,
                    "c_plus": 1.0,
                    "lambda_minus": 1.0,
                    "lambda_plus": 1.0,
                    "alpha": 1.5,
                },
            },
            "horizon": 1.0,
        }
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["l1_nu"] == "inf"
        assert doc["report"]["thm1"] is not None


class TestEstimate:
    def test_tv_json_matches_direct_call(self, tmp_path, capsys):
        data = matched_cp_config()
        path = write_config(tmp_path, data)
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--config",
                path,
                "--json",
                "--paths",
                "20000",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "estimate"
        assert doc["check"] == "tv"
        problem = parse_config_dict(data).problem
        direct = estimate_tv(problem, 20000, 0.0, 7)
        assert doc["estimate"]["mean"] == direct.mean
        assert doc["estimate"]["half_width_95"] == direct.half_width_95
        assert doc["estimate"]["n_paths"] == 20000
        assert doc["estimate"]["seed"] == 7
        assert doc["estimate"]["truncation_epsilon"] == 0.0
        report = compute_report(problem)
        assert math.isclose(
            doc["margins"]["thm1"], report.thm1 - direct.mean, rel_tol=TOL
        )
        assert "gaussian_exact" not in doc["margins"]
        assert doc["bounds"]["gaussian_exact"] is None

    def test_config_estimator_block_supplies_defaults(self, tmp_path, capsys):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 9000, "seed": 3}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["estimate", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["n_paths"] == 9000
        assert doc["estimate"]["seed"] == 3

    def test_flags_override_config(self, tmp_path, capsys):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 9000, "seed": 3}
        path = write_config(tmp_path, data)
        code, out, _ = run(
            capsys, ["estimate", "--config", path, "--json", "--paths", "4000"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["n_paths"] == 4000
        assert doc["estimate"]["seed"] == 3

    def test_martingale_check(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--config",
                path,
                "--json",
                "--check",
                "martingale",
                "--paths",
                "40000",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["check"] == "martingale"
        assert doc["target"] == 1.0
        mean = doc["estimate"]["mean"]
        hw = doc["estimate"]["half_width_95"]
        assert abs(mean - 1.0) <= 4.0 * hw

    def test_sinh_check_target(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--config",
                path,
                "--json",
                "--check",
                "sinh",
                "--paths",
                "40000",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["target"], 2.0 * math.sinh(1.0), rel_tol=1e-9)
        mean = doc["estimate"]["mean"]
        hw = doc["estimate"]["half_width_95"]
        assert abs(mean - doc["target"]) <= 4.0 * hw

    def test_sinh_check_computes_each_ingredient_once(self, tmp_path, capsys):
        # The oracle's absolute-continuity grid and L1 integral also give
        # the target: the command's second look-up of each is a cache hit.
        clear_caches()
        path = write_config(tmp_path, matched_cp_config())
        argv = ["estimate", "--config", path, "--json", "--check", "sinh", "--paths", "3000"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert measures.check_abs_continuity.cache_info().misses == 1
        assert measures.l1_distance.cache_info().misses == 1
        problem = parse_config_dict(matched_cp_config()).problem
        l1 = l1_distance(problem.process1.levy, problem.process2.levy)
        assert json.loads(out)["target"] == 2.0 * math.sinh(problem.horizon * l1)

    def test_epsilon_flag_reaches_result(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys,
            [
                "estimate",
                "--config",
                path,
                "--json",
                "--paths",
                "2000",
                "--epsilon",
                "0.05",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"]["truncation_epsilon"] == 0.05

    def test_hypothesis_failure_exit_two(self, tmp_path, capsys):
        data = gaussian_config()
        data["process2"]["vol_sq"] = {"form": "constant", "c": 2.0}
        path = write_config(tmp_path, data)
        code, out, err = run(capsys, ["estimate", "--config", path, "--json"])
        assert code == 2
        assert out == ""
        assert "sigma mismatch" in err

    def test_table_output_lists_margins(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys, ["estimate", "--config", path, "--paths", "2000"]
        )
        assert code == 0
        assert "margin[thm1]" in out
        assert "margin[gaussian_exact]" in out

    def test_byte_identical_across_thread_counts(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, matched_cp_config())
        argv = [
            "estimate",
            "--config",
            path,
            "--json",
            "--paths",
            "20000",
            "--seed",
            "5",
        ]
        monkeypatch.setenv("ADDGAP_THREADS", "1")
        code1, out1, _ = run(capsys, argv)
        monkeypatch.setenv("ADDGAP_THREADS", "8")
        code8, out8, _ = run(capsys, argv)
        assert code1 == code8 == 0
        assert out1 == out8


class TestCompare:
    def test_json_contains_report_and_estimate(self, tmp_path, capsys):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 8000, "seed": 2}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["compare", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "compare"
        assert doc["estimate_error"] is None
        assert doc["report"]["thm1"] is not None
        assert math.isclose(
            doc["margins"]["thm1"],
            doc["report"]["thm1"] - doc["estimate"]["mean"],
            rel_tol=TOL,
        )

    def test_sigma_mismatch_keeps_report_exit_zero(self, tmp_path, capsys):
        data = gaussian_config()
        data["process2"]["vol_sq"] = {"form": "constant", "c": 2.0}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["compare", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] is None
        assert "sigma mismatch" in doc["estimate_error"]
        assert doc["report"]["best"] == 2.0

    def test_no_bound_and_no_estimate_exit_two(self, tmp_path, capsys):
        data = matched_cp_config()
        data["process1"]["drift"] = {"form": "constant", "c": 3.0}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["compare", "--config", path, "--json"])
        assert code == 2
        doc = json.loads(out)
        assert doc["estimate"] is None
        assert doc["estimate_error"]


class TestSweep:
    def test_header_and_row_count(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--param",
                "horizon",
                "--from",
                "0.5",
                "--to",
                "2.0",
                "--steps",
                "4",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "parameter,l1_nu,hellinger_sq_nu,xi_sq,thm1,thm2,"
            "simple_sqrt,gaussian_exact,estimate,half_width"
        )
        assert len(lines) == 5
        assert lines[1].startswith("0.5,")
        assert lines[4].startswith("2.0,")

    def test_single_step_row_matches_bound_report(self, tmp_path, capsys):
        data = matched_cp_config()
        path = write_config(tmp_path, data)
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--param",
                "horizon",
                "--from",
                "1.0",
                "--to",
                "1.0",
                "--steps",
                "1",
            ],
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        report = compute_report(parse_config_dict(data).problem)
        assert float(row[0]) == 1.0
        assert float(row[1]) == report.l1_nu
        assert float(row[4]) == report.thm1
        assert float(row[5]) == report.thm2
        assert row[3] == ""
        assert row[8] == "" and row[9] == ""

    def test_estimator_block_fills_estimate_column(self, tmp_path, capsys):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 4000, "seed": 1}
        path = write_config(tmp_path, data)
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--param",
                "horizon",
                "--from",
                "1.0",
                "--to",
                "1.0",
                "--steps",
                "1",
            ],
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        direct = estimate_tv(parse_config_dict(data).problem, 4000, 0.0, 1)
        assert float(row[8]) == direct.mean
        assert float(row[9]) == direct.half_width_95

    @pytest.mark.parametrize(
        "param, start, stop",
        [("estimator.seed", "1", "2"), ("estimator.n_paths", "3000", "5000")],
    )
    def test_swept_estimator_leaf_sets_each_row(self, tmp_path, capsys, param, start, stop):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 4000, "seed": 1}
        path = write_config(tmp_path, data)
        argv = ["sweep", "--config", path, "--param", param, "--from", start, "--to", stop,
                "--steps", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        spec = parse_config_dict(data).problem
        leaf = param.split(".")[1]
        for line, value in zip(out.splitlines()[1:], (start, stop), strict=True):
            settings = {**data["estimator"], leaf: int(value)}
            direct = estimate_tv(spec, settings["n_paths"], 0.0, settings["seed"])
            row = line.split(",")
            assert (row[8], row[9]) == (repr(direct.mean), repr(direct.half_width_95))
        # A flag still takes precedence over the swept leaf.
        flag = {"estimator.seed": "--seed", "estimator.n_paths": "--paths"}[param]
        code, out, _ = run(capsys, argv + [flag, "4000" if leaf == "n_paths" else "1"])
        assert code == 0
        direct = estimate_tv(spec, 4000, 0.0, 1)
        for line in out.splitlines()[1:]:
            assert line.split(",")[8:] == [repr(direct.mean), repr(direct.half_width_95)]

    def test_config_sweep_block_used(self, tmp_path, capsys):
        data = matched_cp_config()
        data["sweep"] = {"parameter": "horizon", "from": 0.5, "to": 1.5, "steps": 3}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["sweep", "--config", path])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("1.0,")

    def test_flags_override_sweep_block(self, tmp_path, capsys):
        data = matched_cp_config()
        data["sweep"] = {"parameter": "horizon", "from": 0.5, "to": 1.5, "steps": 3}
        path = write_config(tmp_path, data)
        code, out, _ = run(capsys, ["sweep", "--config", path, "--steps", "2"])
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_missing_sweep_settings_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, _, err = run(capsys, ["sweep", "--config", path])
        assert code == 1
        assert "sweep requires" in err

    def test_unknown_parameter_path_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, _, err = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--param",
                "process1.levy.rate",
                "--from",
                "1.0",
                "--to",
                "2.0",
                "--steps",
                "2",
            ],
        )
        assert code == 1
        assert "process1.levy.rate" in err

    def test_inapplicable_rows_have_empty_cells(self, tmp_path, capsys):
        # Sweeping lambda2 away from 1.0 breaks the drift matching, so the
        # sigma = 0 bounds vanish for those rows.
        path = write_config(tmp_path, matched_cp_config())
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--param",
                "process2.levy.lambda",
                "--from",
                "1.0",
                "--to",
                "2.0",
                "--steps",
                "2",
            ],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[0][4] != ""
        assert rows[1][4] == "" and rows[1][5] == ""
        assert rows[1][1] != ""

    def test_out_file_byte_identical_across_runs(self, tmp_path, capsys, monkeypatch):
        data = matched_cp_config()
        data["estimator"] = {"n_paths": 12000, "seed": 9}
        path = write_config(tmp_path, data)
        argv = [
            "sweep",
            "--config",
            path,
            "--param",
            "horizon",
            "--from",
            "0.5",
            "--to",
            "1.5",
            "--steps",
            "3",
        ]
        monkeypatch.setenv("ADDGAP_THREADS", "1")
        code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "a.csv")])
        assert code == 0
        monkeypatch.setenv("ADDGAP_THREADS", "8")
        code, _, _ = run(capsys, argv + ["--out", str(tmp_path / "b.csv")])
        assert code == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        assert b"\r" not in a
        assert a.endswith(b"\n")


class TestBundledConfigs:
    def test_compound_poisson_sinh_bound(self, capsys):
        path = str(CONFIG_DIR / "compound_poisson.json")
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["report"]["thm2"], TWO_SINH_1, rel_tol=1e-9)
        assert doc["report"]["drift_matched"] is True

    def test_jump_diffusion_estimate_below_bounds(self, capsys):
        path = str(CONFIG_DIR / "jump_diffusion.json")
        code, out, _ = run(
            capsys,
            ["compare", "--config", path, "--json", "--paths", "20000"],
        )
        assert code == 0
        doc = json.loads(out)
        hw = doc["estimate"]["half_width_95"]
        mean = doc["estimate"]["mean"]
        assert mean <= doc["report"]["thm1"] + 4.0 * hw
        assert mean <= doc["report"]["thm2"] + 4.0 * hw

    def test_tempered_stable_pair(self, capsys):
        path = str(CONFIG_DIR / "tempered_stable.json")
        code, out, _ = run(
            capsys,
            ["compare", "--config", path, "--json", "--paths", "5000"],
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["report"]["l1_nu"], L1_EX3, rel_tol=1e-6)
        assert doc["report"]["thm1"] is not None
        mean = doc["estimate"]["mean"]
        hw = doc["estimate"]["half_width_95"]
        assert mean <= doc["report"]["thm1"] + 4.0 * hw

    @pytest.mark.parametrize("command", [["bound"], ["compare", "--paths", "2000"]])
    def test_tempered_stable_pair_swapped(self, tmp_path, capsys, command):
        # nu1 has the heavier positive tail: far out, nu2's density
        # underflows to 0 while nu1's does not.
        bundled = CONFIG_DIR / "tempered_stable.json"
        data = json.loads(bundled.read_text(encoding="utf-8"))
        data["process1"], data["process2"] = data["process2"], data["process1"]
        data["process1"]["drift"]["c"] = 0.29736025230224585
        data["process2"]["drift"]["c"] = 0.0
        reports = []
        for path in (str(bundled), write_config(tmp_path, data)):
            code, out, err = run(capsys, [command[0], "--config", path, "--json", *command[1:]])
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["report"])
        for key in ("l1_nu", "hellinger_sq_nu"):
            assert math.isclose(reports[1][key], reports[0][key], rel_tol=1e-12)

    def test_horizon_sweep_shapes(self, capsys):
        # The sinh bound grows superlinearly with the horizon while the
        # Hellinger-based bound saturates below sqrt(8).
        path = str(CONFIG_DIR / "compound_poisson.json")
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--config",
                path,
                "--steps",
                "8",
                "--paths",
                "2000",
            ],
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        horizons = [float(r[0]) for r in rows]
        thm1 = [float(r[4]) for r in rows]
        thm2 = [float(r[5]) for r in rows]
        assert horizons[0] == 0.1 and horizons[-1] == 5.0
        assert all(a < b for a, b in zip(thm1, thm1[1:]))
        assert thm1[-1] < math.sqrt(8.0)
        assert thm2[-1] / thm2[0] > 2.0 * horizons[-1] / horizons[0]


# Runs the CLI argument lists given as JSON in one fresh interpreter, then
# prints whether scipy.special was imported.
SCIPY_PROBE = """
import contextlib, io, json, sys
from addgap import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("scipy.special" in sys.modules)
"""


@pytest.mark.parametrize(
    "names, commands, loaded",
    [
        (("compound_poisson", "tempered_stable"), (["bound"], ["estimate", "--paths", "2000"]), False),
        (("jump_diffusion",), (["bound"],), True),
    ],
)
def test_scipy_special_is_imported_only_when_needed(names, commands, loaded):
    # Pairs without a Gaussian part never evaluate the normal CDF or erf.
    argvs = [
        [command[0], "--config", str(CONFIG_DIR / f"{name}.json"), *command[1:]]
        for name in names
        for command in commands
    ]
    root = CONFIG_DIR.parent
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
        capture_output=True, cwd=root, env=env, timeout=300, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loaded)


def heavy_tempered_config():
    """tempered_stable.json with alpha = 1.5 and sigma^2 = 1 on both sides and
    no estimator block: at the default epsilon 1e-4 one chunk of paths
    would expect about 1.1e10 jumps."""
    data = json.loads((CONFIG_DIR / "tempered_stable.json").read_text())
    del data["estimator"]
    for key in ("process1", "process2"):
        data[key]["levy"]["alpha"] = 1.5
        data[key]["vol_sq"]["c"] = 1.0
    return data


class TestChunkJumpGuard:
    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def never_sample(*args, **kwargs):
            raise AssertionError("the guard must refuse before any jump is drawn")

        monkeypatch.setattr(montecarlo, "stream_jump_sums", never_sample)

    def test_bound_still_applies(self, tmp_path, capsys):
        path = write_config(tmp_path, heavy_tempered_config())
        code, out, _ = run(capsys, ["bound", "--config", path, "--json"])
        assert code == 0
        assert 1.4 < json.loads(out)["report"]["thm1"] < 1.5

    def test_estimate_exits_two_naming_epsilon(self, tmp_path, capsys):
        path = write_config(tmp_path, heavy_tempered_config())
        code, out, err = run(capsys, ["estimate", "--config", path])
        assert code == 2 and out == ""
        assert "epsilon = 0.0001 expects 1.09e+10 jumps" in err

    def test_compare_keeps_the_report(self, tmp_path, capsys):
        path = write_config(tmp_path, heavy_tempered_config())
        code, out, _ = run(capsys, ["compare", "--config", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] is None
        assert "1.09e+10 jumps" in doc["estimate_error"]
        assert doc["report"]["thm1"] is not None

    def test_sweep_leaves_estimate_cells_empty(self, tmp_path, capsys):
        path = write_config(tmp_path, heavy_tempered_config())
        argv = ["sweep", "--config", path, "--param", "horizon", "--from", "0.5",
                "--to", "1.0", "--steps", "2", "--paths", "1000"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2
        assert all(row[4] != "" and row[8:] == ["", ""] for row in rows)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["bound", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "cannot read config" in err

    def test_config_parse_error(self, tmp_path, capsys):
        data = matched_cp_config()
        data["extra"] = 1
        path = write_config(tmp_path, data)
        code, _, err = run(capsys, ["bound", "--config", path])
        assert code == 1
        assert "config.extra" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert err

    def test_bad_flag_value(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, _, err = run(
            capsys, ["estimate", "--config", path, "--paths", "many"]
        )
        assert code == 1

    def test_nonpositive_paths(self, tmp_path, capsys):
        path = write_config(tmp_path, matched_cp_config())
        code, _, err = run(capsys, ["estimate", "--config", path, "--paths", "0"])
        assert code == 1
        assert "--paths" in err

    @pytest.mark.parametrize("command", ["estimate", "compare", "sweep"])
    @pytest.mark.parametrize(
        "value, reason",
        [("nan", "must be finite"), ("inf", "must be finite"), ("-inf", "must be >= 0")],
    )
    def test_bad_epsilon_names_the_flag(self, command, value, reason, capsys):
        config = str(CONFIG_DIR / "compound_poisson.json")
        code, out, err = run(
            capsys, [command, "--config", config, "--paths", "100", f"--epsilon={value}"]
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --epsilon: {reason}\n"

    @pytest.mark.parametrize("value", ["0", "1e-9"])
    def test_exact_tempered_stable_pair_ignores_epsilon(self, value, capsys):
        # The bundled pair draws its jump part exactly: epsilon 0 needs no
        # finite activity and 1e-9 no jump limit.
        config = str(CONFIG_DIR / "tempered_stable.json")
        argv = ["estimate", "--config", config, "--json", "--paths", "20000"]
        code, out, err = run(capsys, argv + ["--epsilon", value])
        assert code == 0 and err == ""
        estimate = json.loads(out)["estimate"]
        assert estimate["truncation_epsilon"] == 0.0
        code, default, _ = run(capsys, argv)
        assert code == 0 and json.loads(default)["estimate"] == estimate

    @pytest.mark.parametrize(
        "value, reason",
        [("-1e-3", "must be >= 0"), ("nan", "must be finite"), ("inf", "must be finite")],
    )
    def test_exact_tempered_stable_pair_checks_epsilon(self, value, reason, capsys):
        config = str(CONFIG_DIR / "tempered_stable.json")
        code, out, err = run(
            capsys, ["estimate", "--config", config, "--paths", "100", "--epsilon", value]
        )
        assert code == 1 and out == ""
        assert err == f"error: --epsilon: {reason}\n"

    @pytest.mark.parametrize("command", ["estimate", "compare", "sweep"])
    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    def test_negative_epsilon_as_its_own_argument(self, command, value, capsys):
        # argparse reads "-1e-3" and "-inf" as negative numbers, not options.
        config = str(CONFIG_DIR / "compound_poisson.json")
        code, out, err = run(
            capsys, [command, "--config", config, "--paths", "100", "--epsilon", value]
        )
        assert code == 1
        assert out == ""
        assert err == "error: --epsilon: must be >= 0\n"


def _ts_levy(alpha, c=(1.0, 2.0), lam=(1.5, 0.7)):
    return {
        "type": "tempered_stable", "c_minus": c[0], "c_plus": c[1],
        "lambda_minus": lam[0], "lambda_plus": lam[1], "alpha": alpha,
    }


def _cp_levy(intensity, density=None):
    return {
        "type": "compound_poisson", "lambda": intensity,
        "jump_density": density or {"family": "uniform", "a": 0.0, "b": 1.0},
    }


# A measure at the edge of what parses, and a plain one of its family.  The
# tempered-stable measure with lambda = 1e-300 is left out: it exits 2, but
# only after a quadrature tail stall of about 2 s per command.
HOSTILE_MEASURES = {
    "ts_alpha_-1e-9_vs_-0.5": (_ts_levy(-1e-9), _ts_levy(-0.5)),
    "ts_alpha_-1e-3": (_ts_levy(-1e-3), _ts_levy(-1e-3, lam=(1.0, 1.0))),
    "ts_alpha_1.99": (_ts_levy(1.99), _ts_levy(1.99, lam=(1.0, 1.0))),
    "ts_c_1e300": (_ts_levy(0.5, c=(1e300, 1e300)), _ts_levy(0.5)),
    "cp_lambda_1e-300": (_cp_levy(1e-300), _cp_levy(1.0)),
    "cp_lambda_1e12": (_cp_levy(1e12), _cp_levy(1.0)),
    "normal_variance_1e-300": (
        _cp_levy(1.0, {"family": "normal", "mean": 0.0, "variance": 1e-300}),
        _cp_levy(1.0, {"family": "normal", "mean": 0.0, "variance": 1.0}),
    ),
    "uniform_1e308": (
        _cp_levy(1.0, {"family": "uniform", "a": -1e308, "b": 1e308}),
        _cp_levy(1.0, {"family": "uniform", "a": -1.0, "b": 1.0}),
    ),
    "exponential_rate_1e300": (
        _cp_levy(1.0, {"family": "exponential", "rate": 1e300}),
        _cp_levy(1.0, {"family": "exponential", "rate": 1.0}),
    ),
    "exponential_rate_1e-300": (
        _cp_levy(1.0, {"family": "exponential", "rate": 1e-300}),
        _cp_levy(1.0, {"family": "exponential", "rate": 1.0}),
    ),
}

HOSTILE_COMMANDS = (
    ["bound"],
    ["estimate", "--paths", "2000"],
    ["estimate", "--paths", "2000", "--epsilon", "0.01"],
    ["estimate", "--paths", "2000", "--check", "martingale"],
    ["estimate", "--paths", "2000", "--check", "sinh"],
    ["compare", "--paths", "2000"],
)


class TestHostileInputs:
    @pytest.mark.parametrize("hostile_process", [1, 2])
    @pytest.mark.parametrize("name", sorted(HOSTILE_MEASURES))
    def test_every_command_exits_cleanly(self, tmp_path, capsys, name, hostile_process):
        # Each command returns an exit code, 0, 1 or 2, and raises nothing,
        # with the measure in either process, at horizons 1, 1e-300 and
        # 1e300 and at sigma^2 0 and 1.
        hostile, plain = HOSTILE_MEASURES[name]
        levies = (hostile, plain) if hostile_process == 1 else (plain, hostile)
        codes = set()
        for horizon in (1.0, 1e-300, 1e300):
            for vol in (0.0, 1.0):
                config = {"horizon": horizon}
                for key, levy in zip(("process1", "process2"), levies):
                    config[key] = {
                        "drift": {"form": "constant", "c": 0.0},
                        "vol_sq": {"form": "constant", "c": vol},
                        "levy": levy,
                    }
                path = write_config(tmp_path, config)
                for command in HOSTILE_COMMANDS:
                    codes.add(cli.main([command[0], "--config", path, *command[1:]]))
        capsys.readouterr()
        assert codes <= {0, 1, 2}

    def test_overflowed_estimate_is_refused(self, tmp_path, capsys):
        # At horizon 1e300, e^{A+} overflows on every path of the sinh
        # oracle: the estimate exits 2 with one error line, not an inf mean.
        hostile, plain = HOSTILE_MEASURES["cp_lambda_1e-300"]
        config = {"horizon": 1e300}
        for key, levy in (("process1", plain), ("process2", hostile)):
            config[key] = {
                "drift": {"form": "constant", "c": 0.0},
                "vol_sq": {"form": "constant", "c": 0.0},
                "levy": levy,
            }
        path = write_config(tmp_path, config)
        argv = ["estimate", "--config", path, "--paths", "2000", "--check", "sinh"]
        assert run(capsys, argv) == (
            2,
            "",
            "error: the path values overflow: their sum or sum of squares is not finite\n",
        )
