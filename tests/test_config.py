"""Strict JSON config parsing and sweep parameter paths."""

import copy
import json
import math

import pytest

from addgap.config import (
    DEFAULT_N_PATHS,
    EstimatorSettings,
    SweepSettings,
    parse_config,
    parse_config_dict,
    set_config_value,
)
from addgap.errors import ConfigParse, UnknownParameterPath
from addgap.measures import (
    CompoundPoissonMeasure,
    ExponentialDensity,
    NormalDensity,
    TabulatedDensity,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from addgap.processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
)

TOL = 1e-12


def cp_fragment(intensity=2.0, a=0.0, b=1.0):
    return {
        "type": "compound_poisson",
        "lambda": intensity,
        "jump_density": {"family": "uniform", "a": a, "b": b},
    }


def base_config():
    return {
        "process1": {
            "drift": {"form": "constant", "c": 1.0},
            "vol_sq": {"form": "constant", "c": 0.0},
            "levy": cp_fragment(2.0),
        },
        "process2": {
            "drift": {"form": "constant", "c": 0.5},
            "vol_sq": {"form": "constant", "c": 0.0},
            "levy": cp_fragment(1.0),
        },
        "horizon": 1.0,
    }


def with_levy(levy):
    data = base_config()
    data["process1"]["levy"] = copy.deepcopy(levy)
    data["process1"]["drift"] = {"form": "constant", "c": 0.0}
    data["process2"]["levy"] = copy.deepcopy(levy)
    data["process2"]["drift"] = {"form": "constant", "c": 0.0}
    return data


class TestParseValid:
    def test_round_trip_basics(self):
        cfg = parse_config_dict(base_config())
        assert cfg.problem.horizon == 1.0
        nu1 = cfg.problem.process1.levy
        assert isinstance(nu1, CompoundPoissonMeasure)
        assert nu1.intensity == 2.0
        assert isinstance(nu1.jump_density, UniformDensity)
        assert cfg.estimator is None
        assert cfg.sweep is None
        assert cfg.raw == base_config()

    def test_estimator_defaults(self):
        data = base_config()
        data["estimator"] = {}
        cfg = parse_config_dict(data)
        assert cfg.estimator == EstimatorSettings(DEFAULT_N_PATHS, None, 0)

    def test_estimator_fields(self):
        data = base_config()
        data["estimator"] = {"n_paths": 5000, "epsilon": 1e-3, "seed": 11}
        cfg = parse_config_dict(data)
        assert cfg.estimator == EstimatorSettings(5000, 1e-3, 11)

    def test_sweep_block(self):
        data = base_config()
        data["sweep"] = {
            "parameter": "horizon",
            "from": 0.1,
            "to": 5.0,
            "steps": 25,
        }
        cfg = parse_config_dict(data)
        assert cfg.sweep == SweepSettings("horizon", 0.1, 5.0, 25)

    def test_zero_measure(self):
        cfg = parse_config_dict(with_levy({"type": "zero"}))
        assert isinstance(cfg.problem.process1.levy, ZeroMeasure)

    def test_tempered_stable(self):
        levy = {
            "type": "tempered_stable",
            "c_minus": 1.0,
            "c_plus": 2.0,
            "lambda_minus": 3.0,
            "lambda_plus": 4.0,
            "alpha": 0.5,
        }
        nu = parse_config_dict(with_levy(levy)).problem.process1.levy
        assert isinstance(nu, TemperedStableMeasure)
        assert math.isclose(nu.density(1.0), 2.0 * math.exp(-4.0), rel_tol=TOL)
        assert math.isclose(nu.density(-1.0), 1.0 * math.exp(-3.0), rel_tol=TOL)

    def test_tabulated_measure(self):
        levy = {
            "type": "tabulated",
            "grid": [0.5, 1.0, 2.0],
            "values": [0.4, 0.2, 0.1],
        }
        nu = parse_config_dict(with_levy(levy)).problem.process1.levy
        assert isinstance(nu, TabulatedLevyMeasure)
        assert math.isclose(nu.density(0.5), 0.4, rel_tol=TOL)

    def test_density_families(self):
        for fragment, cls in [
            ({"family": "exponential", "rate": 2.0}, ExponentialDensity),
            ({"family": "normal", "mean": 0.5, "variance": 2.0}, NormalDensity),
            (
                {"family": "tabulated", "grid": [0.0, 1.0], "values": [1.0, 1.0]},
                TabulatedDensity,
            ),
        ]:
            levy = {"type": "compound_poisson", "lambda": 1.0, "jump_density": fragment}
            nu = parse_config_dict(with_levy(levy)).problem.process1.levy
            assert isinstance(nu.jump_density, cls)

    def test_time_function_forms(self):
        data = base_config()
        data["process1"]["drift"] = {"form": "polynomial", "coeffs": [0.5, 1.0]}
        data["process1"]["vol_sq"] = {
            "form": "piecewise_constant",
            "breaks": [0.5],
            "values": [1.0, 2.0],
        }
        data["process2"]["vol_sq"] = {"form": "constant", "c": 1.5}
        cfg = parse_config_dict(data)
        p1 = cfg.problem.process1
        assert isinstance(p1.drift, PolynomialFunction)
        assert math.isclose(float(p1.drift.value(0.25)), 0.75, rel_tol=TOL)
        assert isinstance(p1.vol_sq, PiecewiseConstantFunction)
        assert float(p1.vol_sq.value(0.75)) == 2.0
        assert isinstance(cfg.problem.process2.vol_sq, ConstantFunction)

    def test_raw_is_an_independent_copy(self):
        data = base_config()
        cfg = parse_config_dict(data)
        data["horizon"] = 99.0
        assert cfg.raw["horizon"] == 1.0


class TestStrictness:
    def expect(self, data, field):
        with pytest.raises(ConfigParse) as err:
            parse_config_dict(data)
        assert err.value.field == field

    def test_unknown_top_level_field(self):
        data = base_config()
        data["horizons"] = 2.0
        self.expect(data, "config.horizons")

    def test_missing_process(self):
        data = base_config()
        del data["process2"]
        self.expect(data, "config.process2")

    def test_unknown_process_field(self):
        data = base_config()
        data["process1"]["jumps"] = {"type": "zero"}
        self.expect(data, "config.process1.jumps")

    def test_unknown_levy_field(self):
        data = base_config()
        data["process1"]["levy"]["rate"] = 2.0
        self.expect(data, "config.process1.levy.rate")

    def test_unknown_levy_type(self):
        data = base_config()
        data["process1"]["levy"] = {"type": "stable"}
        self.expect(data, "config.process1.levy.type")

    def test_unknown_density_family(self):
        data = base_config()
        data["process1"]["levy"]["jump_density"] = {"family": "cauchy"}
        self.expect(data, "config.process1.levy.jump_density.family")

    def test_unknown_time_function_form(self):
        data = base_config()
        data["process1"]["drift"] = {"form": "linear", "c": 1.0}
        self.expect(data, "config.process1.drift.form")

    def test_horizon_not_a_number(self):
        data = base_config()
        data["horizon"] = "1.0"
        self.expect(data, "config.horizon")

    def test_bool_rejected_as_number(self):
        data = base_config()
        data["horizon"] = True
        self.expect(data, "config.horizon")

    def test_non_finite_rejected(self):
        data = base_config()
        data["horizon"] = math.inf
        self.expect(data, "config.horizon")

    def test_non_positive_horizon_names_field(self):
        data = base_config()
        data["horizon"] = 0.0
        self.expect(data, "config.horizon")

    def test_constructor_error_wrapped(self):
        data = base_config()
        data["process1"]["levy"]["lambda"] = -2.0
        self.expect(data, "config.process1.levy")

    def test_uniform_empty_interval(self):
        data = base_config()
        data["process1"]["levy"]["jump_density"]["b"] = 0.0
        self.expect(data, "config.process1.levy.jump_density")

    def test_grid_entries_checked(self):
        data = base_config()
        data["process1"]["levy"] = {
            "type": "tabulated",
            "grid": [0.5, "x"],
            "values": [1.0, 1.0],
        }
        self.expect(data, "config.process1.levy.grid.1")

    def test_empty_grid_rejected(self):
        data = base_config()
        data["process1"]["levy"] = {"type": "tabulated", "grid": [], "values": []}
        self.expect(data, "config.process1.levy.grid")

    def test_n_paths_must_be_integer(self):
        data = base_config()
        data["estimator"] = {"n_paths": 5000.0}
        self.expect(data, "config.estimator.n_paths")

    def test_n_paths_positive(self):
        data = base_config()
        data["estimator"] = {"n_paths": 0}
        self.expect(data, "config.estimator.n_paths")

    def test_epsilon_non_negative(self):
        data = base_config()
        data["estimator"] = {"epsilon": -1e-4}
        self.expect(data, "config.estimator.epsilon")

    def test_seed_range(self):
        data = base_config()
        data["estimator"] = {"seed": -1}
        self.expect(data, "config.estimator.seed")
        data["estimator"] = {"seed": 1 << 64}
        self.expect(data, "config.estimator.seed")

    def test_sweep_requires_all_fields(self):
        data = base_config()
        data["sweep"] = {"parameter": "horizon", "from": 0.1, "to": 1.0}
        self.expect(data, "config.sweep.steps")

    def test_sweep_steps_positive(self):
        data = base_config()
        data["sweep"] = {"parameter": "horizon", "from": 0.1, "to": 1.0, "steps": 0}
        self.expect(data, "config.sweep.steps")

    def test_sweep_parameter_string(self):
        data = base_config()
        data["sweep"] = {"parameter": 3, "from": 0.1, "to": 1.0, "steps": 2}
        self.expect(data, "config.sweep.parameter")


_TS = {
    "type": "tempered_stable", "c_minus": 1.0, "c_plus": 1.0,
    "lambda_minus": 1.0, "lambda_plus": 2.0, "alpha": 0.5,
}
_TS_NO_ALPHA = {key: value for key, value in _TS.items() if key != "alpha"}

# (fragment of process1 replaced, new fragment, the full message)
MESSAGE_CASES = {
    "levy_no_type": ("levy", {"lambda": 1.0}, "config.process1.levy.type: missing required field"),
    "density_no_family": (
        "levy.jump_density", {"a": 0.0, "b": 1.0},
        "config.process1.levy.jump_density.family: missing required field",
    ),
    "drift_no_form": ("drift", {"c": 1.0}, "config.process1.drift.form: missing required field"),
    "levy_type_stable": (
        "levy", {"type": "stable"}, "config.process1.levy.type: unknown Levy measure type 'stable'"
    ),
    "density_family_cauchy": (
        "levy.jump_density", {"family": "cauchy"},
        "config.process1.levy.jump_density.family: unknown jump density family 'cauchy'",
    ),
    "drift_form_linear": (
        "drift", {"form": "linear", "c": 1.0},
        "config.process1.drift.form: unknown time function form 'linear'",
    ),
    **{
        f"levy_type_{name}": (
            "levy", {"type": tag}, f"config.process1.levy.type: unknown Levy measure type {text}"
        )
        for name, tag, text in (
            ("1", 1, "1"),
            ("1.5", 1.5, "1.5"),
            ("true", True, "True"),
            ("null", None, "None"),
            ("list", [1], "[1]"),
            ("object", {}, "{}"),
        )
    },
    "density_family_list": (
        "levy.jump_density", {"family": [1]},
        "config.process1.levy.jump_density.family: unknown jump density family [1]",
    ),
    "drift_form_object": (
        "drift", {"form": {}}, "config.process1.drift.form: unknown time function form {}"
    ),
    "levy_not_object": ("levy", [1], "config.process1.levy: expected a JSON object"),
    "density_not_object": (
        "levy.jump_density", "uniform", "config.process1.levy.jump_density: expected a JSON object"
    ),
    "ts_unknown_field": ("levy", {**_TS, "beta": 1.0}, "config.process1.levy.beta: unknown field"),
    "ts_missing_field": (
        "levy", _TS_NO_ALPHA, "config.process1.levy.alpha: missing required field"
    ),
    "ts_first_bad_field": (
        "levy", {**_TS, "c_minus": "x", "alpha": "y"},
        "config.process1.levy.c_minus: expected a number",
    ),
    "zero_extra_field": (
        "levy", {"type": "zero", "lambda": 1.0}, "config.process1.levy.lambda: unknown field"
    ),
    "normal_unknown_field": (
        "levy.jump_density", {"family": "normal", "mean": 0.0, "variance": 1.0, "sd": 1.0},
        "config.process1.levy.jump_density.sd: unknown field",
    ),
    "normal_missing_field": (
        "levy.jump_density", {"family": "normal", "mean": 0.0},
        "config.process1.levy.jump_density.variance: missing required field",
    ),
    "piecewise_unknown_field": (
        "drift", {"form": "piecewise_constant", "breaks": [0.5], "values": [1.0, 2.0], "slope": 1.0},
        "config.process1.drift.slope: unknown field",
    ),
    "piecewise_missing_field": (
        "drift", {"form": "piecewise_constant", "breaks": [0.5]},
        "config.process1.drift.values: missing required field",
    ),
    "number_wrong_type": (
        "levy", {"type": "compound_poisson", "lambda": "2", "jump_density": 1},
        "config.process1.levy.lambda: expected a number",
    ),
    "constant_bool": (
        "vol_sq", {"form": "constant", "c": True}, "config.process1.vol_sq.c: expected a number"
    ),
    "list_wrong_type": (
        "drift", {"form": "polynomial", "coeffs": 1.0},
        "config.process1.drift.coeffs: expected a non-empty array of numbers",
    ),
    "list_item_wrong_type": (
        "levy", {"type": "tabulated", "grid": [0.1, "x"], "values": [1.0, 1.0]},
        "config.process1.levy.grid.1: expected a number",
    ),
    "uniform_empty": (
        "levy.jump_density", {"family": "uniform", "a": 1.0, "b": 1.0},
        "config.process1.levy.jump_density: uniform density needs a < b, got [1.0, 1.0]",
    ),
    "ts_constructor": (
        "levy", {**_TS, "alpha": 2.5}, "config.process1.levy: tempered stable alpha must be < 2"
    ),
    "piecewise_constructor": (
        "drift", {"form": "piecewise_constant", "breaks": [0.5], "values": [1.0]},
        "config.process1.drift: piecewise constant needs len(values) == len(breaks) + 1",
    ),
}


@pytest.mark.parametrize("name", list(MESSAGE_CASES))
def test_tagged_fragment_messages(name):
    # Each tagged fragment (a Levy measure, a jump density, a time function)
    # is refused with its full message: the node, the tag, the keys, each
    # field in order, then the constructor.
    fragment, node, message = MESSAGE_CASES[name]
    data = base_config()
    *inner, leaf = fragment.split(".")
    parent = data["process1"]
    for key in inner:
        parent = parent[key]
    parent[leaf] = node
    with pytest.raises(ConfigParse) as err:
        parse_config_dict(data)
    assert str(err.value) == message


class TestParseFile:
    def test_reads_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.problem.horizon == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParse) as err:
            parse_config(tmp_path / "absent.json")
        assert "cannot read config" in err.value.message

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigParse) as err:
            parse_config(path)
        assert "invalid JSON" in err.value.message


class TestSetConfigValue:
    def test_replaces_top_level_leaf(self):
        raw = base_config()
        out = set_config_value(raw, "horizon", 2.5)
        assert out["horizon"] == 2.5
        assert raw["horizon"] == 1.0

    def test_replaces_nested_leaf(self):
        out = set_config_value(base_config(), "process2.levy.lambda", 1.5)
        assert out["process2"]["levy"]["lambda"] == 1.5

    def test_copies_only_the_path(self):
        raw = base_config()
        before = copy.deepcopy(raw)
        out = set_config_value(raw, "process2.levy.lambda", 1.5)
        assert raw == before
        assert out["process2"] is not raw["process2"]
        assert out["process2"]["levy"] is not raw["process2"]["levy"]
        # Nodes off the path are shared with raw.
        assert out["process1"] is raw["process1"]
        assert out["process2"]["drift"] is raw["process2"]["drift"]
        assert out["process2"]["levy"]["jump_density"] is raw["process2"]["levy"]["jump_density"]

    def test_array_index_path(self):
        data = base_config()
        data["process1"]["drift"] = {"form": "polynomial", "coeffs": [0.0, 1.0]}
        out = set_config_value(data, "process1.drift.coeffs.1", 2.0)
        assert out["process1"]["drift"]["coeffs"] == [0.0, 2.0]

    def test_integer_leaf_stays_integer(self):
        data = base_config()
        data["estimator"] = {"n_paths": 1000}
        out = set_config_value(data, "estimator.n_paths", 2000.0)
        assert out["estimator"]["n_paths"] == 2000
        assert isinstance(out["estimator"]["n_paths"], int)
        parse_config_dict(out)

    def test_unknown_field(self):
        with pytest.raises(UnknownParameterPath) as err:
            set_config_value(base_config(), "process2.levy.rate", 1.0)
        assert err.value.field == "process2.levy.rate"

    def test_unknown_intermediate(self):
        with pytest.raises(UnknownParameterPath) as err:
            set_config_value(base_config(), "process3.levy.lambda", 1.0)
        assert err.value.field == "process3"

    def test_array_index_out_of_range(self):
        data = base_config()
        data["process1"]["drift"] = {"form": "polynomial", "coeffs": [0.0, 1.0]}
        with pytest.raises(UnknownParameterPath):
            set_config_value(data, "process1.drift.coeffs.2", 1.0)

    def test_non_numeric_leaf(self):
        with pytest.raises(UnknownParameterPath) as err:
            set_config_value(base_config(), "process1.levy.type", 1.0)
        assert "numeric" in err.value.message

    def test_descending_below_leaf(self):
        with pytest.raises(UnknownParameterPath):
            set_config_value(base_config(), "horizon.t", 1.0)

    def test_is_a_config_parse_error(self):
        assert issubclass(UnknownParameterPath, ConfigParse)
