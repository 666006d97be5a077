"""Strict JSON configuration for experiment runs.

A config names two processes by their local characteristics, a horizon,
and optionally an estimator block and a sweep block.  Parsing is strict:
unknown fields, wrong types, and out-of-range values are rejected with
the dotted path of the offending field, because a silently ignored typo
in an intensity or a stability index would corrupt every number
downstream.

Schema (JSON):

    {
      "process1": {"drift": TF, "vol_sq": TF, "levy": LM},
      "process2": {"drift": TF, "vol_sq": TF, "levy": LM},
      "horizon": 1.0,
      "estimator": {"n_paths": 100000, "epsilon": 1e-4, "seed": 7},
      "sweep": {"parameter": "horizon", "from": 0.1, "to": 5.0, "steps": 25}
    }

Time functions TF: {"form": "constant", "c": 1.0},
{"form": "polynomial", "coeffs": [0.0, 1.0]},
{"form": "piecewise_constant", "breaks": [0.5], "values": [1.0, 2.0]}.

Levy measures LM: {"type": "zero"},
{"type": "compound_poisson", "lambda": 2.0, "jump_density": JD},
{"type": "tempered_stable", "c_minus": 1.0, "c_plus": 1.0,
 "lambda_minus": 1.0, "lambda_plus": 2.0, "alpha": 0.5},
{"type": "tabulated", "grid": [...], "values": [...]}.

Jump densities JD: {"family": "uniform", "a": 0.0, "b": 1.0},
{"family": "exponential", "rate": 1.0},
{"family": "normal", "mean": 0.0, "variance": 1.0},
{"family": "tabulated", "grid": [...], "values": [...]}.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .errors import ConfigParse, UnknownParameterPath
from .measures import (
    CompoundPoissonMeasure,
    ExponentialDensity,
    JumpDensity,
    LevyMeasure,
    NormalDensity,
    TabulatedDensity,
    TabulatedLevyMeasure,
    TemperedStableMeasure,
    UniformDensity,
    ZeroMeasure,
)
from .processes import (
    ConstantFunction,
    PiecewiseConstantFunction,
    PolynomialFunction,
    ProblemSpec,
    ProcessSpec,
    TimeFunction,
)

__all__ = [
    "DEFAULT_N_PATHS",
    "EstimatorSettings",
    "SweepSettings",
    "ExperimentConfig",
    "parse_config",
    "parse_config_dict",
    "set_config_value",
]

DEFAULT_N_PATHS = 100_000


@dataclass(frozen=True)
class EstimatorSettings:
    """Monte Carlo run parameters; epsilon None means the default policy
    (0 for finite-activity pairs, 1e-4 otherwise)."""

    n_paths: int = DEFAULT_N_PATHS
    epsilon: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class SweepSettings:
    """One numeric leaf swept over a linear grid; 'start'/'stop' carry the
    JSON fields 'from'/'to' (a Python keyword cannot be a field name)."""

    parameter: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    estimator: EstimatorSettings | None
    sweep: SweepSettings | None
    raw: dict


# ---------------------------------------------------------------------------
# Field-level checks
# ---------------------------------------------------------------------------


def _object(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigParse(where, "expected a JSON object")
    return node


def _check_keys(node: dict, where: str, required, optional=()) -> None:
    for key in node:
        if key not in required and key not in optional:
            raise ConfigParse(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in node:
            raise ConfigParse(f"{where}.{key}", "missing required field")


def _real(node, key: str, where: str) -> float:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParse(f"{where}.{key}", "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigParse(f"{where}.{key}", "must be finite")
    return value


def _integer(node, key: str, where: str) -> int:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigParse(f"{where}.{key}", "expected an integer")
    return value


def _real_list(node, key: str, where: str) -> tuple[float, ...]:
    value = node[key]
    if not isinstance(value, list) or not value:
        raise ConfigParse(f"{where}.{key}", "expected a non-empty array of numbers")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigParse(f"{where}.{key}.{i}", "expected a number")
        if not math.isfinite(float(item)):
            raise ConfigParse(f"{where}.{key}.{i}", "must be finite")
        out.append(float(item))
    return tuple(out)


def _wrap(where: str, builder):
    """Turn constructor ValueErrors into parse errors naming the field."""
    try:
        return builder()
    except ValueError as exc:
        raise ConfigParse(where, str(exc)) from None


# ---------------------------------------------------------------------------
# Fragment builders
# ---------------------------------------------------------------------------


def _build_jump_density(node, where: str) -> JumpDensity:
    node = _object(node, where)
    if "family" not in node:
        raise ConfigParse(f"{where}.family", "missing required field")
    family = node["family"]
    if family == "uniform":
        _check_keys(node, where, ("family", "a", "b"))
        a, b = _real(node, "a", where), _real(node, "b", where)
        return _wrap(where, lambda: UniformDensity(a, b))
    if family == "exponential":
        _check_keys(node, where, ("family", "rate"))
        rate = _real(node, "rate", where)
        return _wrap(where, lambda: ExponentialDensity(rate))
    if family == "normal":
        _check_keys(node, where, ("family", "mean", "variance"))
        mean = _real(node, "mean", where)
        variance = _real(node, "variance", where)
        return _wrap(where, lambda: NormalDensity(mean, variance))
    if family == "tabulated":
        _check_keys(node, where, ("family", "grid", "values"))
        grid = _real_list(node, "grid", where)
        values = _real_list(node, "values", where)
        return _wrap(where, lambda: TabulatedDensity(grid, values))
    raise ConfigParse(f"{where}.family", f"unknown jump density family {family!r}")


def _build_levy(node, where: str) -> LevyMeasure:
    node = _object(node, where)
    if "type" not in node:
        raise ConfigParse(f"{where}.type", "missing required field")
    kind = node["type"]
    if kind == "zero":
        _check_keys(node, where, ("type",))
        return ZeroMeasure()
    if kind == "compound_poisson":
        _check_keys(node, where, ("type", "lambda", "jump_density"))
        intensity = _real(node, "lambda", where)
        density = _build_jump_density(node["jump_density"], f"{where}.jump_density")
        return _wrap(where, lambda: CompoundPoissonMeasure(intensity, density))
    if kind == "tempered_stable":
        _check_keys(
            node,
            where,
            ("type", "c_minus", "c_plus", "lambda_minus", "lambda_plus", "alpha"),
        )
        args = tuple(
            _real(node, key, where)
            for key in ("c_minus", "c_plus", "lambda_minus", "lambda_plus", "alpha")
        )
        return _wrap(where, lambda: TemperedStableMeasure(*args))
    if kind == "tabulated":
        _check_keys(node, where, ("type", "grid", "values"))
        grid = _real_list(node, "grid", where)
        values = _real_list(node, "values", where)
        return _wrap(where, lambda: TabulatedLevyMeasure(grid, values))
    raise ConfigParse(f"{where}.type", f"unknown Levy measure type {kind!r}")


def _build_time_function(node, where: str) -> TimeFunction:
    node = _object(node, where)
    if "form" not in node:
        raise ConfigParse(f"{where}.form", "missing required field")
    form = node["form"]
    if form == "constant":
        _check_keys(node, where, ("form", "c"))
        return ConstantFunction(_real(node, "c", where))
    if form == "polynomial":
        _check_keys(node, where, ("form", "coeffs"))
        coeffs = _real_list(node, "coeffs", where)
        return _wrap(where, lambda: PolynomialFunction(coeffs))
    if form == "piecewise_constant":
        _check_keys(node, where, ("form", "breaks", "values"))
        breaks = _real_list(node, "breaks", where)
        values = _real_list(node, "values", where)
        return _wrap(where, lambda: PiecewiseConstantFunction(breaks, values))
    raise ConfigParse(f"{where}.form", f"unknown time function form {form!r}")


def _build_process(node, where: str) -> ProcessSpec:
    node = _object(node, where)
    _check_keys(node, where, ("drift", "vol_sq", "levy"))
    drift = _build_time_function(node["drift"], f"{where}.drift")
    vol_sq = _build_time_function(node["vol_sq"], f"{where}.vol_sq")
    levy = _build_levy(node["levy"], f"{where}.levy")
    return _wrap(where, lambda: ProcessSpec(drift, vol_sq, levy))


def _build_estimator(node, where: str) -> EstimatorSettings:
    node = _object(node, where)
    _check_keys(node, where, (), ("n_paths", "epsilon", "seed"))
    n_paths = _integer(node, "n_paths", where) if "n_paths" in node else DEFAULT_N_PATHS
    if n_paths <= 0:
        raise ConfigParse(f"{where}.n_paths", "must be positive")
    epsilon = _real(node, "epsilon", where) if "epsilon" in node else None
    if epsilon is not None and epsilon < 0.0:
        raise ConfigParse(f"{where}.epsilon", "must be >= 0")
    seed = _integer(node, "seed", where) if "seed" in node else 0
    if not 0 <= seed < 1 << 64:
        raise ConfigParse(f"{where}.seed", "must be a 64-bit unsigned integer")
    return EstimatorSettings(n_paths, epsilon, seed)


def _build_sweep(node, where: str) -> SweepSettings:
    node = _object(node, where)
    _check_keys(node, where, ("parameter", "from", "to", "steps"))
    parameter = node["parameter"]
    if not isinstance(parameter, str) or not parameter:
        raise ConfigParse(f"{where}.parameter", "expected a non-empty string")
    start = _real(node, "from", where)
    stop = _real(node, "to", where)
    steps = _integer(node, "steps", where)
    if steps < 1:
        raise ConfigParse(f"{where}.steps", "must be >= 1")
    return SweepSettings(parameter, start, stop, steps)


def parse_config_dict(data: dict, source: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from already-decoded JSON."""
    data = _object(data, source)
    _check_keys(
        data,
        source,
        ("process1", "process2", "horizon"),
        ("estimator", "sweep"),
    )
    process1 = _build_process(data["process1"], f"{source}.process1")
    process2 = _build_process(data["process2"], f"{source}.process2")
    horizon = _real(data, "horizon", source)
    problem = _wrap(
        f"{source}.horizon", lambda: ProblemSpec(process1, process2, horizon)
    )
    estimator = (
        _build_estimator(data["estimator"], f"{source}.estimator")
        if "estimator" in data
        else None
    )
    sweep = (
        _build_sweep(data["sweep"], f"{source}.sweep") if "sweep" in data else None
    )
    return ExperimentConfig(problem, estimator, sweep, copy.deepcopy(data))


def parse_config(path) -> ExperimentConfig:
    """Read and parse a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigParse(str(path), f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigParse(str(path), f"invalid JSON: {exc}") from None
    return parse_config_dict(data, source="config")


# ---------------------------------------------------------------------------
# Parameter paths (sweeps)
# ---------------------------------------------------------------------------


def _child_key(node, segment: str, trail: str):
    """The key of `segment` in a JSON array or object; `trail` names the
    path up to it in errors."""
    if isinstance(node, list):
        if not segment.isdigit() or int(segment) >= len(node):
            raise UnknownParameterPath(trail, "no such array index")
        return int(segment)
    if isinstance(node, dict):
        if segment not in node:
            raise UnknownParameterPath(trail, "no such field")
        return segment
    raise UnknownParameterPath(trail, "path descends below a leaf")


def set_config_value(raw: dict, path: str, value: float) -> dict:
    """Return a copy of the raw config with one numeric leaf replaced.

    The path is dot-separated; integer segments index into arrays
    (e.g. "process2.levy.lambda", "process1.drift.coeffs.0").  The leaf
    must already exist and hold a number.  Only the objects and arrays on
    the path are copied; the copy shares every other node with raw, which
    is left unchanged.
    """
    *inner, leaf = path.split(".")
    out = node = copy.copy(raw)
    for depth, segment in enumerate(inner):
        key = _child_key(node, segment, ".".join(inner[: depth + 1]))
        node[key] = copy.copy(node[key])
        node = node[key]
    key = _child_key(node, leaf, path)
    old = node[key]
    if isinstance(old, bool) or not isinstance(old, (int, float)):
        raise UnknownParameterPath(path, "does not address a numeric value")
    if isinstance(old, int) and float(value).is_integer():
        node[key] = int(value)
    else:
        node[key] = float(value)
    return out
