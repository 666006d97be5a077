"""Command line front end.

Four subcommands over a shared JSON config format:

    addgap bound    --config cfg.json [--json] [--out PATH]
    addgap estimate --config cfg.json [--check tv|martingale|sinh]
                    [--paths N] [--seed S] [--epsilon E] [--json] [--out PATH]
    addgap compare  --config cfg.json [--paths N] [--seed S] [--epsilon E]
                    [--json] [--out PATH]
    addgap sweep    --config cfg.json [--param PATH] [--from X] [--to Y]
                    [--steps K] [--paths N] [--seed S] [--epsilon E]
                    [--out PATH]

Exit codes are stable: 0 success, 1 config or IO error, 2 no applicable
bound (or the estimator's hypotheses fail).  A volatility mismatch is a
conclusion, not a failure: the report carries best = 2 with a reason and
the command exits 0.

Output is a plain aligned table by default; --json switches to a JSON
document with a top-level "schema_version": 1 and sorted keys.  Infinite
values are serialized as the strings "inf" / "-inf".  Runs with the same
config and seed produce byte-identical output regardless of the
ADDGAP_THREADS worker count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, fields

from .bounds import BoundReport, compute_report
from .config import (
    EstimatorSettings,
    ExperimentConfig,
    parse_config,
    parse_config_dict,
    set_config_value,
)
from .errors import AddgapError, ConfigParse
from .measures import l1_distance
from .montecarlo import (
    EstimateResult,
    default_epsilon,
    estimate_sinh_oracle,
    estimate_tv,
    martingale_check,
)

__all__ = ["main"]

SCHEMA_VERSION = 1

_BOUND_KEYS = ("thm1", "thm2", "simple_sqrt", "gaussian_exact")

_REPORT_FIELDS = tuple(f.name for f in fields(BoundReport) if f.name != "reasons")

CSV_HEADER = (
    "parameter,l1_nu,hellinger_sq_nu,xi_sq,thm1,thm2,"
    "simple_sqrt,gaussian_exact,estimate,half_width"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; remap to the
    config-error code 1 by raising instead."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" or "-inf" for an unknown option unless this
        # pattern reads it as a negative number; read so, it reaches the
        # flag's own check, which names what is wrong with it.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(item) for item in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def _json_text(payload: dict) -> str:
    document = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(_sanitize(document), sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table(rows) -> str:
    width = max(len(name) for name, _ in rows)
    return "".join(f"{name.ljust(width)}  {_fmt(value)}\n" for name, value in rows)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def _report_payload(report: BoundReport) -> dict:
    payload = {name: getattr(report, name) for name in _REPORT_FIELDS}
    payload["reasons"] = dict(report.reasons)
    return payload


def _report_rows(report: BoundReport) -> list:
    rows = [(name, getattr(report, name)) for name in _REPORT_FIELDS]
    rows.extend(
        (f"reason[{key}]", report.reasons[key]) for key in sorted(report.reasons)
    )
    return rows


def _estimate_rows(result: EstimateResult) -> list:
    return [
        ("estimate", result.mean),
        ("half_width_95", result.half_width_95),
        ("n_paths", result.n_paths),
        ("truncation_epsilon", result.truncation_epsilon),
        ("seed", result.seed),
    ]


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _resolve_settings(cfg: ExperimentConfig, args) -> EstimatorSettings:
    base = cfg.estimator if cfg.estimator is not None else EstimatorSettings()
    n_paths = args.paths if args.paths is not None else base.n_paths
    seed = args.seed if args.seed is not None else base.seed
    epsilon = args.epsilon if args.epsilon is not None else base.epsilon
    if n_paths <= 0:
        raise ConfigParse("--paths", "must be positive")
    if epsilon is not None and epsilon < 0.0:
        raise ConfigParse("--epsilon", "must be >= 0")
    if epsilon is not None and not math.isfinite(epsilon):
        raise ConfigParse("--epsilon", "must be finite")
    if not 0 <= seed < 1 << 64:
        raise ConfigParse("--seed", "must be a 64-bit unsigned integer")
    return EstimatorSettings(n_paths, epsilon, seed)


def _run_tv(problem, settings: EstimatorSettings) -> EstimateResult:
    epsilon = (
        settings.epsilon
        if settings.epsilon is not None
        else default_epsilon(problem)
    )
    return estimate_tv(problem, settings.n_paths, epsilon, settings.seed)


def _bound_exit(report: BoundReport) -> int:
    applicable = any(getattr(report, key) is not None for key in _BOUND_KEYS)
    if applicable or report.sigma_mismatch:
        return 0
    return 2


def _margins(report: BoundReport, mean: float) -> dict:
    return {
        key: getattr(report, key) - mean
        for key in _BOUND_KEYS
        if getattr(report, key) is not None
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_bound(args) -> int:
    cfg = parse_config(args.config)
    report = compute_report(cfg.problem)
    if args.json:
        text = _json_text({"command": "bound", "report": _report_payload(report)})
    else:
        text = _table(_report_rows(report))
    _emit(text, args.out)
    return _bound_exit(report)


def _cmd_estimate(args) -> int:
    cfg = parse_config(args.config)
    settings = _resolve_settings(cfg, args)
    problem = cfg.problem
    extra_payload: dict = {}
    extra_rows: list = []
    if args.check == "tv":
        result = _run_tv(problem, settings)
        report = compute_report(problem)
        bounds = {key: getattr(report, key) for key in _BOUND_KEYS}
        margins = _margins(report, result.mean)
        extra_payload = {"bounds": bounds, "margins": margins}
        extra_rows = [(f"bound[{k}]", bounds[k]) for k in _BOUND_KEYS]
        extra_rows.extend((f"margin[{k}]", margins.get(k)) for k in _BOUND_KEYS)
    elif args.check == "martingale":
        result = martingale_check(problem, settings.n_paths, settings.seed)
        extra_payload = {"target": 1.0}
        extra_rows = [("target", 1.0)]
    else:
        result = estimate_sinh_oracle(problem, settings.n_paths, settings.seed)
        l1 = l1_distance(problem.process1.levy, problem.process2.levy)
        try:
            target = 2.0 * math.sinh(problem.horizon * l1)
        except OverflowError:
            target = math.inf
        extra_payload = {"target": target}
        extra_rows = [("target", target)]
    if args.json:
        text = _json_text(
            {
                "command": "estimate",
                "check": args.check,
                "estimate": asdict(result),
                **extra_payload,
            }
        )
    else:
        rows = [("check", args.check)] + _estimate_rows(result) + extra_rows
        text = _table(rows)
    _emit(text, args.out)
    return 0


def _cmd_compare(args) -> int:
    cfg = parse_config(args.config)
    settings = _resolve_settings(cfg, args)
    report = compute_report(cfg.problem)
    result = None
    estimate_error = None
    try:
        result = _run_tv(cfg.problem, settings)
    except AddgapError as exc:
        estimate_error = str(exc)
    if args.json:
        payload = {
            "command": "compare",
            "report": _report_payload(report),
            "estimate": None if result is None else asdict(result),
            "estimate_error": estimate_error,
        }
        if result is not None:
            payload["margins"] = _margins(report, result.mean)
        text = _json_text(payload)
    else:
        rows = _report_rows(report)
        if result is not None:
            rows += _estimate_rows(result)
            rows += [
                (f"margin[{k}]", v) for k, v in sorted(_margins(report, result.mean).items())
            ]
        else:
            rows.append(("estimate_error", estimate_error))
        text = _table(rows)
    _emit(text, args.out)
    return _bound_exit(report)


def _sweep_values(start: float, stop: float, steps: int) -> list:
    if steps == 1:
        return [start]
    width = stop - start
    return [start + width * i / (steps - 1) for i in range(steps)]


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    merged = []  # each flag over the config's sweep block
    for flag, dest, field in (
        ("--param", "param", "parameter"),
        ("--from", "sweep_from", "start"),
        ("--to", "sweep_to", "stop"),
        ("--steps", "steps", "steps"),
    ):
        value = getattr(args, dest)
        if value is None and cfg.sweep is not None:
            value = getattr(cfg.sweep, field)
        if value is None:
            raise ConfigParse(flag, "sweep requires a config sweep block or explicit flags")
        merged.append(value)
    param, start, stop, steps = merged
    if steps < 1:
        raise ConfigParse("--steps", "must be >= 1")
    want_estimate = cfg.estimator is not None or any(
        flag is not None for flag in (args.paths, args.seed, args.epsilon)
    )
    _resolve_settings(cfg, args)  # a bad flag is refused before any row
    lines = [CSV_HEADER]
    for value in _sweep_values(start, stop, steps):
        raw = set_config_value(cfg.raw, param, value)
        sub = parse_config_dict(raw)
        report = compute_report(sub.problem)
        estimate = half_width = None
        if want_estimate:
            settings = _resolve_settings(sub, args)  # may sweep an estimator leaf
            try:
                result = _run_tv(sub.problem, settings)
            except AddgapError:
                pass
            else:
                estimate = result.mean
                half_width = result.half_width_95
        cells = [
            _csv_cell(value),
            _csv_cell(report.l1_nu),
            _csv_cell(report.hellinger_sq_nu),
            _csv_cell(report.xi_sq),
            _csv_cell(report.thm1),
            _csv_cell(report.thm2),
            _csv_cell(report.simple_sqrt),
            _csv_cell(report.gaussian_exact),
            _csv_cell(estimate),
            _csv_cell(half_width),
        ]
        lines.append(",".join(cells))
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub, json_flag=True):
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    if json_flag:
        sub.add_argument(
            "--json", action="store_true", help="emit JSON instead of a table"
        )
    sub.add_argument("--out", default=None, help="write output to a file")


def _add_mc(sub):
    sub.add_argument("--paths", type=int, default=None, help="Monte Carlo paths")
    sub.add_argument("--seed", type=int, default=None, help="root RNG seed")
    sub.add_argument(
        "--epsilon", type=float, default=None, help="jump truncation threshold"
    )


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="addgap", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    bound = commands.add_parser("bound", help="compute every applicable bound")
    _add_common(bound)
    bound.set_defaults(handler=_cmd_bound)

    estimate = commands.add_parser("estimate", help="Monte Carlo estimate")
    _add_common(estimate)
    _add_mc(estimate)
    estimate.add_argument(
        "--check",
        choices=("tv", "martingale", "sinh"),
        default="tv",
        help="quantity to estimate (default: tv)",
    )
    estimate.set_defaults(handler=_cmd_estimate)

    compare = commands.add_parser(
        "compare", help="bounds and Monte Carlo estimate side by side"
    )
    _add_common(compare)
    _add_mc(compare)
    compare.set_defaults(handler=_cmd_compare)

    sweep = commands.add_parser("sweep", help="CSV sweep over one config leaf")
    _add_common(sweep, json_flag=False)
    _add_mc(sweep)
    sweep.add_argument("--param", default=None, help="dotted config path to sweep")
    sweep.add_argument("--from", dest="sweep_from", type=float, default=None)
    sweep.add_argument("--to", dest="sweep_to", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AddgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
