"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a closed loop with one client.  Round r of a workload is
a fixed list of operations whose inputs derive from (workload, seed, r)
only, so two processes given the same seed run the same operations.  An
operation's `run` is what gets timed; its `check` turns the raw output into
an `Outcome` afterwards.  Entry points are looked up on their modules at
call time, so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import addgap
import addgap.cli

CHUNK = 8192
FINITE_PATHS = 2_000_000
TEMPERED_RUNS = ((1e-3, 4 * CHUNK), (1e-4, 2 * CHUNK))
SWEEP_EPSILON = 1e-2
LAMBDA_STEPS = 4
HORIZON_STEPS = 24
TABULATED_KNOTS = 32
BOUND_KEYS = ("thm1", "thm2", "simple_sqrt", "gaussian_exact")
CSV_HEADER = (
    "parameter,l1_nu,hellinger_sq_nu,xi_sq,thm1,thm2,"
    "simple_sqrt,gaussian_exact,estimate,half_width"
)
# Per-round jitter: small enough that every round costs about the same,
# large enough that no Levy measure repeats within a process (the LRU
# caches on measures would otherwise hit where a CLI user never does).
JITTER = 0.02
# A Monte Carlo value further than this many 95% half-widths from its
# target (or above its bound) counts as a correctness miss.
TOLERANCE_HW = 4.0
CLOSED_FORM_RTOL = 1e-7


@dataclass
class Outcome:
    rows: int = 1
    paths: int = 0
    half_widths: tuple = ()
    values: tuple = ()
    misses: list = field(default_factory=list)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _close(got, want, rtol=CLOSED_FORM_RTOL) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)


def _number(cell):
    """A CLI number: JSON float, "inf"/"-inf"/"nan" string, or None."""
    if cell is None or cell == "":
        return None
    return float(cell)


def _cli(argv) -> tuple:
    """Run `addgap.cli.main`; return its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = addgap.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report_numbers(report: dict) -> dict:
    """The fields of a `bound --json` report, numbers as floats."""
    return {key: _number(value) if not isinstance(value, (bool, dict)) else value
            for key, value in report.items() if key != "vol_class"}


def _cli_report(path: Path) -> dict:
    """The report of `addgap bound --json` on a config file."""
    code, text, err = _cli(["bound", "--json", "--config", str(path)])
    if code != 0:
        raise RuntimeError(f"bound --config {path}: exit {code}: {err.strip()}")
    return _report_numbers(json.loads(text)["report"])


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


def _estimate_op(kind, name, args, n_paths, target=None, bound=None) -> Op:
    """One estimator call checked against a target or an upper bound."""

    def run():
        return getattr(addgap, name)(*args)

    def check(res) -> Outcome:
        mean, hw = res.mean, res.half_width_95
        slack = TOLERANCE_HW * hw
        misses = []
        if not (math.isfinite(mean) and math.isfinite(hw)):
            misses.append(f"{kind}: non-finite estimate {mean!r} +- {hw!r}")
        elif target is not None and abs(mean - target) > slack:
            misses.append(f"{kind}: {mean!r} is not within {slack!r} of {target!r}")
        elif bound is not None and not 0.0 <= mean <= bound + slack:
            misses.append(f"{kind}: {mean!r} exceeds the best bound {bound!r} + {slack!r}")
        return Outcome(1, n_paths, (hw,), (mean.hex(), hw.hex()), misses)

    return Op(kind, run, check)


class McFinite:
    """Exact finite-activity estimators on the compound-Poisson and
    jump-diffusion configs, at millions of paths per estimate."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed = root, seed

    def setup(self):
        cp_path = self.root / "configs/compound_poisson.json"
        jd_path = self.root / "configs/jump_diffusion.json"
        self.cp = addgap.parse_config(cp_path).problem
        self.jd = addgap.parse_config(jd_path).problem
        # The bounds the checks need come from the CLI, as a user gets them.
        cp_report = _cli_report(cp_path)
        self.cp_best = cp_report["best"]
        self.jd_best = _cli_report(jd_path)["best"]
        self.sinh_target = 2.0 * math.sinh(self.cp.horizon * cp_report["l1_nu"])

    def warmup_ops(self):
        return self._ops([0, 0, 0, 0], CHUNK)

    def ops(self, r: int):
        rng = _rng("mc_finite", self.seed, r)
        return self._ops([rng.getrandbits(63) for _ in range(4)], FINITE_PATHS)

    def _ops(self, seeds, n):
        return [
            _estimate_op("tv_cp", "estimate_tv", (self.cp, n, 0.0, seeds[0]), n, bound=self.cp_best),
            _estimate_op("tv_jd", "estimate_tv", (self.jd, n, 0.0, seeds[1]), n, bound=self.jd_best),
            _estimate_op("martingale_cp", "martingale_check", (self.cp, n, seeds[2]), n, target=1.0),
            _estimate_op("sinh_cp", "estimate_sinh_oracle", (self.cp, n, seeds[3]), n,
                         target=self.sinh_target),
        ]


class McTempered:
    """Truncated tempered-stable estimates at epsilon 1e-3 and 1e-4."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed = root, seed

    def setup(self):
        path = self.root / "configs/tempered_stable.json"
        self.ts = addgap.parse_config(path).problem
        self.best = _cli_report(path)["best"]

    def warmup_ops(self):
        return [self._op(eps, 1024, 0) for eps, _ in TEMPERED_RUNS]

    def ops(self, r: int):
        rng = _rng("mc_tempered", self.seed, r)
        return [self._op(eps, n, rng.getrandbits(63)) for eps, n in TEMPERED_RUNS]

    def _op(self, eps, n, seed):
        return _estimate_op(f"tv_ts_{eps:g}", "estimate_tv", (self.ts, n, eps, seed), n,
                            bound=self.best)


# ---------------------------------------------------------------------------
# Report workload: generated inputs through the CLI
# ---------------------------------------------------------------------------


def scale_pair(raw: dict, k: float) -> dict:
    """Copy of a config whose two Levy measures are both scaled by k.

    The drift gap f1 - f2 is scaled by k as well; the compensated drift gap
    eta is linear in nu1 - nu2, so a drift-matched pair stays matched.
    """
    out = copy.deepcopy(raw)
    for key in ("process1", "process2"):
        levy = out[key]["levy"]
        if levy["type"] == "compound_poisson":
            levy["lambda"] *= k
        elif levy["type"] == "tempered_stable":
            levy["c_minus"] *= k
            levy["c_plus"] *= k
        else:
            raise ValueError(f"cannot scale a {levy['type']} measure")
    d1, d2 = out["process1"]["drift"], out["process2"]["drift"]
    d1["c"] = d2["c"] + k * (d1["c"] - d2["c"])
    return out


def _jitter(rng: random.Random) -> float:
    return rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _constant(c: float) -> dict:
    return {"form": "constant", "c": c}


def tabulated_pair(rng: random.Random) -> dict:
    """Two tabulated Levy measures on one knot grid, the first a smooth
    tilt of the second with a random phase, with a shared unit volatility."""
    lo, hi = 0.02, 4.0
    mags = [lo * (hi / lo) ** (i / (TABULATED_KNOTS - 1)) for i in range(TABULATED_KNOTS)]
    grid = [-m for m in reversed(mags)] + mags
    base = [abs(y) ** -1.2 * math.exp(-abs(y)) for y in grid]
    phase = rng.uniform(0.0, 2.0 * math.pi)
    tilted = [v * math.exp(0.3 * math.sin(0.2 * i + phase)) for i, v in enumerate(base)]

    def process(drift, values):
        levy = {"type": "tabulated", "grid": grid, "values": values}
        return {"drift": _constant(drift), "vol_sq": _constant(1.0), "levy": levy}

    return {
        "process1": process(0.1 * _jitter(rng), tilted),
        "process2": process(0.0, base),
        "horizon": 1.0,
    }


def _cp_closed_forms(lam1: float, lam2: float, horizon: float) -> dict:
    """Ingredients and bounds of a drift-matched zero-volatility
    compound-Poisson pair sharing one jump density."""
    l1 = abs(lam1 - lam2)
    h2 = (math.sqrt(lam1) - math.sqrt(lam2)) ** 2
    return {
        "l1_nu": l1,
        "hellinger_sq_nu": h2,
        "thm1": math.sqrt(8.0) * math.sqrt(-math.expm1(-0.5 * horizon * h2)),
        "thm2": 2.0 * math.sinh(horizon * l1),
        "simple_sqrt": 2.0 * math.sqrt(horizon * l1),
    }


def _best(cells: dict) -> float | None:
    applicable = [cells[k] for k in BOUND_KEYS if cells[k] is not None]
    return min(min(v, 2.0) for v in applicable) if applicable else None


def _closed_form_misses(label, cells: dict, closed: dict) -> list:
    return [
        f"{label}: {key} = {cells[key]!r}, closed form {want!r}"
        for key, want in closed.items()
        if not _close(cells[key], want)
    ]


def _cli_op(kind, argv, rows, paths, check_text) -> Op:
    def run():
        return _cli(argv)

    def check(raw) -> Outcome:
        code, text, err = raw
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0:
            return Outcome(rows, paths, (), (digest,), [f"{kind}: exit {code}: {err.strip()}"])
        half_widths, misses = check_text(text)
        return Outcome(rows, paths, half_widths, (digest,), misses)

    return Op(kind, run, check)


class ReportSweep:
    """CLI `sweep` and `bound` over inputs that never repeat in a process."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def setup(self):
        configs = self.root / "configs"
        self.raw = {
            name: json.loads((configs / f"{name}.json").read_text())
            for name in ("compound_poisson", "jump_diffusion", "tempered_stable")
        }

    def warmup_ops(self):
        return self.ops("warmup")

    def _write(self, r, name, doc) -> str:
        path = self.workdir / f"r{r}-{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def ops(self, r):
        rng = _rng("report_sweep", self.seed, r)
        ops = []

        # Lambda+ sweep on a positive-volatility tempered-stable copy, one
        # chunk of paths per point.
        ts_pos = scale_pair(self.raw["tempered_stable"], _jitter(rng))
        for key in ("process1", "process2"):
            ts_pos[key]["vol_sq"] = _constant(1.0)
        start = 1.75 * _jitter(rng)
        ts_pos["estimator"] = {"n_paths": CHUNK, "epsilon": SWEEP_EPSILON,
                               "seed": rng.getrandbits(32)}
        ts_pos["sweep"] = {"parameter": "process1.levy.lambda_plus", "from": start,
                           "to": start + 1.5, "steps": LAMBDA_STEPS}
        path = self._write(r, "ts_lambda_sweep", ts_pos)
        ops.append(_cli_op("sweep_lambda", ["sweep", "--config", path], LAMBDA_STEPS,
                           LAMBDA_STEPS * CHUNK, self._check_lambda_sweep))

        # Bounds-only horizon sweep of an estimator-less compound-Poisson copy.
        cp = scale_pair(self.raw["compound_poisson"], _jitter(rng))
        del cp["estimator"]
        cp["sweep"] = {"parameter": "horizon", "from": 0.2 * _jitter(rng),
                       "to": 4.0 * _jitter(rng), "steps": HORIZON_STEPS}
        lams = (cp["process1"]["levy"]["lambda"], cp["process2"]["levy"]["lambda"])
        path = self._write(r, "cp_horizon_sweep", cp)
        ops.append(_cli_op("sweep_horizon", ["sweep", "--config", path], HORIZON_STEPS, 0,
                           lambda text: self._check_horizon_sweep(text, lams)))

        # bound --json on jittered copies of the three bundled configs.
        for name, raw in self.raw.items():
            doc = scale_pair(raw, _jitter(rng))
            closed = None
            if doc["process1"]["levy"]["type"] == "compound_poisson":
                lam1 = doc["process1"]["levy"]["lambda"]
                lam2 = doc["process2"]["levy"]["lambda"]
                closed = _cp_closed_forms(lam1, lam2, doc["horizon"])
                if doc["process1"]["vol_sq"]["c"] > 0.0:
                    closed = {k: closed[k] for k in ("l1_nu", "hellinger_sq_nu")}
            path = self._write(r, name, doc)
            ops.append(_cli_op(f"bound_{name}", ["bound", "--json", "--config", path], 1, 0,
                               lambda text, closed=closed: self._check_bound(text, closed)))

        path = self._write(r, "tabulated", tabulated_pair(rng))
        ops.append(_cli_op("bound_tabulated", ["bound", "--json", "--config", path], 1, 0,
                           lambda text: self._check_bound(text, None)))
        return ops

    @staticmethod
    def _csv_rows(text, steps, label):
        lines = text.splitlines()
        misses = []
        if not lines or lines[0] != CSV_HEADER:
            misses.append(f"{label}: unexpected CSV header")
        rows = [
            {key: _number(cell) for key, cell in row.items()}
            for row in csv.DictReader(io.StringIO(text))
        ]
        if len(rows) != steps:
            misses.append(f"{label}: {len(rows)} rows, expected {steps}")
        return rows, misses

    def _check_lambda_sweep(self, text):
        rows, misses = self._csv_rows(text, LAMBDA_STEPS, "sweep_lambda")
        half_widths = []
        for row in rows:
            est, hw, best = row["estimate"], row["half_width"], _best(row)
            if est is None or hw is None or best is None:
                misses.append(f"sweep_lambda: missing estimate or bound at {row['parameter']!r}")
                continue
            half_widths.append(hw)
            if not 0.0 <= est <= best + TOLERANCE_HW * hw:
                misses.append(f"sweep_lambda: {est!r} exceeds the best bound {best!r}")
        return tuple(half_widths), misses

    def _check_horizon_sweep(self, text, lams):
        rows, misses = self._csv_rows(text, HORIZON_STEPS, "sweep_horizon")
        for row in rows:
            horizon = row["parameter"]
            misses += _closed_form_misses(
                f"sweep_horizon T={horizon!r}", row, _cp_closed_forms(*lams, horizon)
            )
            if row["estimate"] is not None:
                misses.append("sweep_horizon: estimate in a bounds-only sweep")
        return (), misses

    @staticmethod
    def _check_bound(text, closed):
        doc = json.loads(text)
        if doc.get("schema_version") != 1 or doc.get("command") != "bound":
            return (), ["bound: unexpected JSON envelope"]
        rep = _report_numbers(doc["report"])
        misses = []
        best = _best(rep)
        if best is None:
            misses.append("bound: no applicable bound")
        elif rep["best"] != best:
            misses.append(f"bound: best {rep['best']!r} is not the smallest bound {best!r}")
        if rep["simple_sqrt"] is not None and not _close(
            rep["simple_sqrt"], 2.0 * math.sqrt(rep["horizon"] * rep["l1_nu"])
        ):
            misses.append("bound: simple_sqrt != 2 sqrt(T L1)")
        if closed:
            misses += _closed_form_misses("bound", rep, closed)
        return (), misses


WORKLOADS = {
    "mc_finite": McFinite,
    "mc_tempered": McTempered,
    "report_sweep": ReportSweep,
}
