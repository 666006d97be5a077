"""addgap benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload mc_finite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measured process is a fresh
interpreter started by this script (perfbench/worker.py) with `src/` on
its path; nothing is installed.  See perfbench/README.md for the
workloads, the metrics and how they relate.

--trace 0 prints the end-to-end metrics: five fresh processes, one after
another, each set up (one `setup_s` sample) and then run rounds untraced
with ADDGAP_THREADS = nproc for a fifth of --seconds, carrying on from the
round where the previous one stopped.
End-to-end times are process CPU seconds (all threads, user + system): on
a shared VM the host can steal half of the wall time, which CPU time
excludes.  Wall-clock rates are reported next to them in --trace 1.

--trace 1 prints the per-layer metrics: the same rounds run in three fresh
processes, untraced at nproc threads (time-boxed to a quarter of --seconds,
which fixes the round count), untraced at one thread, and traced at one
thread.  Their outputs must agree bit for bit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from stats import percentile, relative_spread, tail_percentile, time_to_target

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall-time budget of one run: a fixed allowance for the set-ups and the
# import probes plus a multiple of --seconds (170 s at the default 20 s).
DEADLINE_BASE_S = 90.0
DEADLINE_PER_SECOND = 4.0
# --trace 0 splits --seconds over this many measured processes, run one
# after another.  Each one's set-up is a `setup_s` sample; spreading the
# samples over the whole run lets set-up see the same host speed as the
# timed rounds (the host's speed changes every few seconds).
MEASURED_PROCESSES = 5
IMPORT_SAMPLES = 3
# Share of --seconds the first traced-mode pass runs; it fixes the round
# count of the two one-thread passes, which take about twice as long.
TRACE_SHARE = 0.25
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "before = len(sys.modules)\n"
    "start = time.process_time()\n"
    "import addgap\n"
    "print(time.process_time() - start, len(sys.modules) - before)\n"
)


class WorkerError(RuntimeError):
    pass


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(ADDGAP_THREADS=str(threads), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _spawn(argv, env, deadline) -> list[str]:
    """Run a child to completion within the deadline; return its stdout lines."""
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env, check=True,
                              timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"timed out: {argv[1:]}") from None
    except subprocess.CalledProcessError as exc:
        raise WorkerError(f"exit {exc.returncode}: {argv[1:]}") from None
    return done.stdout.decode().splitlines()


def _worker(spec: dict, threads: int, deadline: float) -> tuple[dict | None, float]:
    """Run one worker; return its result and its set-up CPU seconds."""
    lines = _spawn(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)], _env(threads), deadline
    )
    if not lines or not lines[0].startswith("READY "):
        raise WorkerError(f"no READY line: {spec}")
    setup = float(lines[0].split()[1])
    return json.loads(lines[-1]), setup


def _import_probe(deadline: float) -> tuple[float, int]:
    lines = _spawn([sys.executable, "-c", IMPORT_PROBE], _env(1), deadline)
    seconds, modules = lines[-1].split()
    return float(seconds), int(modules)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def timings(records: list, clock: str) -> dict:
    """Rates, tts and row-latency percentiles, timed by `clock` ("cpu" or
    "wall").  Rates and tts are medians over rounds, so a burst of load
    from outside the process moves them less than a run-long total."""
    latencies = [r[clock] / r["rows"] for r in records if r["rows"] for _ in range(r["rows"])]
    per_round = defaultdict(lambda: defaultdict(float))
    for r in records:
        tally = per_round[r["round"]]
        per_row = r[clock] / r["rows"] if r["rows"] else r[clock]
        tally["time"] += r[clock]
        tally["rows"] += r["rows"]
        tally["paths"] += r["paths"]
        tally["estimating"] += r[clock] if r["paths"] else 0.0
        tally["tts"] += sum(time_to_target(per_row, hw) for hw in r["half_widths"])
    rounds = per_round.values()
    simulating = [t for t in rounds if t["paths"]]
    if not simulating or not latencies:
        raise WorkerError("no operation that simulates or reports succeeded")
    return {
        "paths_per_s": statistics.median(t["paths"] / t["estimating"] for t in simulating),
        "tts_s": statistics.median(t["tts"] for t in rounds),
        "reports_per_s": statistics.median(t["rows"] / t["time"] for t in rounds),
        "report_p50_s": percentile(latencies, 50.0),
        "report_p90_s": percentile(latencies, 90.0),
        "latency_samples": len(latencies),
    }


def end_to_end(records: list, peak_rss_mb: float, setups: list[float]) -> dict:
    metrics = timings(records, "cpu")
    n = metrics.pop("latency_samples")
    print(f"report latency samples: {n} rows; highest percentile with "
          f">= 10 samples beyond it: p{tail_percentile(n)}")
    failed = sum(1 for r in records if r["misses"])
    metrics.update(
        peak_rss_mb=peak_rss_mb,
        success_frac=1.0 - failed / len(records),
        setup_s=statistics.median(setups),
    )
    return metrics


def _values(result: dict) -> list:
    return [(r["round"], r["kind"], r["values"]) for r in result["records"]]


def _digest(result: dict) -> str:
    first = [v for v in _values(result) if v[0] == 0]
    return hashlib.sha256(json.dumps(first).encode()).hexdigest()


def _total(result: dict, clock: str) -> float:
    return sum(r[clock] for r in result["records"])


# ---------------------------------------------------------------------------
# Measurement and entry point
# ---------------------------------------------------------------------------


def _measure(args, nproc: int, deadline: float):
    base = {"workload": args.workload, "seed": args.seed}
    if not args.trace:
        results, setups, first = [], [], 0
        for _ in range(MEASURED_PROCESSES):
            spec = {**base, "seconds": args.seconds / MEASURED_PROCESSES, "first_round": first}
            result, ready = _worker(spec, nproc, deadline)
            results.append(result)
            setups.append(ready)
            first += result["rounds"]
        print(f"setup samples (CPU s): {setups}; spread {relative_spread(setups):.3f}")
        print(f"digest {args.workload} seed {args.seed}: {_digest(results[0])}")
        records = [r for result in results for r in result["records"]]
        failed = sum(1 for r in records if r["misses"])
        peak_rss_mb = max(result["peak_rss_mb"] for result in results)
        return end_to_end(records, peak_rss_mb, setups), len(records), failed

    fast, _ = _worker({**base, "seconds": args.seconds * TRACE_SHARE}, nproc, deadline)
    rounds = {**base, "rounds": fast["rounds"]}
    single, _ = _worker(rounds, 1, deadline)
    traced, _ = _worker({**rounds, "traced": True}, 1, deadline)
    probes = [_import_probe(deadline) for _ in range(IMPORT_SAMPLES)]

    runs = (fast, single, traced)
    failed = sum(1 for run in runs for r in run["records"] if r["misses"])
    attempted = sum(len(run["records"]) for run in runs)
    reference = _values(traced)
    for name, run in (("untraced nproc", fast), ("untraced 1-thread", single)):
        differing = sum(a != b for a, b in zip(_values(run), reference))
        if differing or len(_values(run)) != len(reference):
            print(f"miss: {differing} outputs of the {name} run differ from the traced run",
                  file=sys.stderr)
            failed += max(differing, 1)
    if traced["leftover_wrappers"]:
        print(f"miss: wrappers left installed: {traced['leftover_wrappers']}", file=sys.stderr)
        failed += 1
    print(f"digest {args.workload} seed {args.seed}: {_digest(traced)} "
          f"({fast['rounds']} rounds in each pass)")
    metrics = dict(traced["layers"])
    metrics["import.addgap_s"] = statistics.median(p[0] for p in probes)
    metrics["import.modules"] = probes[0][1]
    metrics["montecarlo.thread_speedup"] = _total(single, "wall") / _total(fast, "wall")
    metrics["trace.overhead_frac"] = _total(traced, "cpu") / _total(single, "cpu") - 1.0
    wall = timings(fast["records"], "wall")
    metrics["wall.paths_per_s"] = wall["paths_per_s"]
    metrics["wall.reports_per_s"] = wall["reports_per_s"]
    return metrics, attempted, failed


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/addgap/__init__.py", "configs/compound_poisson.json",
                           "configs/jump_diffusion.json", "configs/tempered_stable.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an addgap checkout, missing {missing}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_SECOND * args.seconds
    try:
        metrics, attempted, failed = _measure(args, nproc, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name in units:
        print(f"{name:30s} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
