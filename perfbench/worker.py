"""One benchmark process: set up a workload, then run its rounds.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., ...}'

Spawned by run.py in a fresh interpreter with ADDGAP_THREADS already set.
Prints "READY <cpu seconds>" once set-up (interpreter start, import,
config parsing, one warm-up per distinct input) is done; the number is the
process CPU time so far, which run.py reports as set-up time.  It then
runs rounds from "first_round" on (default 0), either for "seconds" of
wall time (checked between rounds) or for exactly "rounds" rounds, and
prints one JSON line with every operation's record.  With "traced", set-up and
the rounds (not the warm-up) run under the tracer.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_op(op, tracer):
    """Time op.run in wall and process CPU seconds (all threads), then
    check its output; never raises."""
    start_wall, start_cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            raw = op.run()
        else:
            with tracer.span(f"op.{op.kind}", "op", "bench"):
                raw = op.run()
        wall, cpu = time.perf_counter() - start_wall, time.process_time() - start_cpu
        outcome = op.check(raw)
    except Exception:  # noqa: BLE001 - a failed operation is recorded, not fatal
        traceback.print_exc()
        return {"kind": op.kind, "wall": time.perf_counter() - start_wall,
                "cpu": time.process_time() - start_cpu, "rows": 0, "paths": 0,
                "half_widths": [], "values": [], "misses": ["exception"]}
    for miss in outcome.misses:
        print(f"miss: {miss}", file=sys.stderr)
    return {"kind": op.kind, "wall": wall, "cpu": cpu, "rows": outcome.rows,
            "paths": outcome.paths, "half_widths": list(outcome.half_widths),
            "values": list(outcome.values), "misses": outcome.misses}


def main(spec: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from tracer import Tracer, installed, layer_metrics, leftover_wrappers

    workdir = ROOT / ".bench_build" / "perfbench" / f"worker-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if spec.get("traced") else None

    def traced():
        return installed(tracer) if tracer else nullcontext()

    try:
        workload = workloads.WORKLOADS[spec["workload"]](ROOT, spec["seed"], workdir)
        # The traced pass traces set-up (config parsing, bound reports) as
        # well as the rounds; the warm-up stays untraced.
        with traced():
            workload.setup()
        for op in workload.warmup_ops():
            op.check(op.run())
        print(f"READY {time.process_time()!r}", flush=True)

        records = []
        rounds = spec.get("rounds")
        first = r = spec.get("first_round", 0)
        with traced():
            start = time.perf_counter()
            while (r - first < rounds) if rounds is not None else (
                time.perf_counter() - start < spec["seconds"]
            ):
                for op in workload.ops(r):
                    records.append({"round": r, **_run_op(op, tracer)})
                r += 1
        result = {
            "rounds": r - first,
            "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": layer_metrics(tracer.spans) if tracer else None,
            "leftover_wrappers": leftover_wrappers(),
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
