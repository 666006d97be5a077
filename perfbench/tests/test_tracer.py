"""Arithmetic of the benchmark's tracer and statistics, and wrapper removal.

    python3 -m pytest -q perfbench/tests
"""

import threading

import numpy as np
import pytest

import addgap
from stats import percentile, tail_percentile, time_to_target
from tracer import Span, Tracer, installed, layer_metrics, leftover_wrappers, self_times, union_length


def _span(name, start, end, parent=None, kind="k", layer="l"):
    return Span(name, kind, layer, start, parent, 0, end)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.5), (4.0, 3.0)]) == 3.0
    assert union_length([(1.0, 5.0), (2.0, 3.0)]) == 4.0


def test_self_time_subtracts_union_of_overlapping_worker_children():
    spans = [
        _span("op", 0.0, 10.0),
        # a and c ran on one worker thread, b on another, overlapping a.
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 3.0, 8.0, parent=0),
        _span("c", 9.0, 12.0, parent=0),  # clipped at the parent's end
        _span("a.inner", 2.0, 4.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert selfs[1] == pytest.approx(4.0 - 2.0)
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(2.0)


def test_worker_thread_spans_hang_under_the_client_span_and_share_its_op():
    tracer = Tracer()
    with tracer.span("op", "op", "bench"):
        with tracer.span("estimate", "estimate", "montecarlo"):

            def worker():
                with tracer.span("batch", "batch", "simulate"):
                    with tracer.span("log", "log_density", "measures"):
                        pass

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
    by_name = {}
    for index, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append((index, span))
    assert by_name["op"][0][1].parent is None
    assert all(span.op == 0 for span in tracer.spans)
    estimate = by_name["estimate"][0][0]
    assert all(span.parent == estimate for _, span in by_name["batch"])
    batches = {index for index, _ in by_name["batch"]}
    assert {span.parent for _, span in by_name["log"]} == batches


def test_layer_metrics_count_reentrant_calls_once():
    spans = [
        _span("parse_config", 0.0, 4.0, kind="parse", layer="config"),
        _span("parse_config_dict", 1.0, 3.0, parent=0, kind="parse", layer="config"),
        _span("parse_config_dict", 5.0, 6.0, kind="parse", layer="config"),
    ]
    metrics = layer_metrics(spans)
    assert metrics["config.parse_calls"] == 2
    assert metrics["config.parse_s"] == pytest.approx(5.0)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for p in (0.0, 10.0, 50.0, 90.0, 100.0):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_time_to_target_scales_with_squared_half_width():
    assert time_to_target(2.0, 0.002) == pytest.approx(2.0)
    assert time_to_target(2.0, 0.004) == pytest.approx(8.0)
    assert time_to_target(1.0, 0.001) == pytest.approx(0.25)


def _snapshot():
    import sys

    out = {}
    for name, module in sys.modules.items():
        if name == "addgap" or name.startswith("addgap."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for member, v in vars(value).items():
                        out[(name, attr, member)] = v
    return out


def _problem():
    cp = addgap.CompoundPoissonMeasure
    jumps = addgap.UniformDensity(0.0, 1.0)
    zero = addgap.ConstantFunction(0.0)
    return addgap.ProblemSpec(
        addgap.ProcessSpec(addgap.ConstantFunction(1.0), zero, cp(2.0, jumps)),
        addgap.ProcessSpec(addgap.ConstantFunction(0.5), zero, cp(1.0, jumps)),
        horizon=1.0,
    )


def test_wrappers_record_spans_and_are_fully_removed():
    import addgap.cli  # noqa: F401 - loaded so its references get patched too

    before = _snapshot()
    tracer = Tracer()
    with installed(tracer):
        assert leftover_wrappers()
        addgap.compute_report(_problem())
        addgap.estimate_tv(_problem(), 1000, 0.0, 1)
    assert leftover_wrappers() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = layer_metrics(tracer.spans)
    assert metrics["bounds.report_calls"] == 1
    assert metrics["montecarlo.estimate_calls"] == 1
    assert metrics["montecarlo.chunks"] == 1
    assert metrics["simulate.batch_calls"] == 1
    assert metrics["quadrature.integrand_points"] > 0
    assert metrics["measures.ac_probes"] > 0


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(ValueError):
        with installed(Tracer()):
            addgap.estimate_tv(_problem(), 0, 0.0, 1)
    assert leftover_wrappers() == []
