"""The benchmark tracer's targets still exist in the library, the
quadrature stays within budget on the reports that still take it, and the
report workload's lambda+ sweep computes no Levy integral: a spec needs
only the verdict of ``validate_levy``, which the tempered-stable form gives
from alpha alone.

The report workload's tabulated pair and its other reports make no
quadrature call: their functionals have closed forms.  The budget is held
on the two inputs nearest to it that still integrate: the workload's knot
cells, with nu1 outside every family, and a mixed tabulated and
tempered-stable pair.

``perfbench/tracer.py`` wraps addgap entry points by name, so deleting or
renaming one of them breaks ``python3 perfbench/run.py --trace 1``; these
tests make that a failure of the library's own suite.
"""

import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from addgap import _forms, measures, processes, quadrature
from addgap.bounds import compute_report
from addgap.config import parse_config, parse_config_dict, sweep_row
from addgap.measures import TabulatedLevyMeasure

from _oracles import clear_caches, loaded, sequential_integrate


PERFBENCH_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    yield from loaded("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from loaded("workloads")


@dataclasses.dataclass(frozen=True)
class OwnDensityTable(TabulatedLevyMeasure):
    """A tabulated measure given by its own ``density`` (the same values):
    outside every family, so its functionals take the quadrature."""

    def density(self, y):
        return super().density(y)


def tabulated_spec(workloads):
    """A fresh spec, uncached, of the report workload's tabulated pair with
    nu1 replaced by 1.5 times nu2 as an ``OwnDensityTable``: the tabulated
    pair's functionals have closed forms, and this pair integrates the
    same knot cells, which it never crosses."""
    clear_caches()
    config = workloads.tabulated_pair(random.Random("report_sweep:1:0"))
    problem = parse_config_dict(config).problem
    nu2 = problem.process2.levy
    nu1 = OwnDensityTable(nu2.grid, tuple(1.5 * v for v in nu2.values))
    first = dataclasses.replace(problem.process1, levy=nu1)
    return dataclasses.replace(problem, process1=first)


def mixed_spec(workloads):
    """A fresh spec, uncached, of a mixed-family pair: a 32-knot tabulated
    nu1, 1.5 times the density of a tempered-stable nu2 (C 1, lambda 5,
    alpha -3) at the knots of the report workload's tabulated pair, so L1,
    H^2, eta and nu2's gamma take the quadrature."""
    clear_caches()
    config = workloads.tabulated_pair(random.Random("report_sweep:1:0"))
    levy = config["process1"]["levy"]
    levy["values"] = [1.5 * abs(y) ** 2.0 * math.exp(-5.0 * abs(y)) for y in levy["grid"]]
    config["process2"]["levy"] = {
        "type": "tempered_stable", "c_minus": 1.0, "c_plus": 1.0,
        "lambda_minus": 5.0, "lambda_plus": 5.0, "alpha": -3.0,
    }
    return parse_config_dict(config).problem


def record_points(monkeypatch, integrate=None, requests=None):
    """Route the library's quadrature calls through ``integrate`` and return
    the list that collects the points of every integrand call; each request
    is appended to ``requests`` when given.  The default is
    ``quadrature.integrate`` as it is at each call, so a tracer's wrapper
    of it is seen."""
    calls = []

    def recorded(request):
        def g(y):
            calls.append(np.array(y, dtype=float).ravel())
            return request.integrand(y)

        if requests is not None:
            requests.append(request)
        impl = quadrature.integrate if integrate is None else integrate
        return impl(dataclasses.replace(request, integrand=g))

    for module in (measures, processes):
        monkeypatch.setattr(module, "integrate", recorded)
    return calls


def test_every_target_is_found(tracer):
    # _targets() looks each module-level function up with getattr, so a
    # deleted one raises here; methods must be defined on their class.
    targets = tracer._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []


def test_install_wraps_and_restores_every_target(tracer):
    with tracer.installed(tracer.Tracer()):
        assert tracer.leftover_wrappers()
    assert tracer.leftover_wrappers() == []


def test_tabulated_report_quadrature_budget(workloads, monkeypatch):
    # Cut at every knot (and, for L1, where the densities cross), every
    # working interval of the report meets its tolerance on its first
    # panel: one integrand call per integral, with the points and the
    # report of integrating one interval after another.
    spec = tabulated_spec(workloads)
    requests = []
    with monkeypatch.context() as m:
        calls = record_points(m, requests=requests)
        report = compute_report(spec)
    spec = tabulated_spec(workloads)
    with monkeypatch.context() as m:
        oracle_calls = record_points(m, sequential_integrate)
        oracle_report = compute_report(spec)
    assert report == oracle_report
    assert len(calls) == len(requests) < len(oracle_calls)
    assert sum(c.size for c in calls) <= 8_000
    points = np.sort(np.concatenate(calls))
    assert points.tobytes() == np.sort(np.concatenate(oracle_calls)).tobytes()


def test_mixed_report_takes_the_lockstep_quadrature(workloads, monkeypatch):
    # Near 0 and past the knots only the tempered-stable density is left,
    # so some integrals take more than one round; the lockstep quadrature
    # still makes far fewer integrand calls than one interval after
    # another, at the same points and with the same report.
    spec = mixed_spec(workloads)
    requests = []
    with monkeypatch.context() as m:
        calls = record_points(m, requests=requests)
        report = compute_report(spec)
    spec = mixed_spec(workloads)
    with monkeypatch.context() as m:
        oracle_calls = record_points(m, sequential_integrate)
        oracle_report = compute_report(spec)
    assert report == oracle_report
    assert len(requests) == 4 and len(calls) < len(oracle_calls)
    assert sum(c.size for c in calls) <= 8_000
    points = np.sort(np.concatenate(calls))
    assert points.tobytes() == np.sort(np.concatenate(oracle_calls)).tobytes()


def test_tracer_counts_every_integrand_point(tracer, workloads, monkeypatch):
    spec = mixed_spec(workloads)
    calls = record_points(monkeypatch)
    with tracer.installed(tracer.Tracer()) as traced:
        compute_report(spec)
    metrics = tracer.layer_metrics(traced.spans)
    assert metrics["quadrature.integrand_points"] == sum(c.size for c in calls) > 0


def test_report_sweep_inputs_make_no_quadrature_call(workloads, tmp_path, monkeypatch):
    # Every input of round 0 of the report workload, each sweep row
    # included: parsing and the report take closed forms only.
    def no_quadrature(request):
        raise AssertionError("quadrature.integrate called")

    clear_caches()
    sweep = workloads.ReportSweep(PERFBENCH_ROOT, 1, tmp_path)
    sweep.setup()
    sweep.ops(0)
    monkeypatch.setattr(measures, "integrate", no_quadrature)
    monkeypatch.setattr(processes, "integrate", no_quadrature)
    paths = sorted(tmp_path.glob("r0-*.json"))
    assert len(paths) == 6
    rows = 0
    for path in paths:
        config = parse_config(path)
        compute_report(config.problem)
        if "sweep" in path.name:  # the inputs of the two sweep operations
            s = config.sweep
            for i in range(s.steps):
                value = s.start + (s.stop - s.start) * i / (s.steps - 1)
                compute_report(sweep_row(config, s.parameter, value).problem)
                rows += 1
    assert rows == workloads.LAMBDA_STEPS + workloads.HORIZON_STEPS


def counted(monkeypatch, module, name) -> list:
    """Count the calls of module.name from now on: the list of their
    arguments."""
    calls, original = [], getattr(module, name)

    def count(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, count)
    return calls


def test_lambda_sweep_computes_no_levy_integral(workloads, tmp_path, monkeypatch):
    # Round 0's positive-volatility tempered-stable copy, parsed, and its
    # four lambda+ rows built and reported: each spec reads only the Levy
    # verdict, which the tempered-stable form gives from alpha alone, so
    # the continued fraction runs only for the gamma of each row's nu1.
    sweep = workloads.ReportSweep(PERFBENCH_ROOT, 1, tmp_path)
    sweep.setup()
    sweep.ops(0)
    clear_caches()
    fractions = counted(monkeypatch, _forms, "_upper_gamma_cf")
    config = parse_config(tmp_path / "r0-ts_lambda_sweep.json")
    s = config.sweep
    assert s.parameter == "process1.levy.lambda_plus" and s.steps == 4
    for i in range(s.steps):
        value = s.start + (s.stop - s.start) * i / (s.steps - 1)
        compute_report(sweep_row(config, s.parameter, value).problem)
    assert len(fractions) <= 4

