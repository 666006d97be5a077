"""The benchmark tracer's targets still exist in the library, and the
quadrature the benchmark's report workload measures stays within budget.

``perfbench/tracer.py`` wraps addgap entry points by name, so deleting or
renaming one of them breaks ``python3 perfbench/run.py --trace 1``; these
tests make that a failure of the library's own suite.
"""

import dataclasses
import random

import numpy as np
import pytest

from addgap import measures, processes, quadrature
from addgap.bounds import compute_report
from addgap.config import parse_config_dict

from _oracles import clear_caches, loaded, sequential_integrate


@pytest.fixture(scope="module")
def tracer():
    yield from loaded("tracer")


@pytest.fixture(scope="module")
def workloads():
    yield from loaded("workloads")


def tabulated_spec(workloads):
    """A fresh spec of the report workload's tabulated pair, uncached."""
    clear_caches()
    config = workloads.tabulated_pair(random.Random("report_sweep:1:0"))
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


def test_tracer_counts_every_integrand_point(tracer, workloads, monkeypatch):
    spec = tabulated_spec(workloads)
    calls = record_points(monkeypatch)
    with tracer.installed(tracer.Tracer()) as traced:
        compute_report(spec)
    metrics = tracer.layer_metrics(traced.spans)
    assert metrics["quadrature.integrand_points"] == sum(c.size for c in calls) > 0
