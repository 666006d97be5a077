"""The benchmark tracer's targets still exist in the library.

``perfbench/tracer.py`` wraps addgap entry points by name, so deleting or
renaming one of them breaks ``python3 perfbench/run.py --trace 1``; these
tests make that a failure of the library's own suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
