"""Each demo runs to completion and prints exactly what it printed when its
digest was recorded, so a change that breaks a demo or moves one of its
numbers cannot go unseen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

# SHA-256 of each demo's stdout.
DEMO_SHA256 = {
    "compound_poisson_distance.py": "1cd8eee6c749b87a0ddabdcc6228c5732bcab4f99055eef11a6b6d1728623be5",
    "horizon_sweep.py": "033c3e0a438101d87bb354b41706c90806ea68a0b9777bf443d16615c2b8d9c1",
    "tempered_stable_truncation.py": "fa1af780c3822d5ccd427e073f2bd6f9867ad63d8bc49680932cae7910aaaf07",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMO_DIR.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output(name):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
