"""Sweep rows estimated together share their draws and keep their bits.

``montecarlo.estimate_tv_rows`` runs the rows of a sweep in groups that
make each chunk's draws once: the inverse Gaussian sums of an exact
tempered-stable pair, the Poisson counts of a constant log-ratio, and the
standard normals of the Gaussian part.  Every row must still equal
``estimate_tv`` on its own spec, bit for bit, at every thread count, and a
row refused by its own hypotheses must leave its neighbours estimated.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from addgap import cli, montecarlo
from addgap.config import parse_config, parse_config_dict, sweep_row
from addgap.errors import AddgapError, HypothesisFailed
from addgap.montecarlo import CHUNK_PATHS, MAX_PATHS, estimate_tv, estimate_tv_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Three full chunks and a partial one.
N_PATHS = 3 * CHUNK_PATHS + 1000


def config(name, vol_sq=None, **levy1):
    """A bundled config, with both variances set to vol_sq and process1's
    Levy fields overridden when given."""
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    for key in ("process1", "process2"):
        if vol_sq is not None:
            raw[key]["vol_sq"]["c"] = vol_sq
    raw["process1"]["levy"].update(levy1)
    return parse_config_dict(raw)


def sweep_jobs(cfg, path, values, n_paths=N_PATHS, epsilon=None):
    """(spec, n_paths, epsilon, seed) of each row of a sweep of path, the
    seed and, unless given, the epsilon from the config's estimator block."""
    jobs = []
    for value in values:
        row = sweep_row(cfg, path, value)
        settings = row.estimator
        eps = settings.epsilon if epsilon is None else epsilon
        jobs.append((row.problem, n_paths, eps, settings.seed))
    return jobs


def outcome(result):
    """Hex (mean, half-width) of a result, or (type, message) of a refusal."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return result.mean.hex(), result.half_width_95.hex()


def alone(job):
    try:
        return outcome(estimate_tv(*job))
    except AddgapError as exc:
        return outcome(exc)


def sweeps():
    """The battery: name -> jobs."""
    ts = config("tempered_stable", vol_sq=1.0)
    ts_zero_vol = config("tempered_stable")
    jd = config("jump_diffusion")
    cp = config("compound_poisson")
    unequal_c = config("tempered_stable", vol_sq=1.0, c_plus=1.5)
    return {
        # lambda1+ = 1 = lambda2+ in the second row: no side differs there.
        "ts_lambda_plus": sweep_jobs(ts, "process1.levy.lambda_plus", [0.5, 1.0, 1.5, 2.0]),
        # sigma = 0: only the drift-matched row is estimated.
        "ts_lambda_plus_zero_vol": sweep_jobs(
            ts_zero_vol, "process1.levy.lambda_plus", [1.5, 2.0, 2.5]
        ),
        "cp_lambda": sweep_jobs(cp, "process1.levy.lambda", [1.5, 2.0, 2.5]),
        "jd_lambda": sweep_jobs(jd, "process1.levy.lambda", [0.8, 1.2, 1.6]),
        "jd_vol_sq": sweep_jobs(jd, "process1.vol_sq.c", [0.5, 1.0, 1.5]),
        "jd_drift": sweep_jobs(jd, "process1.drift.c", [-0.5, 0.0, 0.3, 1.0]),
        "unequal_c_generic": sweep_jobs(
            unequal_c, "process1.levy.lambda_plus", [1.5, 2.5], n_paths=1500, epsilon=1e-2
        ),
        "ts_process2": sweep_jobs(ts, "process2.levy.lambda_plus", [0.5, 1.0, 2.0]),
        "jd_process2_drift": sweep_jobs(jd, "process2.drift.c", [-0.2, 0.0, 0.2]),
        "jd_process2_lambda": sweep_jobs(jd, "process2.levy.lambda", [0.9, 1.1]),
        "ts_horizon": sweep_jobs(ts, "horizon", [0.5, 1.0, 2.0]),
        "jd_horizon": sweep_jobs(jd, "horizon", [0.5, 1.0, 2.0]),
        "jd_seed": sweep_jobs(jd, "estimator.seed", [1.0, 2.0, 3.0]),
        "ts_epsilon": sweep_jobs(ts, "estimator.epsilon", [1e-3, 1e-2], n_paths=CHUNK_PATHS),
        # One group whose first row has no Gaussian part and whose others do.
        "ts_mixed_vol": (
            sweep_jobs(ts_zero_vol, "process1.levy.lambda_plus", [2.0])
            + sweep_jobs(ts, "process1.levy.lambda_plus", [1.5, 2.0])
        ),
    }


SWEEPS = sweeps()


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_rows_have_the_bits_of_estimate_tv(monkeypatch, name, threads):
    monkeypatch.setenv("ADDGAP_THREADS", threads)
    jobs = SWEEPS[name]
    together = [outcome(result) for result in estimate_tv_rows(jobs)]
    assert together == [alone(job) for job in jobs]
    # Every sweep estimates a row; the mixed ones refuse some too.
    assert any(o[0].startswith("0x") for o in together)


def test_mixed_sweeps_refuse_rows():
    refused = {
        name for name, jobs in SWEEPS.items()
        if any(isinstance(r, HypothesisFailed) for r in estimate_tv_rows(jobs))
    }
    assert {"ts_lambda_plus_zero_vol", "cp_lambda", "jd_vol_sq"} <= refused


@pytest.mark.parametrize("threads", ["1", "3"])
def test_a_row_above_max_paths_leaves_its_neighbours(monkeypatch, threads):
    monkeypatch.setenv("ADDGAP_THREADS", threads)
    jd = config("jump_diffusion")
    jobs = sweep_jobs(jd, "process1.levy.lambda", [0.8, 1.2, 1.6])
    jobs[1] = (jobs[1][0], MAX_PATHS + 1, *jobs[1][2:])
    first, refused, last = estimate_tv_rows(jobs)
    assert outcome(refused) == (
        "HypothesisFailed", f"n_paths = {MAX_PATHS + 1} is above the limit of {MAX_PATHS}"
    )
    assert [outcome(first), outcome(last)] == [alone(jobs[0]), alone(jobs[2])]


def test_cli_row_above_max_paths_keeps_empty_cells(tmp_path, capsys):
    path = tmp_path / "jd.json"
    raw = json.loads((CONFIG_DIR / "jump_diffusion.json").read_text())
    raw["estimator"]["n_paths"] = CHUNK_PATHS
    path.write_text(json.dumps(raw))
    argv = ["sweep", "--config", str(path), "--param", "estimator.n_paths",
            "--from", str(MAX_PATHS + 1), "--to", str(CHUNK_PATHS), "--steps", "2"]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0][8:] == ["", ""]
    expected = estimate_tv(parse_config(path).problem, CHUNK_PATHS, None, raw["estimator"]["seed"])
    assert rows[1][8:] == [repr(expected.mean), repr(expected.half_width_95)]


class Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class GaussStream(montecarlo.RngStream):
    """An RngStream that counts the generators built on Gaussian streams."""

    built = 0

    @property
    def generator(self):
        if "generator" not in self.__dict__ and self.stream_index % 2:
            GaussStream.built += 1
        return super().generator


@pytest.fixture
def draws(monkeypatch):
    """Counts of montecarlo's jump draws and of its standard normal draws."""
    counters = {
        name: Counter(getattr(montecarlo, name))
        for name in ("inverse_gaussian_sums", "_draw_counts", "stream_jump_sums")
    }
    for name, counter in counters.items():
        monkeypatch.setattr(montecarlo, name, counter)
    monkeypatch.setattr(montecarlo, "RngStream", GaussStream)
    monkeypatch.setattr(GaussStream, "built", 0)
    monkeypatch.setenv("ADDGAP_THREADS", "2")

    def read():
        counts = {name: counter.calls for name, counter in counters.items()}
        counts["standard_normal"] = GaussStream.built
        return counts

    return read


def run_sweep(config_name, *flags):
    assert cli.main(["sweep", "--config", str(CONFIG_DIR / f"{config_name}.json"), *flags]) == 0


class TestDrawCounts:
    """Each sweep runs N_PATHS paths: four chunks per row."""

    def test_lambda_sweep_draws_once_per_chunk(self, tmp_path, draws, capsys):
        path = tmp_path / "ts.json"
        raw = json.loads((CONFIG_DIR / "tempered_stable.json").read_text())
        for key in ("process1", "process2"):
            raw[key]["vol_sq"]["c"] = 1.0
        path.write_text(json.dumps(raw))
        argv = ["sweep", "--config", str(path), "--param", "process1.levy.lambda_plus",
                "--from", "1.75", "--to", "3.25", "--steps", "4", "--paths", str(N_PATHS)]
        assert cli.main(argv) == 0
        assert draws() == {
            "inverse_gaussian_sums": 4, "_draw_counts": 0, "stream_jump_sums": 0,
            "standard_normal": 4,
        }
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4 and all(row[8] != "" for row in rows)

    def test_compound_poisson_lambda_sweep_draws_counts_once_per_chunk(self, draws, capsys):
        run_sweep("jump_diffusion", "--param", "process1.levy.lambda", "--from", "0.5",
                  "--to", "2", "--steps", "5", "--paths", str(N_PATHS))
        assert draws() == {
            "inverse_gaussian_sums": 0, "_draw_counts": 4, "stream_jump_sums": 0,
            "standard_normal": 4,
        }

    def test_horizon_sweep_draws_once_per_row(self, draws, capsys):
        run_sweep("jump_diffusion", "--param", "horizon", "--from", "0.5", "--to", "2",
                  "--steps", "3", "--paths", str(N_PATHS))
        assert draws() == {
            "inverse_gaussian_sums": 0, "_draw_counts": 12, "stream_jump_sums": 0,
            "standard_normal": 12,
        }


def test_shared_counts_are_read_not_changed():
    # A row reads the shared draws of its group without writing to them: the
    # counts and normals one row sees are those the next row sees.
    jd = config("jump_diffusion")
    jobs = sweep_jobs(jd, "process1.levy.lambda", [0.8, 1.2], n_paths=CHUNK_PATHS)
    rows = [montecarlo._ct_dt_row(*job, lambda x: x) for job in jobs]
    assert rows[0].jumps.key == rows[1].jumps.key is not None
    drawn = rows[0].jumps.draw(montecarlo.RngStream(jobs[0][3], 0), CHUNK_PATHS)
    z = montecarlo.RngStream(jobs[0][3], 1).generator.standard_normal(CHUNK_PATHS)
    before = drawn.copy(), z.copy()
    for row in rows:
        row.values((drawn, lambda: z), CHUNK_PATHS)
    assert np.array_equal(drawn, before[0]) and np.array_equal(z, before[1])
