"""Byte pins of the command line on the bundled configs.

Each command of ``COMMANDS`` runs through ``cli.main`` in process on each
bundled config, at ADDGAP_THREADS 1 and 2, and the SHA-256 of its exit
code, stdout and stderr must equal the digest recorded in ``CLI_SHA256``.
The same holds for each sweep of ``PROCESS_SWEEPS`` and its digest in
``PROCESS_SWEEP_SHA256``.  A change that moves one printed digit, one
message or one exit code on the bundled configs cannot go unseen.
``python tests/test_cli_bytes.py`` prints the digests of the tree on the
import path, in the layout of ``CLI_SHA256`` and then of
``PROCESS_SWEEP_SHA256``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from addgap import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PATHS = ["--paths", "20000"]

COMMANDS = {
    "bound": ["bound"],
    "bound_json": ["bound", "--json"],
    "tv": ["estimate", "--check", "tv", *PATHS],
    "martingale": ["estimate", "--check", "martingale", *PATHS],
    "sinh": ["estimate", "--check", "sinh", *PATHS],
    "compare_json": ["compare", "--json", *PATHS],
    "epsilon": ["estimate", "--epsilon", "0.2", *PATHS],
    "sweep": [
        "sweep", "--param", "horizon", "--from", "0.5", "--to", "2", "--steps", "3",
        *PATHS,
    ],
}

CONFIGS = ("compound_poisson", "jump_diffusion", "tempered_stable")

# SHA-256 of json.dumps([exit code, stdout, stderr]) per config and command,
# the same at every thread count.
CLI_SHA256 = {
    "compound_poisson": {
        "bound": "ed011be71f98e0c7af019a555646b4c777f364a1097d42b2fab505aa9276d4d7",
        "bound_json": "886b9c8e33d418dd544655e8b20185f63582669372aac35682e2d7b89369e9a8",
        "tv": "d91070559dfaad35e81e40668988aecaba3aa78d1c01560ce18fd4b50819d198",
        "martingale": "5eea46101c8d20a3196fe1483939b9b66c5925d13697f7e0d98d57baa1f45882",
        "sinh": "e50516ad37207101115925f35cec8eba02e44e0e7af1c6537aef88ed4f83a337",
        "compare_json": "e1ab6a2a3859bcc9937e889a996353d463f95d16ac06b041330768f6ed691995",
        "epsilon": "88e80ae6d8ea1d0a38293815f06d58b41426bbc56838d504af4cfd1c7a471f50",
        "sweep": "c2236d9de83e4d92976ccc937cf15be74d60208b696ad323b92d1ae21c241d16",
    },
    "jump_diffusion": {
        "bound": "dd420e71958e65ac6c9e1fbbdcdb83620822756657262a5a316287a81a7b8d79",
        "bound_json": "ac955354596d858e5a1caa084928146dce813ad2cf773eab0daae0be3f979f4f",
        "tv": "7b104426bd0d60bf627df60efacc2ec1efa8b7f5162c4c55850b2603143cb564",
        "martingale": "cd2acdf3b4e46a7aa92042a76aad82ef5860f32ada23ac7039c4881f4a265601",
        "sinh": "1b52fe8dd7035b4ed4cbde3b970643d35812313610a4bd0e108977717d21a468",
        "compare_json": "853f5a8aed2353bf741925c84d5d95701dbda77081c324e3afba2ec5de36c666",
        "epsilon": "5a3d1af657236c38af9e6e35a8f7790624b3ce4573d6f9888929a85ce2ca6a0d",
        "sweep": "e2c4e2939c19a06df9d3ad39958ab2a0c98683adaaca6fcd5b5be30ea446097e",
    },
    "tempered_stable": {
        "bound": "039f20781ad244e2fe8cf8431b1d142eac2d6e5be3adf74fca1fc9836f2e3ca5",
        "bound_json": "9e7d931d651d0c22e402f5118a188a5c80068107fec37cfa1dc365364dafb3da",
        "tv": "ae25d3bbe0125d2ee93e89279dc494d5156026c05f7fec5f6501d8f23782f6ad",
        "martingale": "7f0cc5b2cc9807ab20777e82ae579d4c0d6bb611a8ab41e22da906a3f5fe5cf4",
        "sinh": "de75fdeb14040c79ca90a8516e901fb9e94785debcdc3e527d37fd76b3fd0ad2",
        "compare_json": "0e19edab243cee716f11bde1067132eeb2e0af36f468ba8b93986b074d1a7261",
        "epsilon": "ae25d3bbe0125d2ee93e89279dc494d5156026c05f7fec5f6501d8f23782f6ad",
        "sweep": "ac61b56857d366d7014be622a803bee18d6bf92f27bdb5ab4bd5244d1df4b0d3",
    },
}


# Sweeps of a leaf inside a process (each row re-parses that process), with
# a row whose drifts or volatilities no longer match, and their digests.  A
# name is its bundled config, then "/" and a label when a config has more
# than one.  The lambda sweeps share their draws across rows: one chunk of
# paths, and three (the last partial).
LAMBDA_SWEEP = [
    "sweep", "--param", "process1.levy.lambda", "--from", "1", "--to", "2", "--steps", "5",
]
PROCESS_SWEEPS = {
    "compound_poisson/lambda_one_chunk": [*LAMBDA_SWEEP, "--paths", "8192"],
    "compound_poisson/lambda": [*LAMBDA_SWEEP, *PATHS],
    "jump_diffusion/lambda_one_chunk": [*LAMBDA_SWEEP, "--paths", "8192"],
    "jump_diffusion/lambda": [*LAMBDA_SWEEP, *PATHS],
    "tempered_stable": [
        "sweep", "--param", "process1.levy.lambda_plus", "--from", "1.5", "--to", "2.5",
        "--steps", "3", *PATHS,
    ],
    "jump_diffusion": [
        "sweep", "--param", "process1.vol_sq.c", "--from", "0.5", "--to", "1.5",
        "--steps", "3", *PATHS,
    ],
}
PROCESS_SWEEP_SHA256 = {
    "compound_poisson/lambda_one_chunk": "51258eba74c5b1743b670bf36c09d64fff17dbecf3f84cd5af59db7b7267457f",
    "compound_poisson/lambda": "77d7975170efaf1e80fe7ecb8c2fbfc5f3cea559f0c87988c51558af9a53251c",
    "jump_diffusion/lambda_one_chunk": "6a29504219c00006490ee8ce9ad3fbfecb447596efc41e0125943e2b6e64bf3b",
    "jump_diffusion/lambda": "b77677a86a8bd1240cc7e86b573c0ffdaa0cdea4c61b986d1febe7f9b776c95e",
    "tempered_stable": "719f161c7b6e46065622d312c58a8b8a767710a4bda4e943ed8e286453f4af4d",
    "jump_diffusion": "bcbceba386a2afb507e98084d90d9ab1b2f430af7e3ef2accf067ce2a8b648df",
}


def cli_digest(config: str, command: str) -> str:
    """SHA-256 of the exit code, stdout and stderr of one command."""
    return argv_digest(config, COMMANDS[command])


def argv_digest(config: str, argv: list) -> str:
    """SHA-256 of the exit code, stdout and stderr of cli.main(argv) on a
    bundled config, named as in ``PROCESS_SWEEPS``."""
    argv = argv + ["--config", str(CONFIG_DIR / f"{config.split('/')[0]}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    document = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(document.encode()).hexdigest()


def test_every_bundled_config_is_pinned():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(CLI_SHA256)
    assert all(sorted(pins) == sorted(COMMANDS) for pins in CLI_SHA256.values())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("config", CONFIGS)
def test_cli_bytes(config, command, threads, monkeypatch):
    monkeypatch.setenv("ADDGAP_THREADS", threads)
    assert cli_digest(config, command) == CLI_SHA256[config][command]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("config", sorted(PROCESS_SWEEPS))
def test_process_sweep_bytes(config, threads, monkeypatch):
    monkeypatch.setenv("ADDGAP_THREADS", threads)
    assert argv_digest(config, PROCESS_SWEEPS[config]) == PROCESS_SWEEP_SHA256[config]


if __name__ == "__main__":
    os.environ["ADDGAP_THREADS"] = "1"
    for name in CONFIGS:
        print(f'    "{name}": {{')
        for key in COMMANDS:
            print(f'        "{key}": "{cli_digest(name, key)}",')
        print("    },")
    for name, argv in PROCESS_SWEEPS.items():
        print(f'    "{name}": "{argv_digest(name, argv)}",')
