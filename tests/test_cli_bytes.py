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
        "tv": "f3882704779564cedbc5013ace4cbd12056af66c526aec5cadcf88f121a9ab25",
        "martingale": "badf79e666cb903d96adfa52de1b6e8150d1eba2f6f2c1a2c6a81af8a76514ca",
        "sinh": "edc88b85f67d98dd19707801d0ee5cfc5b52ea7aab861160190c19eaafe1ae66",
        "compare_json": "61e6cbb204e8c54a473f335047793bffe0d517e66640c790aecd3c036fcf3e73",
        "epsilon": "14d807c2d40e0b66515940280ff8dcf46fca7ae5c7654be80f3358c52e4e70c7",
        "sweep": "673f3c6c1b8216d62af4538368f662a7788ab42831ae8d026b7ce57d97fa44c6",
    },
    "jump_diffusion": {
        "bound": "dd420e71958e65ac6c9e1fbbdcdb83620822756657262a5a316287a81a7b8d79",
        "bound_json": "ac955354596d858e5a1caa084928146dce813ad2cf773eab0daae0be3f979f4f",
        "tv": "65779067ab1c366153a2f647660b7a406a3d10d240514d12ec740ff74c7ddda8",
        "martingale": "ed5c5c6d34a0bdcda27839bb148c1a2d5c9d08095e67ad8b8348b362ba475516",
        "sinh": "22465556a5213a15a36523e7f6d7572e9640edb00ae3a0dfa4727a5101da51b1",
        "compare_json": "6297f417bd28a4ee121141567045fa868b0a16abdadcd1c626d110e6ea26fb1c",
        "epsilon": "e076e6515b173a65a5a798d61969df31531dcd1bbfb6c004e0d42625db441142",
        "sweep": "e9a838cb909a60c2d920d36769dcba470c06bf8adc5e8ec3a84655b8e4b109e2",
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
    "compound_poisson/lambda_one_chunk": "e5cc948fe3eeff08edbfe54238f3a99c43f52165c0682710ba1f4a563c5c34a2",
    "compound_poisson/lambda": "04deea88b73f8aaa87181ce2cda44086ed40e3d2601146c85ac381647c2b1128",
    "jump_diffusion/lambda_one_chunk": "ac95fd29280461fc8b87bfb9f4bcbd5301bc98badb250d9fbd9bfe658c2301e3",
    "jump_diffusion/lambda": "7ac9c7e3fea0f214fcdb7dc22b385164b8693be05b088d4b3dd5841fe89d57b8",
    "tempered_stable": "719f161c7b6e46065622d312c58a8b8a767710a4bda4e943ed8e286453f4af4d",
    "jump_diffusion": "3f82fd30b204b53394869056702b64b6ec3f382ed86d3cb0f2f289243d42a50e",
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
