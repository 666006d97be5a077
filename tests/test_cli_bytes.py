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
        "bound": "f63c8eff50932ab319d5cc49c4ce7b1f6e08336ace1a856d97e7a73c12cb599a",
        "bound_json": "defd00d032a3d855b69a647cd21fbab9b18b09e81135db6824c31a3431f7ca8b",
        "tv": "6c4c4d847724ec2bb611cd37d3641771b59a38f756417afe2948728588858aa3",
        "martingale": "5eea46101c8d20a3196fe1483939b9b66c5925d13697f7e0d98d57baa1f45882",
        "sinh": "930b7bc9f4840ff58e8b311ee31866193d81a5875ee3053a0a62d03f6e4023b7",
        "compare_json": "b3111a5a716b97ff4cc7f307245d574ecf24b5c40df92635864f82bd7311bb77",
        "epsilon": "23e69c226f5b75a9da120dbf9dc518914c7f2c6b707eb44c77a770b4b216de5f",
        "sweep": "7f2792d8ee4ec2671ea5de8ed876642c2c2d0ff0fdaa378b6cb2f3bb1c0aeb6a",
    },
    "jump_diffusion": {
        "bound": "010d96b177ae58757290461dedddfb1de71c826c046401908f3027e849300ce2",
        "bound_json": "37da9409e70f6eacbc24b97c57a233fb4ff57fe2c54b72ec39c4d6cf19db1091",
        "tv": "2f5457ca10b953c65b776828b6ce0ff3ab278ef8c2b9c80b083a7661b70d472f",
        "martingale": "cd2acdf3b4e46a7aa92042a76aad82ef5860f32ada23ac7039c4881f4a265601",
        "sinh": "f8a9f284a4bf21d06ede058cd43ec454a415cbe9aaea6ecde7403cf3c1973968",
        "compare_json": "7b3549adae3194c9e250b2324fb98b4f574468655b957cc2933d30c3b5ef2660",
        "epsilon": "4b785b0f668847c22d3c287bd026d46ccb71018680d9a6be9b3671658f7224ba",
        "sweep": "7f53376a7fa0c8f1afd270e2afc0d350bb53dab79c574728896315409e984146",
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
# a row whose drifts or volatilities no longer match, and their digests.
PROCESS_SWEEPS = {
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
    "tempered_stable": "719f161c7b6e46065622d312c58a8b8a767710a4bda4e943ed8e286453f4af4d",
    "jump_diffusion": "923809a109d866015ad4ae99353d0aae240811916c2a46d1af036d8989c5fbe7",
}


def cli_digest(config: str, command: str) -> str:
    """SHA-256 of the exit code, stdout and stderr of one command."""
    return argv_digest(config, COMMANDS[command])


def argv_digest(config: str, argv: list) -> str:
    """SHA-256 of the exit code, stdout and stderr of cli.main(argv) on a
    bundled config."""
    argv = argv + ["--config", str(CONFIG_DIR / f"{config}.json")]
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
