"""numpy is the sampler's dependency alone: exact commands never load it.

Each check runs in a child interpreter, because this test process has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfgames import formats, tux_games

SRC = str(Path(__file__).resolve().parents[1] / "src")

BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None; '
RUN_CLI = "from pfgames import cli; sys.exit(cli.main(sys.argv[1:]))"

# `pfgames sample --game showcase.json --target mpw --player 2 --samples 500
# --seed 7`, as printed under the "numpy-philox-v4" draw stream
PINNED_SAMPLE = (
    b'{\n  "generator": "numpy-philox-v4",\n  "mean": 0.416,\n  "samples": 500,\n'
    b'  "seed": 7,\n  "std_error": 0.022064943313928855\n}\n'
)


def python(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=timeout
    )


@pytest.fixture
def showcase_path(tmp_path):
    path = tmp_path / "showcase.json"
    path.write_text(json.dumps(formats.tux_game_to_json(tux_games.productive_pair_game())))
    return str(path)


@pytest.mark.parametrize("module", ["pfgames", "pfgames.cli"])
def test_import_leaves_numpy_unloaded(module):
    proc = python("-c", f"import sys, {module}; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--players", "1,2,3", "--embedded"],
        ["mpw", "--game", "{game}"],
        ["p-shapley", "--game", "{game}", "--family", "eps:4=1/24"],
        ["restrict", "--op", "rstar", "--remove", "4", "--game", "{game}"],
        ["aux-game", "--op", "nullify", "--game", "{game}"],
        ["potential", "--game", "{game}", "--op", "rstar"],
        ["verify", "--check", "gen", "--family", "pstar", "--nmax", "3"],
        ["verify", "--check", "restriction", "--op", "rp:pstar", "--nmax", "3"],
    ],
    ids=lambda argv: " ".join(arg for arg in argv if arg not in ("--game", "{game}")),
)
def test_exact_commands_run_with_numpy_blocked(showcase_path, argv):
    argv = [arg.replace("{game}", showcase_path) for arg in argv]
    blocked = python("-c", BLOCK_NUMPY + RUN_CLI, *argv)
    assert blocked.returncode == 0, blocked.stderr.decode()
    plain = python("-m", "pfgames.cli", *argv)
    assert plain.returncode == 0, plain.stderr.decode()
    assert blocked.stdout == plain.stdout


def test_sampler_names_resolve_after_a_bare_import():
    script = (
        "import sys, pfgames\n"
        "assert 'numpy' not in sys.modules\n"
        "names = ['SampleEstimate', 'estimate_payoff', 'sample_crp', 'sampling']\n"
        "assert set(names) <= set(dir(pfgames))\n"
        "sampling = pfgames.sampling\n"
        "assert 'numpy' in sys.modules\n"
        "assert pfgames.estimate_payoff is sampling.estimate_payoff\n"
        "assert pfgames.sample_crp is sampling.sample_crp\n"
        "from pfgames import SampleEstimate\n"
        "assert SampleEstimate is sampling.SampleEstimate\n"
        "try:\n"
        "    pfgames.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"


def test_a_blocked_numpy_fails_only_the_sampler(showcase_path):
    argv = ["sample", "--game", showcase_path, "--target", "mpw", "--player", "2"]
    proc = python("-c", BLOCK_NUMPY + RUN_CLI, *argv)
    assert proc.returncode != 0
    assert b"numpy" in proc.stderr


def test_sample_output_is_pinned(showcase_path):
    argv = ["--game", showcase_path, "--target", "mpw", "--player", "2",
            "--samples", "500", "--seed", "7"]
    proc = python("-m", "pfgames.cli", "sample", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == PINNED_SAMPLE


def test_sampler_calls_leave_numpy_ma_unloaded():
    """numpy.ma costs every `pfgames sample` run its import time, and
    np.unique loads it; an 8-player mpw estimate and a CRP draw must not."""
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from pfgames import TuxGame, enumerate_embedded, estimate_payoff, sample_crp\n"
        "cells = enumerate_embedded(range(1, 9))\n"
        "worth = {c: Fraction(k % 7 - 3, 5) for k, c in enumerate(cells) if c[0]}\n"
        "w = TuxGame(0b111111110, worth)\n"
        "estimate_payoff(w, 3, 'mpw', n_samples=5000, seed=1)\n"
        "sample_crp((0, 3, 4, 9, 31), seed=2, count=5000)\n"
        "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"False True\n"


def test_sample_refuses_samples_past_the_budget_before_any_draw(showcase_path):
    """10^12 samples would take weeks; the refusal comes before numpy loads."""
    argv = ["sample", "--game", showcase_path, "--target", "mpw", "--player", "2",
            "--samples", str(10**12)]
    proc = python("-c", BLOCK_NUMPY + RUN_CLI, *argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "pfgames: error: --samples 1000000000000 exceeds the budget of 10000000 samples\n")
