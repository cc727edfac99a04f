"""Each CLI command imports only the modules it runs, and ``import pfgames``
imports none of its submodules until a name is used.

Each check runs in a child interpreter, because this test process has every
module loaded already. The child runs one command and then prints the names
in ``sys.modules`` to stderr.
"""

import json

import pytest

from pfgames import formats, tu_games, tux_games

from .test_lazy_numpy import python

PROBE = (
    "import sys\n"
    "from pfgames import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

CHECKS = {"pfgames.verify"}
OPERATORS = {"pfgames.restriction_ops"}
DATACLASSES = {"dataclasses"}

# argv, then the modules the command must not load; the sampler's estimate
# is a dataclass and numpy imports inspect, so sample may load dataclasses
BUDGETS = [
    (["enumerate", "--players", "1,2,3", "--embedded"], CHECKS | OPERATORS | DATACLASSES),
    (["mpw", "--game", "{pfg}"], CHECKS | OPERATORS | DATACLASSES),
    (["p-shapley", "--game", "{pfg}", "--family", "eps:4=1/24"],
     CHECKS | OPERATORS | DATACLASSES),
    (["shapley", "--game", "{tu}"], CHECKS | OPERATORS | DATACLASSES),
    (["potential", "--game", "{tu}"], CHECKS | OPERATORS | DATACLASSES),
    (["sample", "--game", "{pfg}", "--target", "mpw", "--player", "2", "--samples", "100"],
     CHECKS | OPERATORS),
    (["restrict", "--op", "rstar", "--remove", "4", "--game", "{pfg}"], CHECKS | DATACLASSES),
    (["aux-game", "--op", "nullify", "--game", "{pfg}"], CHECKS | DATACLASSES),
    (["potential", "--op", "rstar", "--game", "{pfg}"], CHECKS | DATACLASSES),
]

# every name ``from pfgames import *`` bound when the package imported each
# submodule eagerly
STAR_NAMES = [
    "CapacityError", "EpsilonProfile", "PSTAR", "PositivityError", "RandomPartitionFamily",
    "Report", "RestrictionOperator", "TuGame", "TuxGame", "average_game", "bell_number",
    "check_ci", "check_gen", "check_monotonicity_conditions", "check_null_player_axiom",
    "check_pos", "check_restriction_axioms", "crp_restriction", "dirac_game",
    "enumerate_embedded", "enumerate_partitions", "errors", "ewens_family",
    "expected_accumulated_worth", "externality_free_tu", "family_from_distributions",
    "formats", "insert_player", "is_null_player", "lift_tu_game", "mask_from", "members",
    "mpw_value", "null_game", "null_player_witness", "nullifying_restriction", "p_shapley",
    "p_shapley_vector", "partitions", "perturbed_family", "potential",
    "potential_via_random_partition", "potential_via_size_weights",
    "probability_restriction", "productive_pair_game", "random_partitions",
    "removal_biased_restriction", "restriction_ops", "set_universe_bound", "shapley_value",
    "shapley_via_crp", "subgame", "tu_games", "tux_games", "unanimity_game",
    "universe_bound", "verify",
]
# resolved on first use and listed by dir(), but left out of a star import
SAMPLER_NAMES = ["SampleEstimate", "estimate_payoff", "sample_crp", "sampling"]


@pytest.fixture(scope="module")
def games(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    paths = {"pfg": root / "showcase.json", "tu": root / "unanimity.json"}
    paths["pfg"].write_text(json.dumps(
        formats.tux_game_to_json(tux_games.productive_pair_game())))
    paths["tu"].write_text(json.dumps(
        formats.tu_game_to_json(tu_games.unanimity_game([1, 2, 3], [1, 2]))))
    return {key: str(path) for key, path in paths.items()}


def loaded_by(argv, games) -> set:
    argv = [arg.format(**games) for arg in argv]
    proc = python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stderr.decode().splitlines()[-1].split())


@pytest.mark.parametrize("argv, forbidden", BUDGETS, ids=[
    " ".join(arg for arg in argv if not arg.startswith("{")) for argv, _ in BUDGETS])
def test_command_loads_only_the_modules_it_runs(games, argv, forbidden):
    loaded = loaded_by(argv, games)
    assert "pfgames.formats" in loaded  # the probe saw the command's own imports
    assert not loaded & forbidden


def test_family_checks_leave_the_restriction_operators_unloaded(games):
    loaded = loaded_by(["verify", "--check", "gen", "--check", "monotonicity",
                        "--family", "pstar", "--nmax", "3"], games)
    assert "pfgames.verify" in loaded
    assert "pfgames.restriction_ops" not in loaded


def test_bare_import_loads_no_submodule():
    proc = python("-c", "import sys, pfgames; "
                        "print(sorted(m for m in sys.modules if m.startswith('pfgames')))")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"['pfgames']\n"


def test_every_exported_name_resolves_is_listed_and_is_star_imported():
    script = (
        "import sys, pfgames\n"
        f"star, sampler = {STAR_NAMES!r}, {SAMPLER_NAMES!r}\n"
        "listed = set(dir(pfgames))\n"
        "assert set(star + sampler) <= listed, set(star + sampler) - listed\n"
        "bound = {}\n"
        "exec('from pfgames import *', bound)\n"
        "assert set(star) == set(bound) - {'__builtins__'}, set(bound) ^ set(star)\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in star + sampler:\n"
        "    value = getattr(pfgames, name)\n"
        "    home = sys.modules.get(f'pfgames.{name}') or sys.modules[value.__module__]\n"
        "    assert value is home or value is getattr(home, name), name\n"
        "print('ok')\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"
