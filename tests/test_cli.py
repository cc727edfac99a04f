import json
from fractions import Fraction

import pytest

from pfgames import cli, formats, partitions, random_partitions, tu_games, tux_games
from pfgames.random_partitions import PSTAR

from .corpus import prefix


@pytest.fixture
def showcase_path(tmp_path):
    path = tmp_path / "showcase.json"
    path.write_text(json.dumps(formats.tux_game_to_json(tux_games.productive_pair_game())))
    return str(path)


@pytest.fixture
def dirac_path(tmp_path):
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(formats.tu_game_to_json(tu_games.dirac_game([1, 2], [1]))))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mpw_pays_null_player_zero(capsys, showcase_path):
    code, out, _ = run(capsys, "mpw", "--game", showcase_path)
    assert code == 0
    payoffs = json.loads(out)["payoffs"]
    assert payoffs["1"] == "0"
    assert payoffs == {"1": "0", "2": "5/12", "3": "5/12", "4": "1/6"}


def test_restrict_then_query_cells(capsys, showcase_path):
    code, out, _ = run(
        capsys, "restrict", "--op", "rstar", "--remove", "4", "--game", showcase_path
    )
    assert code == 0
    cells = {
        (tuple(e["S"]), tuple(map(tuple, e["pi"]))): e["w"]
        for e in json.loads(out)["worth"]
    }
    assert cells[((1, 3), ((2,),))] == "1/2"
    assert cells[((3,), ((1, 2),))] == "1/3"


def test_restricted_game_reloads_equal(capsys, showcase_path, tmp_path):
    code, out, _ = run(
        capsys, "restrict", "--op", "rstar", "--remove", "4", "--game", showcase_path
    )
    assert code == 0
    path = tmp_path / "sub.json"
    path.write_text(out)
    from pfgames.restriction_ops import crp_restriction

    expected = crp_restriction().restrict(tux_games.productive_pair_game(), 4)
    assert formats.load_game(path) == expected


def test_verify_gen_failure_exits_one(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "gen", "--family", "ewens:1/2", "--nmax", "3"
    )
    assert code == 1
    report = json.loads(out.splitlines()[0])
    assert report["passed"] is False
    assert report["witness"]["players"] == [1, 2]
    assert report["witness"]["lhs"] == "2/3"


def test_verify_multiple_checks_emit_json_lines(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "gen",
        "--check",
        "ci",
        "--family",
        "pstar",
        "--nmax",
        "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_null_player_solutions(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "null-player", "--solution", "mpw", "--nmax", "3"
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "null-player",
        "--solution",
        "r-shapley:nullify",
        "--nmax",
        "2",
    )
    assert code == 1
    code, out, _ = run(
        capsys,
        "verify",
        "--check",
        "null-player",
        "--solution",
        "p-shapley:eps:4=1/24",
        "--nmax",
        "4",
    )
    assert code == 1


def test_verify_restriction_and_monotonicity(capsys):
    code, out, _ = run(
        capsys, "verify", "--check", "restriction", "--op", "rstar", "--nmax", "3"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--check", "monotonicity", "--family", "pstar", "--nmax", "3"
    )
    assert code == 0


def test_shapley_routes_agree(capsys, dirac_path):
    code, direct, _ = run(capsys, "shapley", "--game", dirac_path)
    assert code == 0
    code, crp, _ = run(capsys, "shapley", "--game", dirac_path, "--route", "crp")
    assert code == 0
    assert json.loads(direct) == json.loads(crp)
    assert json.loads(direct)["payoffs"]["1"] == "1/2"


def test_potential_command(capsys, dirac_path, showcase_path):
    code, out, _ = run(capsys, "potential", "--game", dirac_path)
    assert code == 0
    assert json.loads(out)["potential"] == "1/2"
    code, out, _ = run(capsys, "potential", "--game", showcase_path, "--op", "rstar")
    assert code == 0
    w = tux_games.productive_pair_game()
    assert Fraction(json.loads(out)["potential"]) == tux_games.expected_accumulated_worth(
        w, PSTAR
    )
    code, _, err = run(capsys, "potential", "--game", showcase_path)
    assert code == 2
    assert "--op" in err
    # a TU file with an operator is lifted; its potential is unchanged
    code, out, _ = run(capsys, "potential", "--game", dirac_path, "--op", "rstar")
    assert code == 0
    assert json.loads(out)["potential"] == "1/2"


def test_p_shapley_matches_mpw(capsys, showcase_path):
    code, out, _ = run(capsys, "p-shapley", "--game", showcase_path)
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "pstar"
    assert data["payoffs"]["1"] == "0"
    code, out, _ = run(
        capsys, "p-shapley", "--game", showcase_path, "--player", "2"
    )
    assert json.loads(out)["payoffs"] == {"2": "5/12"}


def test_aux_game_command(capsys, showcase_path):
    code, out, _ = run(capsys, "aux-game", "--op", "nullify", "--game", showcase_path)
    assert code == 0
    v = formats.tu_game_from_json(json.loads(out))
    assert v.worth(prefix(4)) == 1
    assert v.worth([1, 2]) == 0


def test_sample_is_deterministic(capsys, dirac_path):
    args = (
        "sample",
        "--game",
        dirac_path,
        "--target",
        "shapley",
        "--player",
        "1",
        "--samples",
        "500",
        "--seed",
        "42",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    data = json.loads(first)
    assert set(data) == {"mean", "std_error", "samples", "seed", "generator"}
    assert data["samples"] == 500
    assert data["seed"] == 42


def test_sample_refuses_more_samples_than_the_budget(capsys, dirac_path):
    code, out, err = run(capsys, "sample", "--game", dirac_path, "--target", "shapley",
                         "--player", "1", "--samples", str(cli.MAX_SAMPLES + 1))
    assert code == 2
    assert out == ""
    assert "--samples 10000001 exceeds the budget of 10000000 samples" in err


def test_enumerate_partitions_and_embedded(capsys):
    code, out, _ = run(capsys, "enumerate", "--players", "1,2")
    assert code == 0
    body = json.loads(out)
    assert [[1, 2]] in body["partitions"]
    assert len(body["partitions"]) == 2
    code, out, _ = run(capsys, "enumerate", "--players", "1,2", "--embedded")
    assert len(json.loads(out)["embedded"]) == 5


def test_table_family_spec_through_verify(capsys, tmp_path):
    table = {
        "n": 2,
        "entries": [
            {"partition": [[1, 2]], "prob": "1/2"},
            {"partition": [[1], [2]], "prob": "1/2"},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(
        capsys, "verify", "--check", "gen", "--family", f"table:{path}", "--nmax", "2"
    )
    assert code == 0
    # a table that skews the pair probability stops generating the potential
    table["entries"][0]["prob"] = "2/3"
    table["entries"][1]["prob"] = "1/3"
    path.write_text(json.dumps(table))
    code, out, _ = run(
        capsys, "verify", "--check", "gen", "--family", f"table:{path}", "--nmax", "2"
    )
    assert code == 1
    assert json.loads(out.splitlines()[0])["witness"]["lhs"] == "2/3"


def test_table_family_spec_validates_each_table_once(tmp_path, monkeypatch):
    validated = []
    validate = random_partitions._validate_view

    def counting(mask, view, label):
        if label.startswith("table:"):  # not the uniform CRP law's own memo
            validated.append(mask)
        return validate(mask, view, label)

    monkeypatch.setattr(random_partitions, "_validate_view", counting)
    pair = [{"partition": [[1, 2]], "prob": "1/2"}, {"partition": [[1], [2]], "prob": "1/2"}]
    lone = [{"partition": [[7]], "prob": "1"}]
    path = tmp_path / "family.json"
    path.write_text(json.dumps([{"n": 2, "entries": pair}, {"players": [7], "entries": lone}]))
    family = cli.parse_family(f"table:{path}")
    assert sorted(validated) == [partitions.mask_from([1, 2]), partitions.mask_from([7])]
    assert family.distribution(prefix(2)) == {
        formats.partition_from_lists([[1, 2]]): Fraction(1, 2),
        formats.partition_from_lists([[1], [2]]): Fraction(1, 2)}
    assert family.integer_distribution([7]) == (1, (1,))
    assert len(validated) == 2
    family.distribution(prefix(3))  # a player set without a table comes from the rule
    family.integer_distribution(prefix(3))
    assert validated[2:] == [prefix(3)]


def test_table_format(capsys, showcase_path, dirac_path):
    code, out, _ = run(capsys, "mpw", "--game", showcase_path, "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "player 1 0"
    code, out, _ = run(
        capsys, "potential", "--game", dirac_path, "--format", "table"
    )
    assert out.strip() == "potential 1/2"


def test_exact_output_is_byte_identical(capsys, showcase_path):
    code, first, _ = run(capsys, "mpw", "--game", showcase_path)
    code, second, _ = run(capsys, "mpw", "--game", showcase_path)
    assert first == second


def test_usage_errors_exit_two(capsys, tmp_path, showcase_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "mpw", "--game", str(bad))
    assert code == 2
    assert "bad.json" in err
    code, _, err = run(capsys, "p-shapley", "--game", showcase_path, "--family", "zeta:2")
    assert code == 2
    assert "zeta" in err
    code, _, err = run(capsys, "shapley", "--game", showcase_path)
    assert code == 2
    assert "externalities" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--check", "gen", "--family", "eps:x=1/2"], "'eps:x=1/2'"),
        (["verify", "--check", "gen", "--family", "eps:4=1/24,4=1/8"], "given twice"),
        (["verify", "--check", "gen", "--family", "eps:4=zz"], "'eps:4=zz'"),
        (["verify", "--check", "gen", "--family", "ewens:0"], "'ewens:0'"),
        (["p-shapley", "--game", "{game}", "--family", "eps:3=1/2"], "'eps:3=1/2'"),
        (["enumerate", "--players", "1,a"], "--players '1,a'"),
        (["restrict", "--game", "{game}", "--op", "rstar", "--remove", "1,a"], "--remove '1,a'"),
    ],
)
def test_spec_errors_exit_two_naming_the_spec_or_option(capsys, showcase_path, argv, named):
    argv = [arg.replace("{game}", showcase_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err


def test_huge_eps_cardinality_exits_two_naming_the_spec(capsys):
    spec = "eps:99999999999999999999=0"
    code, out, err = run(capsys, "verify", "--check", "ci", "--family", spec)
    assert code == 2
    assert out == ""
    assert repr(spec) in err


@pytest.mark.parametrize("table", [False, True], ids=["game", "family-table"])
def test_deeply_nested_json_exits_two_naming_the_file(capsys, tmp_path, showcase_path, table):
    path = tmp_path / "deep.json"
    path.write_text("[" * 1000 + "]" * 1000)
    if table:
        argv = ["p-shapley", "--game", showcase_path, "--family", f"table:{path}"]
    else:
        argv = ["mpw", "--game", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "deep.json" in err and "nested too deeply" in err


@pytest.mark.parametrize("n", [20, 32])
def test_oversized_tu_game_file_exits_two(capsys, monkeypatch, tmp_path, n):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"players": list(range(n)), "worth": {}}))

    def refuse(mask):
        raise AssertionError("a refused TU game must not be tabulated")

    monkeypatch.setattr(partitions, "subsets", refuse)
    code, out, err = run(capsys, "potential", "--game", str(path))
    assert code == 2
    assert out == ""
    assert "big.json" in err and f"{n} players" in err


def test_universe_bound_env_var(capsys, monkeypatch, showcase_path):
    monkeypatch.setenv(cli.ENV_UNIVERSE_BOUND, "3")
    old = partitions.universe_bound()
    try:
        code, _, err = run(capsys, "enumerate", "--players", "1,2,3,4")
        assert code == 2
        assert "universe bound" in err
    finally:
        partitions.set_universe_bound(old)


@pytest.mark.parametrize("bound", ["abc", "-1"])
def test_bad_universe_bound_env_var_exits_two(capsys, monkeypatch, showcase_path, bound):
    monkeypatch.setenv(cli.ENV_UNIVERSE_BOUND, bound)
    old = partitions.universe_bound()
    try:
        code, out, err = run(capsys, "mpw", "--game", showcase_path)
    finally:
        partitions.set_universe_bound(old)
    assert code == 2
    assert out == ""
    assert cli.ENV_UNIVERSE_BOUND in err and repr(bound) in err


def test_main_restores_the_universe_bound(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_UNIVERSE_BOUND, "5")
    before = partitions.universe_bound()
    code, _, _ = run(capsys, "enumerate", "--players", "1,2")
    assert code == 0
    assert partitions.universe_bound() == before


@pytest.mark.parametrize("bound", ["11", "20", "1000000000"])
def test_explosive_universe_bound_env_var_exits_two(capsys, monkeypatch, bound):
    monkeypatch.setenv(cli.ENV_UNIVERSE_BOUND, bound)
    before = partitions.universe_bound()
    code, out, err = run(capsys, "enumerate", "--players", "1,2")
    assert code == 2
    assert out == ""
    assert cli.ENV_UNIVERSE_BOUND in err and "embedded coalitions" in err
    assert partitions.universe_bound() == before


@pytest.mark.parametrize("entry", [7, {"S": ["a"], "pi": [[2, 3, 4]], "w": "1"}])
def test_malformed_worth_entry_exits_two(capsys, tmp_path, entry):
    data = formats.tux_game_to_json(tux_games.productive_pair_game())
    data["worth"].append(entry)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "mpw", "--game", str(path))
    assert code == 2
    assert "malformed.json" in err
    assert f"worth entry #{len(data['worth']) - 1}" in err


@pytest.mark.parametrize(
    "table, where",
    [
        ([3], "table #0"),
        ({"n": 2, "entries": [{"partition": [[1, 2]], "prob": "1"}, 5]}, "entry #1"),
        ({"n": [2], "entries": []}, "table #0"),
        ({"n": True, "entries": []}, "table #0"),
        ({"n": 2, "entries": [{"partition": [3], "prob": "1"}]}, "entry #0"),
    ],
)
def test_malformed_family_table_exits_two(capsys, tmp_path, table, where):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(table))
    code, _, err = run(
        capsys, "verify", "--check", "gen", "--family", f"table:{path}", "--nmax", "2"
    )
    assert code == 2
    assert "family.json" in err and where in err


def test_family_table_naming_two_player_sets_exits_two(capsys, tmp_path):
    """A table on players 1, 2 that also says n = 3 is neither; it is refused
    rather than judged on one of them."""
    path = tmp_path / "family.json"
    table = {"players": [1, 2], "n": 3, "entries": [{"partition": [[1, 2]], "prob": "1"}]}
    path.write_text(json.dumps(table))
    code, out, err = run(
        capsys, "verify", "--check", "pos", "--family", f"table:{path}", "--nmax", "3"
    )
    assert (code, out) == (2, "")
    assert "family.json" in err and "table #0" in err and "'n' 3" in err


def test_misspelled_game_key_exits_two_naming_the_file_and_the_key(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"players": [1, 2], "worths": {"[1,2]": 3}}))
    code, out, err = run(capsys, "shapley", "--game", str(path))
    assert (code, out) == (2, "")
    assert "typo.json" in err and "'worths'" in err


def test_misspelled_family_table_key_exits_two_naming_the_file_and_the_key(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 2, "entires": []}))
    code, out, err = run(
        capsys, "verify", "--check", "gen", "--family", f"table:{path}", "--nmax", "2"
    )
    assert (code, out) == (2, "")
    assert "family.json" in err and "'entires'" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_verify_flag_requirements(capsys):
    code, _, err = run(capsys, "verify", "--check", "gen", "--nmax", "2")
    assert code == 2
    assert "--family" in err
    code, _, err = run(capsys, "verify", "--check", "restriction", "--nmax", "2")
    assert code == 2
    assert "--op" in err
    code, _, err = run(capsys, "verify", "--check", "null-player", "--nmax", "2")
    assert code == 2
    assert "--solution" in err


def test_aux_game_with_probability_operator(capsys, showcase_path):
    code, out, _ = run(capsys, "aux-game", "--op", "rp:pstar", "--game", showcase_path)
    assert code == 0
    from pfgames.restriction_ops import probability_restriction
    from pfgames.random_partitions import PSTAR

    expected = probability_restriction(PSTAR).auxiliary_game(
        tux_games.productive_pair_game()
    )
    assert formats.tu_game_from_json(json.loads(out)) == expected


def test_sample_mpw_on_tu_game_file(capsys, dirac_path):
    code, out, _ = run(
        capsys,
        "sample",
        "--game",
        dirac_path,
        "--target",
        "mpw",
        "--player",
        "1",
        "--samples",
        "400",
        "--seed",
        "3",
    )
    assert code == 0
    assert json.loads(out)["samples"] == 400


def test_bad_seed_exits_two_naming_the_seed(capsys, showcase_path):
    code, out, err = run(capsys, "sample", "--game", showcase_path, "--target", "mpw",
                         "--player", "1", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("target", ["shapley", "mpw"])
def test_negative_player_exits_two_naming_the_player(capsys, dirac_path, target):
    code, out, err = run(capsys, "sample", "--game", dirac_path, "--target", target,
                         "--player", "-1", "--samples", "10")
    assert (code, out) == (2, "")
    assert err == "pfgames: error: player id -1 outside supported range 0..31\n"


def test_game_kind_refusals_keep_their_messages(capsys, showcase_path):
    code, _, err = run(capsys, "shapley", "--game", showcase_path)
    assert (code, err) == (2, f"pfgames: error: {showcase_path}: this command needs a TU "
                              "game, and the partition function has externalities\n")
    code, _, err = run(capsys, "potential", "--game", showcase_path)
    assert (code, err) == (2, "pfgames: error: a game with externalities needs --op to fix "
                              "its subgames\n")
    code, _, err = run(capsys, "sample", "--game", showcase_path, "--target", "shapley",
                       "--player", "1")
    assert (code, err) == (2, "pfgames: error: shapley target needs a TU game; this one "
                              "has externalities\n")
