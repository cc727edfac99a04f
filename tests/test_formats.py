import json
import time
from fractions import Fraction

import pytest

from pfgames import cli, formats, partitions, tu_games, tux_games
from pfgames.random_partitions import PSTAR

from .corpus import prefix, random_tu_game, random_tux_game


def test_rational_round_trip():
    for x in (Fraction(1, 24), Fraction(-1, 3), Fraction(7), Fraction(0)):
        assert formats.parse_rational(formats.format_rational(x)) == x
    assert formats.format_rational(Fraction(3, 2)) == "3/2"
    assert formats.format_rational(Fraction(4)) == "4"
    assert formats.parse_rational(5) == 5
    assert formats.parse_rational("-1/24") == Fraction(-1, 24)


def test_rational_parse_rejects_junk():
    with pytest.raises(ValueError):
        formats.parse_rational("1/0")
    with pytest.raises(ValueError):
        formats.parse_rational("eleven")
    with pytest.raises(ValueError):
        formats.parse_rational(0.5)
    with pytest.raises(ValueError):
        formats.parse_rational(True)


@pytest.mark.parametrize("literal", [
    "1e10000000", "-3/4E-10000000", "1e" + "9" * 5000, "1" * 4301, "1/" + "7" * 4301,
    "0." + "0" * 4300 + "1", "1e4301",
])
def test_rational_parse_refuses_huge_literals_before_building_them(literal):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 4300 digits"):
        formats.parse_rational(literal)
    assert time.perf_counter() - start < 1


def test_rational_parse_admits_literals_up_to_the_digit_limit():
    assert formats.parse_rational("1e4299") == 10**4299
    assert formats.parse_rational("-2e-4299") == Fraction(-2, 10**4299)
    assert formats.parse_rational("1" * 4300) == int("1" * 4300)
    assert formats.parse_rational(" 1_000e0_3 ") == 10**6
    assert formats.parse_rational("1e00000000000000000000002") == 100


def _cli_refusal(capsys, argv):
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert elapsed < 1
    return captured.err


def test_huge_rational_in_a_family_spec_exits_two_naming_the_spec(capsys):
    err = _cli_refusal(capsys, ["verify", "--check", "gen", "--family", "ewens:1e10000000"])
    assert "family spec 'ewens:1e10000000'" in err and "more than 4300 digits" in err
    err = _cli_refusal(capsys, ["verify", "--check", "ci", "--family", "eps:4=1e-10000000"])
    assert "family spec 'eps:4=1e-10000000'" in err and "more than 4300 digits" in err


def test_huge_rational_in_a_file_exits_two_naming_the_file_and_entry(capsys, tmp_path):
    tux = formats.tux_game_to_json(tux_games.productive_pair_game())
    tux["worth"][3]["w"] = "1e10000000"
    tu = {"players": [1, 2], "worth": {"[1]": "1/2", "[1,2]": "-1e10000000"}}
    table = {"n": 2, "entries": [{"partition": [[1, 2]], "prob": "1e-10000000"}]}
    game = tmp_path / "dirac.json"
    game.write_text(json.dumps(formats.tu_game_to_json(tu_games.dirac_game([1, 2], [1]))))
    for data, name, where, argv in [
        (tux, "tux.json", "worth entry #3", ["mpw", "--game", "{path}"]),
        (tu, "tu.json", "worth key '[1,2]'", ["shapley", "--game", "{path}"]),
        (table, "table.json", "table #0, entry #0",
         ["p-shapley", "--game", str(game), "--family", "table:{path}"]),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        err = _cli_refusal(capsys, [arg.replace("{path}", str(path)) for arg in argv])
        assert name in err and where in err and "more than 4300 digits" in err


def test_oversized_json_integer_exits_two_naming_the_file(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"players": [1], "worth": {"[1]": ' + "7" * 5000 + "}}")
    err = _cli_refusal(capsys, ["shapley", "--game", str(path)])
    assert "digits.json" in err


def test_partition_encoding():
    pi = formats.partition_from_lists([[3], [1, 2]])
    assert formats.partition_to_lists(pi) == [[1, 2], [3]]
    assert formats.partition_from_lists([[1, 2], [3]]) == pi
    with pytest.raises(ValueError):
        formats.partition_from_lists([[1], [1, 2]])


def test_tu_game_json_round_trip():
    import random

    v = random_tu_game(prefix(3), random.Random(8))
    data = formats.tu_game_to_json(v)
    assert formats.tu_game_from_json(json.loads(json.dumps(data))) == v


def test_tu_game_json_defaults_omitted_to_zero():
    data = {"players": [1, 2, 3], "worth": {"[1,2]": "3/2"}}
    v = formats.tu_game_from_json(data)
    assert v.worth([1, 2]) == Fraction(3, 2)
    assert v.worth([1, 3]) == 0


def test_tu_game_json_bad_key():
    with pytest.raises(ValueError):
        formats.tu_game_from_json({"players": [1], "worth": {"oops": "1"}})


def test_tux_game_json_round_trip():
    import random

    w = random_tux_game(prefix(3), random.Random(9))
    data = formats.tux_game_to_json(w)
    assert formats.tux_game_from_json(json.loads(json.dumps(data))) == w


def test_tux_game_json_requires_full_coverage():
    w = tux_games.productive_pair_game()
    data = formats.tux_game_to_json(w)
    del data["worth"][0]
    with pytest.raises(ValueError):
        formats.tux_game_from_json(data)


def test_tux_game_json_reports_entry_position():
    data = {
        "players": [1, 2],
        "worth": [{"S": [1], "pi": [[2]], "w": "nope"}],
    }
    with pytest.raises(ValueError, match="entry #0"):
        formats.tux_game_from_json(data)


def test_game_from_json_dispatches_on_shape():
    tu = formats.game_from_json({"players": [1], "worth": {}})
    assert isinstance(tu, tu_games.TuGame)
    tux = formats.game_from_json({"players": [1], "worth": [{"S": [1], "pi": [], "w": "1"}]})
    assert isinstance(tux, tux_games.TuxGame)
    with pytest.raises(ValueError):
        formats.game_from_json({"worth": {}})
    with pytest.raises(ValueError):
        formats.game_from_json({"players": [1], "worth": "nope"})


@pytest.mark.parametrize("data", [
    {"players": [1, 2], "worths": {"[1,2]": "3"}},
    {"players": [1, 2], "worth": {}, "comment": "zero game"},
    {"players": [1], "worth": [{"S": [1], "pi": [], "w": "1"}], "Worth": []},
])
def test_game_with_an_unknown_key_is_refused_naming_the_key(data):
    """A misspelled key must not load as a game whose worths are all zero."""
    key = next(k for k in data if k not in ("players", "worth"))
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        formats.game_from_json(data)


@pytest.mark.parametrize("table, pos", [
    ({"n": 1, "entries": [{"partition": [[1]], "prob": "1"}], "label": "mine"}, 0),
    ([{"n": 1, "entries": [{"partition": [[1]], "prob": "1"}]},
      {"players": [1, 2], "entry": []}], 1),
])
def test_family_table_with_an_unknown_key_is_refused_naming_the_key(table, pos):
    with pytest.raises(ValueError, match=f"table #{pos}: unknown key"):
        formats.family_table_from_json(table)


def test_load_game_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="broken.json"):
        formats.load_game(path)


def test_family_table_round_trip(tmp_path):
    N = prefix(3)
    table = {
        "players": [1, 2, 3],
        "entries": [
            {
                "partition": formats.partition_to_lists(pi),
                "prob": formats.format_rational(p),
            }
            for pi, p in PSTAR.distribution(N).items()
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(table))
    family = formats.load_family_table(path)
    assert family.distribution(N) == PSTAR.distribution(N)
    assert family.explicit_player_sets == frozenset({N})


def test_family_table_accepts_cardinality_shorthand():
    table = {
        "n": 2,
        "entries": [
            {"partition": [[1, 2]], "prob": "1/3"},
            {"partition": [[1], [2]], "prob": "2/3"},
        ],
    }
    family = formats.family_table_from_json(table)
    assert family.prob([1, 2], (partitions.mask_from([1, 2]),)) == Fraction(1, 3)


def test_family_table_validated_at_load_time():
    table = {
        "n": 2,
        "entries": [
            {"partition": [[1, 2]], "prob": "1/3"},
            {"partition": [[1], [2]], "prob": "1/3"},
        ],
    }
    with pytest.raises(ValueError, match="sums"):
        formats.family_table_from_json(table)


@pytest.mark.parametrize("table", [
    {"players": [1, 2], "n": 3, "entries": [{"partition": [[1, 2]], "prob": "1"}]},
    {"players": [0, 1], "n": 2, "entries": [{"partition": [[0, 1]], "prob": "1"}]},
    [{"n": 1, "entries": []}, {"players": [1, 2, 3], "n": 2, "entries": []}],
])
def test_family_table_naming_two_player_sets_is_refused(table):
    pos = 1 if isinstance(table, list) else 0
    with pytest.raises(ValueError, match=f"table #{pos}: 'players' and 'n'"):
        formats.family_table_from_json(table)


@pytest.mark.parametrize("n", [[2], True, "2"])
def test_family_table_with_players_and_a_non_integer_n_is_refused(n):
    with pytest.raises(ValueError, match="table #0: 'n' must be an integer"):
        formats.family_table_from_json({"players": [1, 2], "n": n, "entries": []})


def test_family_table_with_a_negative_n_exits_two_naming_the_table(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": -2, "entries": []}))
    err = _cli_refusal(capsys, ["verify", "--check", "gen", "--family", f"table:{path}"])
    assert "family.json" in err and "table #0: 'n'" in err and "-2" in err


def test_family_table_on_no_players_is_accepted():
    family = formats.family_table_from_json({"n": 0, "entries": [{"partition": [], "prob": "1"}]})
    assert family.explicit_player_sets == frozenset({0})
    assert family.integer_distribution(0) == (1, (1,))


def test_family_table_may_name_its_players_twice_when_they_agree():
    entries = [{"partition": [[1, 2]], "prob": "1/3"}, {"partition": [[1], [2]], "prob": "2/3"}]
    both = formats.family_table_from_json({"players": [1, 2], "n": 2, "entries": entries})
    one = formats.family_table_from_json({"n": 2, "entries": entries})
    assert both.distribution(prefix(2)) == one.distribution(prefix(2))
    assert both.explicit_player_sets == frozenset({prefix(2)})


def test_family_table_needs_a_player_set():
    with pytest.raises(ValueError, match="players"):
        formats.family_table_from_json({"entries": []})


def test_load_family_table_reports_path(tmp_path):
    path = tmp_path / "family.json"
    path.write_text("[1, 2,")
    with pytest.raises(ValueError, match="family.json"):
        formats.load_family_table(path)


@pytest.mark.parametrize("load", [formats.load_game, formats.load_family_table])
def test_deeply_nested_json_is_a_value_error_naming_the_file(tmp_path, load):
    path = tmp_path / "deep.json"
    path.write_text("[" * 1000 + "]" * 1000)
    with pytest.raises(ValueError, match="deep.json.*nested too deeply"):
        load(path)


def test_payoff_encoding():
    payoff = {2: Fraction(1, 3), 1: Fraction(0)}
    assert formats.payoff_to_json(payoff) == {"1": "0", "2": "1/3"}
