"""Malformed input never escapes as anything but ValueError (exit 2 in the CLI)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from pfgames import cli, formats, tu_games

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
ids = st.lists(st.integers(min_value=-1, max_value=6), max_size=4)
blocks = st.lists(ids, max_size=3)
rationals = st.sampled_from(["1/2", "0", "-1", "1/0", "x", 1, 0.5, True])
cells = st.fixed_dictionaries(
    {"S": ids | json_values, "pi": blocks | json_values, "w": rationals | json_values}
)
games = st.fixed_dictionaries(
    {"players": ids | json_values},
    optional={
        "worth": st.lists(cells | json_values, max_size=4)
        | st.dictionaries(
            st.sampled_from(["[]", "[1]", "[1,2]", "[9]", "5", "x"]),
            rationals | json_values,
            max_size=3,
        )
        | json_values
    },
)
entries = st.fixed_dictionaries(
    {"partition": blocks | json_values, "prob": rationals | json_values}
)
tables = st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(min_value=-2, max_value=4) | json_values,
        "players": ids | json_values,
        "entries": st.lists(entries | json_values, max_size=4) | json_values,
    },
)
documents = json_values | games | tables | st.lists(tables | json_values, max_size=2)

FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def loads_or_refuses(load, data):
    try:
        load(data)
    except ValueError:
        pass


@FUZZ
@given(documents)
def test_loaders_load_or_raise_value_error(data):
    loads_or_refuses(formats.game_from_json, data)
    loads_or_refuses(formats.family_table_from_json, data)


@FUZZ
@given(documents)
def test_cli_exits_zero_or_two_on_any_json_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        game = Path(tmp) / "game.json"
        game.write_text(json.dumps(formats.tu_game_to_json(tu_games.dirac_game([1, 2], [1]))))
        for argv in (
            ["mpw", "--game", str(path)],
            ["p-shapley", "--game", str(game), "--family", f"table:{path}"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert cli.main(argv) in (0, 2)


def test_an_empty_table_list_exits_two_naming_the_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    game = tmp_path / "game.json"
    game.write_text(json.dumps(formats.tu_game_to_json(tu_games.dirac_game([1, 2], [1]))))
    for argv in (
        ["verify", "--check", "null-player", "--solution", f"p-shapley:table:{path}",
         "--nmax", "5"],
        ["verify", "--check", "gen", "--family", f"table:{path}"],
        ["p-shapley", "--game", str(game), "--family", f"table:{path}"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv) == 2, argv
        assert "empty.json" in err.getvalue(), argv
