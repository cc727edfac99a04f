"""JSON-friendly encodings: rationals as "p/q" strings, partitions as nested
arrays, and file formats for games and family tables."""

from __future__ import annotations

import json
from fractions import Fraction

from . import partitions, random_partitions
from .partitions import Coalition, Partition
from .random_partitions import RandomPartitionFamily
from .tu_games import TuGame
from .tux_games import TuxGame


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


# Python's default limit on int-string conversions; a literal whose value
# could need more digits is refused before any integer is built
MAX_RATIONAL_DIGITS = 4300


def _literal_digits(text: str) -> int:
    """An upper bound on the digits of the integers a rational literal
    denotes: its digit count plus the size of its exponent."""
    mantissa, e, exponent = text.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and exponent.isdecimal():
        if len(exponent) > len(str(MAX_RATIONAL_DIGITS)):
            return MAX_RATIONAL_DIGITS + 1
        digits += int(exponent)
    return digits


def parse_rational(value) -> Fraction:
    """Parse "p/q" or an integer; floats are rejected to keep arithmetic exact,
    and literals past MAX_RATIONAL_DIGITS digits to keep it fast."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ValueError(f"expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _literal_digits(value) > MAX_RATIONAL_DIGITS:
            shown = value if len(value) <= 40 else value[:37] + "..."
            raise ValueError(f"rational {shown!r} has more than {MAX_RATIONAL_DIGITS} digits")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"expected an exact rational, got {value!r}")


def coalition_to_list(mask: Coalition) -> list[int]:
    return list(partitions.members(mask))


def coalition_from_list(data) -> Coalition:
    if not isinstance(data, (list, tuple)) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in data
    ):
        raise ValueError(f"expected a list of player ids, got {data!r}")
    return partitions.mask_from(data)


def partition_to_lists(pi: Partition) -> list[list[int]]:
    return [coalition_to_list(block) for block in pi]


def partition_from_lists(data) -> Partition:
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"expected a list of blocks, got {data!r}")
    return partitions.canonical_partition(coalition_from_list(block) for block in data)


def payoff_to_json(payoff) -> dict[str, str]:
    return {str(i): format_rational(x) for i, x in sorted(payoff.items())}


GAME_KEYS = ("players", "worth")
TABLE_KEYS = ("players", "n", "entries")


def _refuse_unknown_keys(data: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelled key would read as an absent one, so any key outside
    ``known`` is refused."""
    for key in data:
        if key not in known:
            names = ", ".join(map(repr, known[:-1])) + f" and {known[-1]!r}"
            raise ValueError(f"{where}: unknown key {key!r}; expected only {names}")


# --- TU games: {"players": [1,2,3], "worth": {"[1,2]": "3/2", ...}} ---


def tu_game_to_json(v: TuGame) -> dict:
    worth = {
        json.dumps(coalition_to_list(S), separators=(",", ":")): format_rational(x)
        for S, x in sorted(v.nonzero_worths().items())
    }
    return {"players": coalition_to_list(v.players), "worth": worth}


def tu_game_from_json(data) -> TuGame:
    _refuse_unknown_keys(data, GAME_KEYS, "game")
    players = coalition_from_list(data.get("players", []))
    worth = {}
    for key, raw in data.get("worth", {}).items():
        try:
            ids = json.loads(key)
        except ValueError as exc:
            raise ValueError(f"worth key {key!r} is not a JSON list of ids") from exc
        try:
            worth[coalition_from_list(ids)] = parse_rational(raw)
        except ValueError as exc:
            raise ValueError(f"worth key {key!r}: {exc}") from exc
    return TuGame(players, worth)


# --- TUX games: {"players": [...], "worth": [{"S": .., "pi": .., "w": ..}]} ---


def tux_game_to_json(w: TuxGame) -> dict:
    entries = [
        {
            "S": coalition_to_list(S),
            "pi": partition_to_lists(pi),
            "w": format_rational(x),
        }
        for (S, pi), x in w.cells()
        if S != 0
    ]
    return {"players": coalition_to_list(w.players), "worth": entries}


def tux_game_from_json(data) -> TuxGame:
    _refuse_unknown_keys(data, GAME_KEYS, "game")
    players = coalition_from_list(data.get("players", []))
    worth = {}
    for pos, entry in enumerate(data.get("worth", [])):
        try:
            key = (
                coalition_from_list(entry["S"]),
                partition_from_lists(entry["pi"]),
            )
            worth[key] = parse_rational(entry["w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"worth entry #{pos}: {exc}") from exc
    # empty-coalition cells are implied; the constructor checks full coverage
    worth = {key: x for key, x in worth.items() if key[0] != 0 or x != 0}
    return TuxGame(players, worth)


def game_to_json(game) -> dict:
    if isinstance(game, TuGame):
        return tu_game_to_json(game)
    if isinstance(game, TuxGame):
        return tux_game_to_json(game)
    raise ValueError(f"not a game: {game!r}")


def game_from_json(data):
    """Load a TU or partition-function game, telling them apart by shape."""
    if not isinstance(data, dict) or "players" not in data:
        raise ValueError("a game file must be a JSON object with a 'players' key")
    worth = data.get("worth", {})
    if isinstance(worth, dict):
        return tu_game_from_json(data)
    if isinstance(worth, list):
        return tux_game_from_json(data)
    raise ValueError("'worth' must be an object (TU) or an array (partition function)")


def _load_json(path, parse):
    """``parse`` applied to a JSON file; every error names the file."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ValueError(f"{path}: {exc}") from None
    try:
        return parse(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_game(path):
    return _load_json(path, game_from_json)


# --- family tables: {"n": 4, "entries": [{"partition": .., "prob": ..}]} ---


def family_table_from_json(data, label="table") -> RandomPartitionFamily:
    """Build a family from explicit tables, falling back to pstar elsewhere.

    Accepts a single table object or a list of them. A table names its player
    set either explicitly ("players": [...]) or by cardinality ("n": 4,
    meaning players 1..n); a table naming both must name the same set.
    Distribution invariants are enforced here, once.
    """
    tables = {}
    items = data if isinstance(data, list) else [data]
    for pos, table in enumerate(items):
        if not isinstance(table, dict):
            raise ValueError(f"table #{pos}: expected an object, got {table!r}")
        _refuse_unknown_keys(table, TABLE_KEYS, f"table #{pos}")
        n = table.get("n")
        if "n" in table and (type(n) is not int or n < 0):  # not bool
            raise ValueError(f"table #{pos}: 'n' must be an integer >= 0, got {n!r}")
        if "players" in table:
            players = coalition_from_list(table["players"])
            if "n" in table and players != partitions.mask_from(range(1, n + 1)):
                raise ValueError(f"table #{pos}: 'players' and 'n' {n} name different "
                                 "player sets")
        elif "n" in table:
            players = partitions.mask_from(range(1, n + 1))
        else:
            raise ValueError(f"table #{pos}: needs a 'players' list or an integer 'n'")
        if not isinstance(table.get("entries", []), list):
            raise ValueError(f"table #{pos}: 'entries' must be an array")
        dist = {}
        for entry_pos, entry in enumerate(table.get("entries", [])):
            try:
                pi = partition_from_lists(entry["partition"])
                dist[pi] = parse_rational(entry["prob"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"table #{pos}, entry #{entry_pos}: {exc}") from exc
        tables[players] = dist
    return random_partitions.family_from_distributions(label, tables)


def load_family_table(path) -> RandomPartitionFamily:
    return _load_json(path, lambda data: family_table_from_json(data, f"table:{path}"))
