"""Exact outputs pinned byte for byte in ``tests/data/exact_outputs.json``.

Covers every exact solution route on seeded games (MPW, p-Shapley, operator
auxiliary games, potentials and values, the three TU potential routes, both
Shapley routes and the expected accumulated worth), the game builders
(``restrict_many``, average games, the lift and its externality-free TU
game, sums and scalar multiples), the gen, restriction and null-player
reports at nmax 3 (one more at nmax 4), and the gen, ci, pos and
monotonicity reports at nmax 5, in the JSON encodings of ``formats``. A
change of representation must leave every byte of this file unchanged.

Regenerate (only when an output is meant to change) from the repository root:

    PYTHONPATH=src python -m tests.exact_outputs > tests/data/exact_outputs.json
"""

import json
import random
import sys
from fractions import Fraction

from pfgames import cli, formats, partitions, tu_games, tux_games, verify
from pfgames.restriction_ops import RestrictionOperator

FAMILIES = ("pstar", "ewens:1/2", "eps:4=1/24")
AVERAGE_FAMILIES = ("ewens:1/2", "eps:4=1/24")
RESTRICTED = ("rstar", "rp:pstar", "biased")
OPERATORS = ("rstar", "rp:pstar", "nullify", "biased")
SOLUTIONS = ("mpw", "p-shapley:pstar", "p-shapley:eps:4=1/24", "r-shapley:rstar",
             "r-shapley:nullify")
# a large prime denominator next to small ones, so one common denominator is wide
WIDE = Fraction(1, 10**12 + 39)


def _worth(rng):
    pick = rng.random()
    if pick < 0.15:
        return Fraction(0)
    if pick < 0.25:
        return rng.choice((1, -1)) * WIDE * rng.randint(1, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _prefix(n):
    return partitions.mask_from(range(1, n + 1))


def tux_games_by_name():
    rng = random.Random(20240607)
    games = {"showcase": tux_games.productive_pair_game()}
    for n in range(1, 6):
        mask = _prefix(n)
        games[f"tux{n}"] = tux_games.TuxGame(
            mask, {cell: _worth(rng) for cell in partitions.enumerate_embedded(mask) if cell[0]}
        )
    return games


def tu_games_by_name():
    rng = random.Random(19890503)
    games = {}
    for n in range(0, 6):
        mask = _prefix(n)
        games[f"tu{n}"] = tu_games.TuGame(
            mask, {S: _worth(rng) for S in partitions.subsets(mask) if S}
        )
    return games


def _copy_grand(w, i, S, pi):
    return w.worth(w.players, ()) if S else 0


def _clipped(w, i, S, pi):
    return max(w.worth(S, partitions.insert_player(pi, i, 0)), 0)


def _two_faced(w, i, S, pi):
    # linear on forms, but doubled there: the LIN probe sees the mismatch
    worth = w.worth(S, partitions.insert_player(pi, i, 0))
    return worth if isinstance(w, tux_games.TuxGame) else 2 * worth


def _null_mover(w, i, S, pi):
    worth = w.worth(S, partitions.insert_player(pi, i, 0))
    null = isinstance(w, tux_games.TuxGame) and w == tux_games.null_game(w.players)
    return worth + 1 if null else worth


def _spread(w, i, S, pi):
    # once pi is nonempty, reads two inadmissible cells, the later one in
    # enumerate_embedded order first: the RES witness follows the read order
    own = w.worth(S, partitions.insert_player(pi, i, 0))
    return w.worth(w.players, ()) + w.worth(S | 1 << i, pi) + own if pi else own


def outputs() -> dict:
    rational = formats.format_rational
    payoff = formats.payoff_to_json
    out = {}
    tux = tux_games_by_name()
    for name, w in tux.items():
        entry = {"mpw": payoff(tux_games.mpw_value(w)),
                 "w+w": formats.tux_game_to_json(w + w),
                 "3w-w": formats.tux_game_to_json(3 * w - w)}
        for spec in AVERAGE_FAMILIES:
            entry[f"average-game {spec}"] = formats.tu_game_to_json(
                tux_games.average_game(w, cli.parse_family(spec)))
        if name in ("tux3", "tux4"):
            for spec in RESTRICTED:
                op = cli.parse_operator(spec)
                for removed in ([1], [1, 3]):
                    entry[f"restrict-many {spec} {removed}"] = formats.tux_game_to_json(
                        op.restrict_many(w, removed))
        for spec in FAMILIES:
            family = cli.parse_family(spec)
            entry[f"p-shapley {spec}"] = payoff(tux_games.p_shapley_vector(w, family))
            entry[f"expected-worth {spec}"] = rational(
                tux_games.expected_accumulated_worth(w, family))
        if w.n <= 4 or name == "tux5":
            for spec in OPERATORS:
                op = cli.parse_operator(spec)
                entry[f"aux-game {spec}"] = formats.tu_game_to_json(op.auxiliary_game(w))
                entry[f"potential {spec}"] = rational(op.potential(w))
                entry[f"r-shapley {spec}"] = payoff(op.shapley_value(w))
        out[name] = entry
    for name, v in tu_games_by_name().items():
        out[name] = {
            "potential": rational(tu_games.potential(v)),
            "potential-size-weights": rational(tu_games.potential_via_size_weights(v)),
            "potential-random-partition": rational(tu_games.potential_via_random_partition(v)),
            "shapley": payoff(tu_games.shapley_value(v)),
            "shapley-crp": payoff(tu_games.shapley_via_crp(v)),
            "expected-worth-lifted": rational(tux_games.expected_accumulated_worth(
                tux_games.lift_tu_game(v), cli.parse_family("pstar"))),
            "externality-free-lifted": formats.tu_game_to_json(
                tux_games.externality_free_tu(tux_games.lift_tu_game(v))),
        }
    reports = {}
    for spec in FAMILIES:
        reports[f"gen {spec}"] = verify.check_gen(cli.parse_family(spec), 3).to_json()
        for check, fn in (("gen", verify.check_gen), ("ci", verify.check_ci),
                          ("pos", verify.check_pos),
                          ("monotonicity", verify.check_monotonicity_conditions)):
            reports[f"{check} {spec} nmax=5"] = fn(cli.parse_family(spec), 5).to_json()
    operators = {spec: cli.parse_operator(spec) for spec in OPERATORS}
    operators["copy-grand"] = RestrictionOperator("copy-grand", _copy_grand)
    operators["clipped"] = RestrictionOperator("clipped", _clipped)
    for spec, op in operators.items():
        reports[f"restriction {spec}"] = verify.check_restriction_axioms(op, 3).to_json()
    operators["two-faced"] = RestrictionOperator("two-faced", _two_faced)
    operators["null-mover"] = RestrictionOperator("null-mover", _null_mover)
    operators["spread"] = RestrictionOperator("spread", _spread)
    for spec, op in operators.items():
        if spec not in ("copy-grand", "clipped"):
            reports[f"restriction {spec} nmax=4"] = verify.check_restriction_axioms(
                op, 4).to_json()
    for spec in SOLUTIONS:
        solution, label = cli.parse_solution(spec)
        reports[f"null-player {spec}"] = verify.check_null_player_axiom(
            solution, 3, label).to_json()
    # the perturbed family deviates from pstar on four players, so it pays a null player
    solution, label = cli.parse_solution("p-shapley:eps:4=1/24")
    reports["null-player p-shapley:eps:4=1/24 nmax=4"] = verify.check_null_player_axiom(
        solution, 4, label).to_json()
    out["reports"] = reports
    return out


def dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(outputs()))
