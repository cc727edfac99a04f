"""Command-line front end.

Subcommands: shapley, potential, mpw, p-shapley, restrict, aux-game, verify,
sample, enumerate. Games and family tables are JSON files; exact rationals
are printed as "p/q" strings unless --float asks for decimals. Exit status:
0 on success, 1 when a requested verify check fails, 2 on usage or domain
errors.

Families are spelled "pstar", "ewens:<p/q>", "eps:<k=p/q,...>", or
"table:<path>"; operators "rstar", "rp:<family>", "nullify", or "biased";
solutions "mpw", "p-shapley:<family>", or "r-shapley:<operator>".
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import formats, partitions, random_partitions, tu_games, tux_games

ENV_UNIVERSE_BOUND = "PFGAMES_UNIVERSE_BOUND"
# 10^6 mpw samples at 8 players take about 1 s through the CLI, 0.25 s of it
# drawing (2 cores, Python 3.11), so this budget is a few seconds
MAX_SAMPLES = 10**7


def parse_family(spec: str) -> random_partitions.RandomPartitionFamily:
    if spec == "pstar":
        return random_partitions.PSTAR
    if spec.startswith("table:"):
        return formats.load_family_table(spec[6:])
    try:
        if spec.startswith("ewens:"):
            return random_partitions.ewens_family(formats.parse_rational(spec[6:]))
        if spec.startswith("eps:"):
            values = {}
            for piece in spec[4:].split(","):
                k, eq, eps = piece.partition("=")
                if not eq or not k.strip().isdecimal():
                    raise ValueError(f"bad eps entry {piece!r}; expected k=p/q with an integer k")
                k = int(k)
                if k in values:
                    raise ValueError(f"eps_{k} is given twice")
                values[k] = formats.parse_rational(eps)
            return random_partitions.perturbed_family(values)
    except ValueError as exc:
        raise ValueError(f"family spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown family spec {spec!r}")


def parse_operator(spec: str) -> restriction_ops.RestrictionOperator:
    from . import restriction_ops  # only the commands that take an operator load it

    if spec == "rstar":
        return restriction_ops.crp_restriction()
    if spec == "nullify":
        return restriction_ops.nullifying_restriction()
    if spec == "biased":
        return restriction_ops.removal_biased_restriction()
    if spec.startswith("rp:"):
        return restriction_ops.probability_restriction(parse_family(spec[3:]))
    raise ValueError(f"unknown operator spec {spec!r}")


def _carrying(solution, linear_map):
    """A callable running ``solution`` that carries ``linear_map``, its exact
    map from worth cells to the TU game it takes the Shapley value of; the
    null-player check reads the map (``verify.check_null_player_axiom``)."""
    solve = functools.partial(solution)
    solve.linear_map = linear_map
    return solve


def parse_solution(spec: str):
    """(solution, label); the solution carries, per player set, the
    ``random_partitions.LinearMap`` of the TU game it takes the Shapley value
    of, the very cached table the solution applies: ``PSTAR.outside_runs``
    for ``mpw``, the family's ``block_runs`` for ``p-shapley``, the
    operator's ``auxiliary_map`` for ``r-shapley``."""
    if spec == "mpw":
        return _carrying(tux_games.mpw_value, random_partitions.PSTAR.outside_runs), "mpw"
    if spec.startswith("p-shapley:"):
        family = parse_family(spec[10:])
        return _carrying(functools.partial(tux_games.p_shapley_vector, family=family),
                         family.block_runs), f"p-shapley[{family.label}]"
    if spec.startswith("r-shapley:"):
        op = parse_operator(spec[10:])
        return _carrying(op.shapley_value, op.auxiliary_map), f"r-shapley[{op.label}]"
    raise ValueError(f"unknown solution spec {spec!r}")


def _parse_players(text: str, option: str):
    try:
        return partitions.mask_from(int(x) for x in text.split(",") if x != "")
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None


def _payoffs(payoff, as_float: bool):
    if as_float:
        return {str(i): float(x) for i, x in sorted(payoff.items())}
    return formats.payoff_to_json(payoff)


def _scalar(x: Fraction, as_float: bool):
    return float(x) if as_float else formats.format_rational(x)


def _emit(obj, fmt: str = "json") -> None:
    if fmt == "table":
        lines = []
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, dict):
                lines.extend(
                    f"player {i} {value[i]}" for i in sorted(value, key=int)
                )
            else:
                lines.append(f"{key} {value}")
        print("\n".join(lines))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _load_tu(path) -> tu_games.TuGame:
    tu = tux_games.as_tu_game(formats.load_game(path))
    if tu is None:
        raise ValueError(f"{path}: this command needs a TU game, and the "
                         "partition function has externalities")
    return tu


def _load_tux(path) -> tux_games.TuxGame:
    return tux_games.as_tux_game(formats.load_game(path))


def _cmd_shapley(args) -> int:
    v = _load_tu(args.game)
    payoff = tu_games.shapley_via_crp(v) if args.route == "crp" else tu_games.shapley_value(v)
    _emit({"payoffs": _payoffs(payoff, args.float)}, args.format)
    return 0


def _cmd_potential(args) -> int:
    game = formats.load_game(args.game)
    if args.op is not None:
        value = parse_operator(args.op).potential(tux_games.as_tux_game(game))
    elif (tu := tux_games.as_tu_game(game)) is not None:
        value = tu_games.potential(tu)
    else:
        raise ValueError("a game with externalities needs --op to fix its subgames")
    _emit({"potential": _scalar(value, args.float)}, args.format)
    return 0


def _cmd_mpw(args) -> int:
    payoff = tux_games.mpw_value(_load_tux(args.game))
    _emit({"payoffs": _payoffs(payoff, args.float)}, args.format)
    return 0


def _cmd_p_shapley(args) -> int:
    w = _load_tux(args.game)
    family = parse_family(args.family)
    if args.player is not None:
        payoff = {args.player: tux_games.p_shapley(w, family, args.player)}
    else:
        payoff = tux_games.p_shapley_vector(w, family)
    _emit({"family": family.label, "payoffs": _payoffs(payoff, args.float)}, args.format)
    return 0


def _cmd_restrict(args) -> int:
    w = _load_tux(args.game)
    op = parse_operator(args.op)
    removed = _parse_players(args.remove, "--remove")
    _emit(formats.tux_game_to_json(op.restrict_many(w, removed)))
    return 0


def _cmd_aux_game(args) -> int:
    w = _load_tux(args.game)
    op = parse_operator(args.op)
    _emit(formats.tu_game_to_json(op.auxiliary_game(w)))
    return 0


# the verify functions that check a family, by their --check name
FAMILY_CHECKS = {
    "gen": "check_gen",
    "ci": "check_ci",
    "pos": "check_pos",
    "monotonicity": "check_monotonicity_conditions",
}


def _cmd_verify(args) -> int:
    from . import verify  # the one command that runs axiom checks

    reports, family = [], None
    for check in args.check:
        if check in FAMILY_CHECKS:
            if args.family is None:
                raise ValueError(f"--check {check} needs --family")
            if family is None:
                family = parse_family(args.family)
            reports.append(getattr(verify, FAMILY_CHECKS[check])(family, args.nmax))
        elif check == "restriction":
            if args.op is None:
                raise ValueError("--check restriction needs --op")
            reports.append(
                verify.check_restriction_axioms(parse_operator(args.op), args.nmax)
            )
        else:  # null-player, the last choice argparse allows
            if args.solution is None:
                raise ValueError("--check null-player needs --solution")
            solution, label = parse_solution(args.solution)
            reports.append(verify.check_null_player_axiom(solution, args.nmax, label))
    for report in reports:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if all(report.passed for report in reports) else 1


def _cmd_sample(args) -> int:
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples {args.samples} exceeds the budget of {MAX_SAMPLES} samples")
    from . import sampling  # loads numpy, which no other command needs
    game = formats.load_game(args.game)
    estimate = sampling.estimate_payoff(
        game, args.player, args.target, args.samples, args.seed
    )
    _emit(
        {
            "mean": estimate.mean,
            "std_error": estimate.std_error,
            "samples": estimate.n_samples,
            "seed": estimate.seed,
            "generator": estimate.generator,
        },
        args.format,
    )
    return 0


def _cmd_enumerate(args) -> int:
    players = _parse_players(args.players, "--players")
    if args.embedded:
        _emit(
            {
                "embedded": [
                    {
                        "S": formats.coalition_to_list(S),
                        "pi": formats.partition_to_lists(pi),
                    }
                    for S, pi in partitions.enumerate_embedded(players)
                ]
            }
        )
    else:
        _emit(
            {
                "partitions": [
                    formats.partition_to_lists(pi)
                    for pi in partitions.enumerate_partitions(players)
                ]
            }
        )
    return 0


class _Once(argparse.Action):
    """Stores an option that may be given once: a second value is a usage
    error (exit 2), not a silent replacement of the first."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given_once", set())
        if self.dest in given:
            raise argparse.ArgumentError(
                self, f"given twice ({getattr(namespace, self.dest)!r}, then {values!r})")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfgames",
        description="Exact solutions and axiom checks for cooperative games "
        "in partition function form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *parents, **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(fn=fn)
        return p

    # the output options every exact-value command shares
    exact = argparse.ArgumentParser(add_help=False)
    exact.add_argument("--float", action="store_true")
    exact.add_argument("--format", choices=["json", "table"], default="json")

    p = add("shapley", _cmd_shapley, exact, help="Shapley value of a TU game")
    p.add_argument("--game", required=True)
    p.add_argument("--route", choices=["direct", "crp"], default="direct")

    p = add("potential", _cmd_potential, exact, help="potential of a game")
    p.add_argument("--game", required=True)
    p.add_argument("--op", action=_Once, help="restriction operator for games with externalities")

    p = add("mpw", _cmd_mpw, exact, help="MPW solution of a partition-function game")
    p.add_argument("--game", required=True)

    p = add("p-shapley", _cmd_p_shapley, exact, help="p-Shapley value for a family")
    p.add_argument("--game", required=True)
    p.add_argument("--family", action=_Once, default="pstar")
    p.add_argument("--player", type=int)

    p = add("restrict", _cmd_restrict, help="subgame after removing players")
    p.add_argument("--game", required=True)
    p.add_argument("--op", action=_Once, required=True)
    p.add_argument("--remove", required=True, help="comma-separated player ids")

    p = add("aux-game", _cmd_aux_game, help="auxiliary TU game of an operator")
    p.add_argument("--game", required=True)
    p.add_argument("--op", action=_Once, required=True)

    p = add("verify", _cmd_verify, help="run axiom checks, one JSON report per line")
    p.add_argument(
        "--check",
        action="append",
        required=True,
        choices=[*FAMILY_CHECKS, "restriction", "null-player"],
    )
    p.add_argument("--family", action=_Once)
    p.add_argument("--op", action=_Once)
    p.add_argument("--solution", action=_Once)
    p.add_argument("--nmax", type=int, default=4)

    p = add("sample", _cmd_sample, help="Monte Carlo payoff estimate")
    p.add_argument("--game", required=True)
    p.add_argument("--target", required=True, choices=["shapley", "mpw"])
    p.add_argument("--player", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("enumerate", _cmd_enumerate, help="partitions or embedded coalitions")
    p.add_argument("--players", required=True, help="comma-separated player ids")
    p.add_argument("--embedded", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    old_bound = partitions.universe_bound()
    try:
        bound = os.environ.get(ENV_UNIVERSE_BOUND)
        if bound is not None:
            try:
                partitions.set_universe_bound(int(bound))
            except ValueError as exc:
                raise ValueError(f"{ENV_UNIVERSE_BOUND}={bound!r}: {exc}") from None
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"pfgames: error: {exc}", file=sys.stderr)
        return 2
    finally:
        partitions.set_universe_bound(old_bound)


if __name__ == "__main__":
    sys.exit(main())
