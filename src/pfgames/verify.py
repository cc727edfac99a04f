"""Witness-producing checks of the axioms behind the random-partition
solutions, exercised exhaustively on small player sets.

Each check returns a Report: what was checked, how many instances, and on
failure a structured witness whose numbers can be recomputed with the public
operations of the corresponding module. Exact arithmetic throughout, so a
check passes only when the identity holds with zero tolerance.

Player sets are the prefixes {1}, {1,2}, ..., up to the requested size,
together with any player sets a table-backed family pins explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import formats, partitions, tu_games, tux_games
from .partitions import Coalition, Partition
from .random_partitions import ZERO, RandomPartitionFamily
from .tux_games import TuxGame


@dataclass(frozen=True)
class Report:
    """Outcome of one check: pass/fail, instance count, optional witness."""

    subject: str
    passed: bool
    checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checked": self.checked,
            "witness": self.witness,
        }


def _player_sets(n_max: int, explicit=frozenset()) -> list[Coalition]:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > partitions.universe_bound():
        raise partitions.CapacityError(
            f"n_max {n_max} exceeds the universe bound {partitions.universe_bound()}"
        )
    sets = {partitions.mask_from(range(1, k + 1)) for k in range(1, n_max + 1)}
    sets.update(N for N in explicit if 0 < partitions.size(N) <= n_max)
    return sorted(sets, key=lambda N: (partitions.size(N), N))


def _nonempty_subsets_large_first(mask: Coalition) -> list[Coalition]:
    # the grand coalition is the most informative probe, so it goes first
    return sorted(
        (S for S in partitions.subsets(mask) if S),
        key=lambda S: (-S.bit_count(), S),
    )


def _coalition(mask):
    return formats.coalition_to_list(mask)


def _blocks(pi):
    return formats.partition_to_lists(pi)


def _frac(x):
    return formats.format_rational(x)


# --- potential generation -------------------------------------------------


def gen_block_probability(
    family: RandomPartitionFamily, players, coalition
) -> tuple[Fraction, Fraction]:
    """(observed, required) probability that the coalition forms a block."""
    N = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    n, t = partitions.size(N), partitions.size(T)
    lhs = family.coalition_inclusion_prob(N, T)
    rhs = Fraction(
        math.factorial(n - t) * math.factorial(t - 1), math.factorial(n)
    )
    return lhs, rhs


def reduction_identity(
    family: RandomPartitionFamily, players, i: int, coalition
) -> tuple[Fraction, Fraction]:
    """Both sides of the one-player reduction identity for block S.

    Left: probability that S is a block among the players without i. Right:
    n/(n-s) times the total probability of partitions of the full set where S
    is a block, split by where i sits.
    """
    N = partitions.as_mask(players)
    S = partitions.as_mask(coalition)
    bit = partitions.singleton(i)
    rest = N & ~bit
    n, s = partitions.size(N), partitions.size(S)
    lhs = rhs = ZERO
    dist = family.distribution(N)
    for pi in partitions.enumerate_partitions(rest & ~S):
        lhs += family.prob(rest, partitions.with_block(pi, S))
        for B in pi + (0,):
            grown = partitions.insert_player(pi, i, B)
            rhs += dist[partitions.with_block(grown, S)]
    return lhs, Fraction(n, n - s) * rhs


def check_gen(family: RandomPartitionFamily, n_max: int) -> Report:
    """Does the family's expected accumulated worth equal the TU potential?

    Verifies the block-probability condition for every coalition, and that
    the two equivalent routes (expected accumulated worth on the Dirac TU
    basis, one-player reduction identity) agree with it.
    """
    checked = 0
    w_block = w_expected = w_reduction = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for T in _nonempty_subsets_large_first(N):
            lhs, rhs = gen_block_probability(family, N, T)
            checked += 1
            if lhs != rhs and w_block is None:
                w_block = {
                    "check": "gen",
                    "route": "block-probability",
                    "players": _coalition(N),
                    "coalition": _coalition(T),
                    "lhs": _frac(lhs),
                    "rhs": _frac(rhs),
                }
            dirac = tu_games.dirac_game(N, T)
            expected = tux_games.expected_accumulated_worth(
                tux_games.lift_tu_game(dirac), family
            )
            pot = tu_games.potential(dirac)
            checked += 1
            if expected != pot and w_expected is None:
                w_expected = {
                    "check": "gen",
                    "route": "expected-accumulated-worth",
                    "players": _coalition(N),
                    "coalition": _coalition(T),
                    "lhs": _frac(expected),
                    "rhs": _frac(pot),
                }
        for i in partitions.members(N):
            for S in _nonempty_subsets_large_first(N & ~(1 << i)):
                lhs, rhs = reduction_identity(family, N, i, S)
                checked += 1
                if lhs != rhs and w_reduction is None:
                    w_reduction = {
                        "check": "gen",
                        "route": "one-player-reduction",
                        "players": _coalition(N),
                        "player": i,
                        "coalition": _coalition(S),
                        "lhs": _frac(lhs),
                        "rhs": _frac(rhs),
                    }
    witness = w_block or w_expected or w_reduction
    if w_block is None and witness is not None:
        witness = dict(witness, note="routes disagree with block-probability")
    return Report(f"gen[{family.label}]", witness is None, checked, witness)


# --- conditional independence ---------------------------------------------


def ci_instance(
    family: RandomPartitionFamily, players, pi: Partition, block
) -> tuple[Fraction, Fraction]:
    """Both sides of the factorization over one block of a partition."""
    N = partitions.as_mask(players)
    B = partitions.as_mask(block)
    if B not in pi:
        raise ValueError("block is not part of the partition")
    lhs = family.prob(N, pi)
    remainder = tuple(C for C in pi if C != B)
    rhs = family.prob(N & ~B, remainder) * family.coalition_inclusion_prob(N, B)
    return lhs, rhs


def check_ci(family: RandomPartitionFamily, n_max: int) -> Report:
    """Does the family factor over blocks (conditional independence)?"""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for pi in partitions.enumerate_partitions(N):
            for B in sorted(pi, key=lambda b: (-b.bit_count(), partitions.least_member(b))):
                lhs, rhs = ci_instance(family, N, pi, B)
                checked += 1
                if lhs != rhs and witness is None:
                    witness = {
                        "check": "ci",
                        "players": _coalition(N),
                        "partition": _blocks(pi),
                        "block": _coalition(B),
                        "lhs": _frac(lhs),
                        "rhs": _frac(rhs),
                    }
    return Report(f"ci[{family.label}]", witness is None, checked, witness)


# --- positivity -------------------------------------------------------------


def check_pos(family: RandomPartitionFamily, n_max: int) -> Report:
    """Is every partition probability strictly positive?"""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for pi, p in family.distribution(N).items():
            checked += 1
            if p <= 0 and witness is None:
                witness = {
                    "check": "pos",
                    "players": _coalition(N),
                    "partition": _blocks(pi),
                    "prob": _frac(p),
                }
    return Report(f"pos[{family.label}]", witness is None, checked, witness)


# --- restriction operator axioms -------------------------------------------


def _first_cell_difference(g1: TuxGame, g2: TuxGame):
    for (S, pi), x in g1.cells():
        y = g2.worth(S, pi)
        if x != y:
            return S, pi, x, y
    return None


def check_restriction_axioms(op, n_max: int) -> Report:
    """Path independence, preservation of null games, and cell locality.

    Path independence is checked on the full Dirac basis (enough, since
    restriction acts linearly on worths); locality by perturbing a Dirac game
    outside the cells a restricted worth may read.
    """
    checked = 0
    witness = None
    sets = _player_sets(n_max, getattr(op, "explicit_player_sets", frozenset()))

    for N in sets:
        ids = partitions.members(N)
        for (T, tau), delta in tux_games.dirac_basis(N):
            for a in range(len(ids)):
                for b in range(a + 1, len(ids)):
                    i, j = ids[a], ids[b]
                    first = op.restrict(op.restrict(delta, i), j)
                    second = op.restrict(op.restrict(delta, j), i)
                    checked += 1
                    if witness is None and first != second:
                        S, pi, lhs, rhs = _first_cell_difference(first, second)
                        witness = {
                            "check": "restriction-axioms",
                            "axiom": "PI",
                            "players": _coalition(N),
                            "coalition": _coalition(T),
                            "outside": _blocks(tau),
                            "first_removed": i,
                            "second_removed": j,
                            "cell_coalition": _coalition(S),
                            "cell_partition": _blocks(pi),
                            "lhs": _frac(lhs),
                            "rhs": _frac(rhs),
                        }
    if witness is None:
        for N in sets:
            null = tux_games.null_game(N)
            for i in partitions.members(N):
                restricted = op.restrict(null, i)
                checked += 1
                if witness is None and restricted != tux_games.null_game(N & ~(1 << i)):
                    S, pi, lhs, _ = _first_cell_difference(
                        restricted, tux_games.null_game(N & ~(1 << i))
                    )
                    witness = {
                        "check": "restriction-axioms",
                        "axiom": "PNG",
                        "players": _coalition(N),
                        "player": i,
                        "cell_coalition": _coalition(S),
                        "cell_partition": _blocks(pi),
                        "lhs": _frac(lhs),
                        "rhs": "0",
                    }
    if witness is None:
        for N in sets:
            for i in partitions.members(N):
                rest = N & ~(1 << i)
                for S, pi in partitions.enumerate_embedded(rest):
                    if S == 0:
                        continue
                    readable = {
                        (S, partitions.insert_player(pi, i, B)) for B in pi + (0,)
                    }
                    probe = next(
                        (
                            cell
                            for cell in partitions.enumerate_embedded(N)
                            if cell[0] and cell not in readable
                        ),
                        None,
                    )
                    if probe is None:
                        continue
                    base = tux_games.dirac_game(N, S, partitions.insert_player(pi, i, 0))
                    bumped = base + tux_games.dirac_game(N, *probe)
                    lhs = op.restricted_worth(base, i, S, pi)
                    rhs = op.restricted_worth(bumped, i, S, pi)
                    checked += 1
                    if witness is None and lhs != rhs:
                        witness = {
                            "check": "restriction-axioms",
                            "axiom": "RES",
                            "players": _coalition(N),
                            "player": i,
                            "cell_coalition": _coalition(S),
                            "cell_partition": _blocks(pi),
                            "probe_coalition": _coalition(probe[0]),
                            "probe_outside": _blocks(probe[1]),
                            "lhs": _frac(lhs),
                            "rhs": _frac(rhs),
                        }
    return Report(f"restriction-axioms[{op.label}]", witness is None, checked, witness)


# --- null player ------------------------------------------------------------


def null_player_witness(players, i: int, pi: Partition, block, alpha=1) -> TuxGame:
    """Game in which player ``i`` is null by construction.

    Puts worth ``alpha`` on the embedded coalition where i joined the given
    block, and the same worth on every way of placing i outside the block.
    A solution with the null player property must pay i nothing here.
    """
    N = partitions.as_mask(players)
    B = partitions.as_mask(block)
    bit = partitions.singleton(i)
    if not N & bit:
        raise ValueError(f"player {i} is not in the player set")
    if not partitions.is_partition_of(pi, N & ~bit) or B not in pi:
        raise ValueError("pi must partition the other players and contain the block")
    alpha = Fraction(alpha)
    remainder = tuple(C for C in pi if C != B)
    coefficients = {(B | bit, remainder): alpha}
    for C in remainder + (0,):
        coefficients[(B, partitions.insert_player(remainder, i, C))] = alpha
    return tux_games.game_from_dirac_coefficients(N, coefficients)


Solution = Callable[[TuxGame], Mapping[int, Fraction]]


def check_null_player_axiom(
    solution: Solution, n_max: int, label: str | None = None
) -> Report:
    """Does the solution pay zero to players that never affect any worth?

    Runs the constructed witness family over every player set, player,
    outside partition, and target block, plus the four-player showcase game
    whose player 1 is null.
    """
    if label is None:
        label = getattr(solution, "__name__", "solution")
    checked = 0
    witness = None
    for N in _player_sets(n_max):
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    game = null_player_witness(N, i, pi, B)
                    payoff = solution(game)[i]
                    checked += 1
                    if payoff != 0 and witness is None:
                        witness = {
                            "check": "null-player",
                            "kind": "witness-family",
                            "players": _coalition(N),
                            "player": i,
                            "partition": _blocks(pi),
                            "block": _coalition(B),
                            "payoff": _frac(payoff),
                        }
    if n_max >= 4:
        showcase = tux_games.productive_pair_game()
        payoff = solution(showcase)[1]
        checked += 1
        if payoff != 0 and witness is None:
            witness = {
                "check": "null-player",
                "kind": "showcase-game",
                "players": _coalition(showcase.players),
                "player": 1,
                "payoff": _frac(payoff),
            }
    return Report(f"null-player[{label}]", witness is None, checked, witness)


# --- monotonicity -----------------------------------------------------------


def monotonicity_instance(
    family: RandomPartitionFamily, players, i: int, pi: Partition, block
) -> tuple[Fraction, Fraction]:
    """Both sides of the linear identity forced by monotone payoffs.

    Compares the probability of i landing in the given block against b/(n-b)
    times the total probability of i landing anywhere else. All instances
    hold exactly for the uniform CRP law and pin the family down to it.
    """
    N = partitions.as_mask(players)
    B = partitions.as_mask(block)
    if B not in pi:
        raise ValueError("block is not part of the partition")
    n, b = partitions.size(N), partitions.size(B)
    dist = family.distribution(N)
    lhs = dist[partitions.insert_player(pi, i, B)]
    rhs = ZERO
    for C in tuple(C for C in pi if C != B) + (0,):
        rhs += dist[partitions.insert_player(pi, i, C)]
    return lhs, Fraction(b, n - b) * rhs


def check_monotonicity_conditions(family: RandomPartitionFamily, n_max: int) -> Report:
    """Do the linear conditions behind monotone p-Shapley payoffs all hold?"""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    lhs, rhs = monotonicity_instance(family, N, i, pi, B)
                    checked += 1
                    if lhs != rhs and witness is None:
                        witness = {
                            "check": "monotonicity-conditions",
                            "players": _coalition(N),
                            "player": i,
                            "partition": _blocks(pi),
                            "block": _coalition(B),
                            "lhs": _frac(lhs),
                            "rhs": _frac(rhs),
                        }
    return Report(
        f"monotonicity-conditions[{family.label}]", witness is None, checked, witness
    )
