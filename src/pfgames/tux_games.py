"""Games in partition function form and their random-partition solutions.

A partition-function game assigns a worth to every embedded coalition
``(S, pi)``: a coalition together with a partition of the outside players.
The module provides the Dirac basis, averaging into a TU game, the MPW
solution, and the null-player test. p-Shapley values and the expected
accumulated worth of a random partition share one pass over the family's
distribution; MPW stays a separate route, through the average game.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

from . import partitions, random_partitions, tu_games
from .partitions import Coalition, EmbeddedCoalition, Partition
from .random_partitions import ZERO
from .tu_games import PayoffVector, TuGame


class TuxGame:
    """A partition function defined on every embedded coalition of a player set.

    The worth table is dense: a missing embedded coalition is a construction
    error, not an implicit zero. Empty coalitions always have worth zero.
    """

    __slots__ = ("players", "_worth")

    def __init__(self, players, worth: Mapping[EmbeddedCoalition, Fraction]):
        self.players = partitions.as_mask(players)
        table: dict[EmbeddedCoalition, Fraction] = {}
        provided = dict(worth)
        for S, pi in partitions.enumerate_embedded(self.players):
            if S == 0:
                value = provided.pop((S, pi), ZERO)
                if value != 0:
                    raise ValueError("empty coalitions must have worth zero")
                table[(S, pi)] = ZERO
                continue
            try:
                value = provided.pop((S, pi))
            except KeyError:
                raise ValueError(
                    f"missing worth for embedded coalition "
                    f"({sorted(partitions.members(S))}, {_pi_repr(pi)})"
                ) from None
            table[(S, pi)] = Fraction(value)
        if provided:
            bad = next(iter(provided))
            raise ValueError(f"worth given for a non-embedded coalition: {bad}")
        self._worth = table

    @classmethod
    def from_function(cls, players, fn: Callable[[Coalition, Partition], Fraction]):
        """Tabulate a worth rule; consulted only for nonempty coalitions."""
        mask = partitions.as_mask(players)
        worth = {
            (S, pi): fn(S, pi)
            for S, pi in partitions.enumerate_embedded(mask)
            if S != 0
        }
        return cls(mask, worth)

    def worth(self, coalition, pi: Partition) -> Fraction:
        S = partitions.as_mask(coalition)
        try:
            return self._worth[(S, pi)]
        except KeyError:
            raise ValueError(
                f"({sorted(partitions.members(S))}, {_pi_repr(pi)}) is not an "
                "embedded coalition of this game"
            ) from None

    @property
    def n(self) -> int:
        return partitions.size(self.players)

    def member_ids(self) -> tuple[int, ...]:
        return partitions.members(self.players)

    def cells(self):
        return self._worth.items()

    def _signature(self):
        return (self.players, tuple(sorted(self._worth.items())))

    def __eq__(self, other):
        return isinstance(other, TuxGame) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        nonzero = sum(1 for x in self._worth.values() if x != 0)
        return f"TuxGame(players={list(self.member_ids())}, nonzero={nonzero})"

    def __add__(self, other):
        if not isinstance(other, TuxGame) or other.players != self.players:
            return NotImplemented
        return TuxGame(
            self.players,
            {key: x + other._worth[key] for key, x in self._worth.items() if key[0]},
        )

    def __sub__(self, other):
        if not isinstance(other, TuxGame) or other.players != self.players:
            return NotImplemented
        return TuxGame(
            self.players,
            {key: x - other._worth[key] for key, x in self._worth.items() if key[0]},
        )

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return TuxGame(
            self.players,
            {key: scalar * x for key, x in self._worth.items() if key[0]},
        )

    __rmul__ = __mul__


def _pi_repr(pi: Partition) -> list[list[int]]:
    return [sorted(partitions.members(B)) for B in pi]


def null_game(players) -> TuxGame:
    return TuxGame.from_function(players, lambda S, pi: ZERO)


def dirac_game(players, coalition, outside: Partition) -> TuxGame:
    """Worth 1 exactly at the embedded coalition ``(coalition, outside)``."""
    mask = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    if T == 0:
        raise ValueError("Dirac games need a nonempty coalition")
    if T & ~mask or not partitions.is_partition_of(outside, mask & ~T):
        raise ValueError("not an embedded coalition of the given player set")
    target = (T, outside)
    return TuxGame.from_function(
        mask, lambda S, pi: Fraction(1) if (S, pi) == target else ZERO
    )


def dirac_basis(players):
    """All Dirac games on the player set, one per nonempty embedded coalition."""
    mask = partitions.as_mask(players)
    for T, tau in partitions.enumerate_embedded(mask):
        if T != 0:
            yield (T, tau), dirac_game(mask, T, tau)


def dirac_coefficients(w: TuxGame) -> dict[EmbeddedCoalition, Fraction]:
    """Coordinates of the game in the Dirac basis; they equal the worths."""
    return {key: value for key, value in w.cells() if key[0] != 0}


def game_from_dirac_coefficients(players, coefficients) -> TuxGame:
    table = dict(coefficients)
    return TuxGame.from_function(players, lambda S, pi: table.get((S, pi), ZERO))


def lift_tu_game(v: TuGame) -> TuxGame:
    """Embed a TU game as the partition-independent partition function."""
    return TuxGame.from_function(v.players, lambda S, pi: v.worth(S))


def externality_free_tu(w: TuxGame) -> TuGame | None:
    """The induced TU game when worths ignore the outside partition, else None."""
    worth: dict[Coalition, Fraction] = {}
    for S in partitions.subsets(w.players):
        values = {w.worth(S, pi) for pi in partitions.enumerate_partitions(w.players & ~S)}
        if len(values) != 1:
            return None
        worth[S] = values.pop()
    return TuGame(w.players, worth)


def average_game(w: TuxGame, family: random_partitions.RandomPartitionFamily) -> TuGame:
    """TU game giving each coalition its expected worth over outside partitions."""
    worth: dict[Coalition, Fraction] = {}
    for S in partitions.subsets(w.players):
        outside = w.players & ~S
        worth[S] = sum(
            (p * w.worth(S, pi) for pi, p in family.distribution(outside).items()),
            ZERO,
        )
    return TuGame(w.players, worth)


def mpw_value(w: TuxGame) -> PayoffVector:
    """MPW solution: Shapley value of the average game under the uniform CRP law."""
    return tu_games.shapley_value(average_game(w, random_partitions.PSTAR))


def _block_mass(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> dict[Coalition, Fraction]:
    """Block mass M(S): sum of p(pi) worth(S, pi - S) over partitions pi with block S."""
    mass: dict[Coalition, Fraction] = {}
    for pi, p in family.distribution(w.players).items():
        if p == 0:
            continue
        for k, S in enumerate(pi):
            if x := w.worth(S, pi[:k] + pi[k + 1 :]):
                mass[S] = mass.get(S, ZERO) + p * x
    return mass


def expected_accumulated_worth(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> Fraction:
    """Expected sum of block worths when the players split along a random partition."""
    return sum(_block_mass(w, family).values(), ZERO)


def p_shapley(w: TuxGame, family: random_partitions.RandomPartitionFamily, i: int) -> Fraction:
    """Payoff of player ``i`` under the p-Shapley value for the given family."""
    if not w.players & partitions.singleton(i):
        raise ValueError(f"player {i} is not in the game")
    return p_shapley_vector(w, family)[i]


def p_shapley_vector(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> PayoffVector:
    """Shapley value of S -> M(S) / beta(s), M the block mass and beta(s) =
    (s-1)!(n-s)!/n! = 1/(s C(n, s)) the uniform-CRP probability that S is a
    block; at ``PSTAR`` this TU game is the average game, so the value is MPW."""
    mass = _block_mass(w, family)
    game = {S: S.bit_count() * math.comb(w.n, S.bit_count()) * m for S, m in mass.items()}
    return tu_games.shapley_value(TuGame(w.players, game))


def is_null_player(w: TuxGame, i: int) -> bool:
    """True iff moving player ``i`` in or out never changes any worth.

    Checks worth(S + i, pi) == worth(S, pi with i merged into B) for every
    embedded coalition (S, pi) of the game without i and every target block B
    including the singleton.
    """
    bit = partitions.singleton(i)
    if not w.players & bit:
        raise ValueError(f"player {i} is not in the game")
    rest = w.players & ~bit
    for S, pi in partitions.enumerate_embedded(rest):
        inside = w.worth(S | bit, pi)
        for B in pi + (0,):
            if inside != w.worth(S, partitions.insert_player(pi, i, B)):
                return False
    return True


def productive_pair_game() -> TuxGame:
    """Four-player game where worth is created by players 2 and 3.

    A coalition containing both earns 1. A coalition containing exactly one
    of them earns 1 only if player 4 sits outside the other producer's block,
    so player 4 matters purely through externalities. Player 1 never affects
    any worth.
    """
    players = partitions.mask_from([1, 2, 3, 4])

    def worth(S: Coalition, pi: Partition) -> int:
        has2 = partitions.contains(S, 2)
        has3 = partitions.contains(S, 3)
        if has2 and has3:
            return 1
        if has2 and not has3:
            return 0 if partitions.contains(partitions.block_of(pi, 3), 4) else 1
        if has3 and not has2:
            return 0 if partitions.contains(partitions.block_of(pi, 2), 4) else 1
        return 0

    return TuxGame.from_function(players, worth)
