"""Games in partition function form and their random-partition solutions.

A partition-function game assigns a worth to every embedded coalition
``(S, pi)``: a coalition together with a partition of the outside players.
The module provides the Dirac basis, averaging into a TU game, the MPW
solution, and the null-player test. p-Shapley values and the expected
accumulated worth of a random partition read one TU game, the p-Shapley
game: its Shapley value and its size-weight potential. MPW stays a
separate route, through the average game.

A game's worth table is integer numerators in ``enumerate_embedded`` order
over one common denominator, where the cells (S, pi) of each coalition S
are one run (``partitions.runs``). The kernels read it and build one
Fraction per result. The average game and the p-Shapley game are a
family's cached run table (``outside_runs``, ``block_runs``) applied to
it, one ``random_partitions.LinearMap`` each: per coalition, the dot
product of its run of worths with the table's weights, times the row's
scale. The null-player test is one gather of the worth table through
``partitions.placement_classes``, never hashing ``(S, pi)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from . import partitions, random_partitions, tu_games
from .partitions import Coalition, EmbeddedCoalition, Partition
from .random_partitions import over_common_denominator
from .tu_games import Game, PayoffVector, TuGame


class TuxGame(Game):
    """A partition function defined on every embedded coalition of a player set.

    The worth table is dense: a missing embedded coalition is a construction
    error, not an implicit zero. Empty coalitions always have worth zero.
    """

    __slots__ = ()

    def __init__(self, players, worth: Mapping[EmbeddedCoalition, Fraction]):
        self.players = partitions.as_mask(players)
        values = []
        provided = dict(worth)
        for S, pi in partitions.enumerate_embedded(self.players):
            if S == 0:
                if provided.pop((S, pi), 0) != 0:
                    raise ValueError("empty coalitions must have worth zero")
                values.append(0)
                continue
            try:
                value = provided.pop((S, pi))
            except KeyError:
                raise ValueError(
                    f"missing worth for embedded coalition {_cell_repr(S, pi)}") from None
            values.append(Fraction(value))
        if provided:
            raise ValueError(f"worth given for a non-embedded coalition: "
                             f"{_cell_repr(*next(iter(provided)))}")
        self.den, self.nums = over_common_denominator(values)

    @classmethod
    def from_function(cls, players, fn: Callable[[Coalition, Partition], Fraction]):
        """Tabulate a worth rule; consulted only for nonempty coalitions."""
        mask = partitions.as_mask(players)
        return cls._from_values(mask, [Fraction(fn(S, pi)) if S else 0
                                       for S, pi in partitions.enumerate_embedded(mask)])

    def worth(self, coalition, pi: Partition) -> Fraction:
        return Fraction(self.nums[cell_index(self.players, coalition, pi)], self.den)

    def cells(self) -> Iterator[tuple[EmbeddedCoalition, Fraction]]:
        """Each embedded coalition with its worth, in ``enumerate_embedded`` order."""
        return zip(partitions.enumerate_embedded(self.players),
                   (Fraction(x, self.den) for x in self.nums))


def cell_index(players: Coalition, coalition, pi: Partition) -> int:
    """Position of the embedded coalition in ``enumerate_embedded(players)``,
    ``players`` a mask; ValueError when it is not one. An int mask is looked
    up as it is, once; anything else, or a miss, goes through ``as_mask``,
    so every refusal is the one ``as_mask`` or the lookup gives."""
    if type(coalition) is int:
        k = partitions.embedded_index(players).get((coalition, pi))
        if k is not None:
            return k
    S = partitions.as_mask(coalition)
    try:
        return partitions.embedded_index(players)[(S, pi)]
    except KeyError:
        raise ValueError(
            f"{_cell_repr(S, pi)} is not an embedded coalition of this game") from None


def _cell_repr(S: Coalition, pi: Partition) -> str:
    """The embedded coalition as player lists, as the game files write it."""
    return f"({sorted(partitions.members(S))}, {[sorted(partitions.members(B)) for B in pi]})"


def null_game(players) -> TuxGame:
    mask = partitions.as_mask(players)
    return TuxGame._from_numerators(mask, 1, [0] * len(partitions.enumerate_embedded(mask)))


def dirac_game(players, coalition, outside: Partition) -> TuxGame:
    """Worth 1 exactly at the embedded coalition ``(coalition, outside)``."""
    mask = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    if T == 0:
        raise ValueError("Dirac games need a nonempty coalition")
    if T & ~mask or not partitions.is_partition_of(outside, mask & ~T):
        raise ValueError("not an embedded coalition of the given player set")
    nums = [0] * len(partitions.enumerate_embedded(mask))
    nums[partitions.embedded_index(mask)[(T, outside)]] = 1
    return TuxGame._from_numerators(mask, 1, nums)


def dirac_basis(players):
    """All Dirac games on the player set, one per nonempty embedded coalition."""
    mask = partitions.as_mask(players)
    for T, tau in partitions.enumerate_embedded(mask):
        if T != 0:
            yield (T, tau), dirac_game(mask, T, tau)


def lift_tu_game(v: TuGame) -> TuxGame:
    """Embed a TU game as the partition-independent partition function."""
    nums = []
    for (start, end), x in zip(partitions.runs(v.players).values(), v.nums):
        nums += [x] * (end - start)
    return TuxGame._from_numerators(v.players, v.den, nums)


def externality_free_tu(w: TuxGame) -> TuGame | None:
    """The induced TU game when worths ignore the outside partition, else None."""
    firsts = []
    for start, end in partitions.runs(w.players).values():
        run = w.nums[start:end]
        if run.count(run[0]) != len(run):
            return None
        firsts.append(run[0])
    return TuGame._from_numerators(w.players, w.den, firsts)


def as_tu_game(game: TuGame | TuxGame) -> TuGame | None:
    """A TU game itself, or the TU game of an externality-free partition
    function; None when the partition function has externalities."""
    if isinstance(game, TuGame):
        return game
    if isinstance(game, TuxGame):
        return externality_free_tu(game)
    raise ValueError(f"expected a TU or partition-function game, got {type(game).__name__}")


def as_tux_game(game: TuGame | TuxGame) -> TuxGame:
    """A partition-function game itself, or a TU game lifted to one."""
    if isinstance(game, TuxGame):
        return game
    if isinstance(game, TuGame):
        return lift_tu_game(game)
    raise ValueError(f"expected a TU or partition-function game, got {type(game).__name__}")


def average_game(w: TuxGame, family: random_partitions.RandomPartitionFamily) -> TuGame:
    """TU game giving each coalition its expected worth over outside partitions."""
    table = family.outside_runs(w.players)
    return TuGame._from_numerators(w.players, table.den * w.den, table.apply(w.nums))


def mpw_value(w: TuxGame) -> PayoffVector:
    """MPW solution: Shapley value of the average game under the uniform CRP law."""
    return tu_games.shapley_value(average_game(w, random_partitions.PSTAR))


def p_shapley_game(w: TuxGame, family: random_partitions.RandomPartitionFamily) -> TuGame:
    """The TU game S -> M(S) / beta(s) of the family's cached ``block_runs``:
    M(S) the block mass, the sum of p(pi) worth(S, pi - S) over partitions pi
    with block S, and beta(s) = (s-1)!(n-s)!/n! the uniform-CRP probability
    that S is a block. At ``PSTAR`` it is the average game."""
    table = family.block_runs(w.players)
    return TuGame._from_numerators(w.players, table.den * w.den, table.apply(w.nums))


def expected_accumulated_worth(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> Fraction:
    """Expected sum of block worths when the players split along a random
    partition: the size-weight potential of ``p_shapley_game``, whose terms
    beta(s) M(S) / beta(s) are the block masses."""
    return tu_games.potential_via_size_weights(p_shapley_game(w, family))


def p_shapley(w: TuxGame, family: random_partitions.RandomPartitionFamily, i: int) -> Fraction:
    """Payoff of player ``i`` under the p-Shapley value for the given family."""
    if not w.players & partitions.singleton(i):
        raise ValueError(f"player {i} is not in the game")
    return p_shapley_vector(w, family)[i]


def p_shapley_vector(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> PayoffVector:
    """Shapley value of ``p_shapley_game``; at ``PSTAR`` it is MPW."""
    return tu_games.shapley_value(p_shapley_game(w, family))


def is_null_player(w: TuxGame, i: int) -> bool:
    """True iff moving player ``i`` in or out never changes any worth.

    Checks worth(S + i, pi) == worth(S, pi with i merged into B) for every
    embedded coalition (S, pi) of the game without i and every target block B
    including the singleton: the worth table equals its gather through
    ``partitions.placement_classes``, read whole even past a first mismatch.
    """
    if not w.players & partitions.singleton(i):
        raise ValueError(f"player {i} is not in the game")
    # one common denominator, so equal numerators are equal worths
    gather = operator.itemgetter(*partitions.placement_classes(w.players, i))
    return w.nums == gather(w.nums)


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
