"""Games in partition function form and their random-partition solutions.

A partition-function game assigns a worth to every embedded coalition
``(S, pi)``: a coalition together with a partition of the outside players.
The module provides the Dirac basis, averaging into a TU game, the MPW
solution, and the null-player test. p-Shapley values and the expected
accumulated worth of a random partition share one pass over the family's
distribution; MPW stays a separate route, through the average game.

A game's worth table is integer numerators in ``enumerate_embedded`` order
over one common denominator. The kernels read it, and each family's cached
distributions in the same form, and build one Fraction per result. They
find cells through the position tables of ``partitions``, never by hashing
``(S, pi)``: the block mass behind p-Shapley values and the expected
accumulated worth reads ``block_positions``, and the null-player test reads
``placement_positions``.
"""

from __future__ import annotations

import math
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
                    f"missing worth for embedded coalition "
                    f"({sorted(partitions.members(S))}, {_pi_repr(pi)})"
                ) from None
            values.append(Fraction(value))
        if provided:
            bad = next(iter(provided))
            raise ValueError(f"worth given for a non-embedded coalition: {bad}")
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
    """Position of the embedded coalition in ``enumerate_embedded(players)``;
    ValueError when it is not one."""
    S = partitions.as_mask(coalition)
    try:
        return partitions.embedded_index(players)[(S, pi)]
    except KeyError:
        raise ValueError(
            f"({sorted(partitions.members(S))}, {_pi_repr(pi)}) is not an "
            "embedded coalition of this game"
        ) from None


def _pi_repr(pi: Partition) -> list[list[int]]:
    return [sorted(partitions.members(B)) for B in pi]


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
    for S, x in zip(partitions.subsets(v.players), v.nums):
        # the cells of S are one run in enumerate_embedded order
        nums += [x] * len(partitions.enumerate_partitions(v.players & ~S))
    return TuxGame._from_numerators(v.players, v.den, nums)


def externality_free_tu(w: TuxGame) -> TuGame | None:
    """The induced TU game when worths ignore the outside partition, else None."""
    at = partitions.embedded_index(w.players)
    v = TuGame._from_numerators(w.players, w.den, [
        w.nums[at[(S, partitions.enumerate_partitions(w.players & ~S)[0])]]
        for S in partitions.subsets(w.players)])
    return v if lift_tu_game(v) == w else None


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
    sums, dens = [], []
    at = 0  # the cells of S are the next ones in enumerate_embedded order
    for S in partitions.subsets(w.players):
        pden, pnums = family.integer_distribution(w.players & ~S)
        end = at + len(pnums)
        sums.append(sum(map(operator.mul, pnums, w.nums[at:end])))
        dens.append(pden)
        at = end
    den = math.lcm(*set(dens))
    return TuGame._from_numerators(w.players, den * w.den,
                                   [x * (den // d) for x, d in zip(sums, dens)])


def mpw_value(w: TuxGame) -> PayoffVector:
    """MPW solution: Shapley value of the average game under the uniform CRP law."""
    return tu_games.shapley_value(average_game(w, random_partitions.PSTAR))


def _block_mass(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> tuple[int, dict[Coalition, int]]:
    """Block mass M(S): sum of p(pi) worth(S, pi - S) over partitions pi with
    block S, as (den, {S: numerator}) with every nonempty S in subsets order."""
    nums = w.nums
    pden, pnums = family.integer_distribution(w.players)
    p = pnums.__getitem__
    mass = {}
    for S, at, positions in partitions.block_positions(w.players):
        # the cells (S, pi - S) are one run of the worth table
        run = nums[at:at + len(positions)]
        mass[S] = sum(map(operator.mul, map(p, positions), run)) if any(run) else 0
    return pden * w.den, mass


def expected_accumulated_worth(
    w: TuxGame, family: random_partitions.RandomPartitionFamily
) -> Fraction:
    """Expected sum of block worths when the players split along a random partition."""
    den, mass = _block_mass(w, family)
    return Fraction(sum(mass.values()), den)


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
    den, mass = _block_mass(w, family)
    n = w.n
    weight = [s * math.comb(n, s) for s in range(n + 1)]
    game = TuGame._from_numerators(w.players, den, [
        0, *(weight[S.bit_count()] * m for S, m in mass.items())])
    return tu_games.shapley_value(game)


def is_null_player(w: TuxGame, i: int) -> bool:
    """True iff moving player ``i`` in or out never changes any worth.

    Checks worth(S + i, pi) == worth(S, pi with i merged into B) for every
    embedded coalition (S, pi) of the game without i and every target block B
    including the singleton.
    """
    if not w.players & partitions.singleton(i):
        raise ValueError(f"player {i} is not in the game")
    # one common denominator, so equal numerators are equal worths
    nums = w.nums
    for inside, grown in partitions.placement_positions(w.players, i):
        x = nums[inside]
        for k in grown:
            if nums[k] != x:
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
