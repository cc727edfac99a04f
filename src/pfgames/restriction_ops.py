"""Restriction operators: how a partition-function game loses a player.

A restriction operator turns a game on N into a subgame on N minus one
player; each subgame cell may only depend on the original worths where the
removed player joins an outside block or stays alone. The operators here are
the probability-ratio operator built from a potential-generating random
partition, its closed form for the uniform CRP law, the nullifying operator,
and a deliberately order-biased operator used to exercise the axiom checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import partitions, tu_games
from .errors import PositivityError
from .partitions import Coalition, Partition
from .random_partitions import ZERO, RandomPartitionFamily
from .tu_games import PayoffVector, TuGame
from .tux_games import TuxGame

CellRule = Callable[[TuxGame, int, Coalition, Partition], Fraction]


class RestrictionOperator:
    """A rule producing subgames, plus the potential and value it induces:
    the TU potential and the Shapley value of its auxiliary game. For path
    dependent operators (``biased``) both follow ``restrict_many``'s order."""

    def __init__(
        self,
        label: str,
        cell_rule: CellRule,
        explicit_player_sets: frozenset[Coalition] = frozenset(),
    ):
        self.label = label
        self._cell_rule = cell_rule
        self.explicit_player_sets = explicit_player_sets

    def __repr__(self):
        return f"RestrictionOperator({self.label!r})"

    def restricted_worth(self, w: TuxGame, i: int, S, pi: Partition) -> Fraction:
        """Worth of one embedded coalition of the subgame without player ``i``."""
        return self._cell_rule(w, i, partitions.as_mask(S), pi)

    def restrict(self, w: TuxGame, i: int) -> TuxGame:
        bit = partitions.singleton(i)
        if not w.players & bit:
            raise ValueError(f"player {i} is not in the game")
        return TuxGame.from_function(
            w.players & ~bit, lambda S, pi: self._cell_rule(w, i, S, pi)
        )

    def restrict_many(self, w: TuxGame, removed) -> TuxGame:
        """Remove several players, in ascending id order.

        For path independent operators any removal order gives the same
        subgame; the fixed order just makes runs deterministic.
        """
        gone = partitions.as_mask(removed)
        if gone & ~w.players:
            raise ValueError("cannot remove players that are not in the game")
        for i in partitions.members(gone):
            w = self.restrict(w, i)
        return w

    def auxiliary_game(self, w: TuxGame) -> TuGame:
        """TU game whose worth of S is what S earns once everyone else is removed.

        Walks the lattice of removed sets D once, building the subgame of D
        from that of D minus max(D): the ascending order of ``restrict_many``.
        """
        worth = {}

        def walk(game: TuxGame, last: int) -> None:
            worth[game.players] = game.worth(game.players, ())
            for h in partitions.members(game.players):
                if h > last:
                    walk(self.restrict(game, h), h)

        walk(w, -1)
        return TuGame(w.players, worth)

    def potential(self, w: TuxGame) -> Fraction:
        """TU potential of the auxiliary game: for path independent operators,
        the efficiency recursion over one-player removals."""
        return tu_games.potential(self.auxiliary_game(w))

    def shapley_value(self, w: TuxGame) -> PayoffVector:
        """Shapley value of the auxiliary TU game; equals the per-player
        contribution to the operator's potential."""
        return tu_games.shapley_value(self.auxiliary_game(w))


def crp_restriction() -> RestrictionOperator:
    """Uniform-CRP restriction: the removed player joins each outside player
    with equal weight or stays alone.

    The subgame worth at (S, pi) is the weighted average of the original
    worths where the removed player is merged into a block B with weight
    b/(n-s) or kept as a singleton with weight 1/(n-s).
    """

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        outside = w.n - S.bit_count()
        total = ZERO
        for B, grown in partitions.placements(pi, i):
            # alone (B = 0) weighs like a block of one
            total += Fraction(B.bit_count() or 1, outside) * w.worth(S, grown)
        return total

    return RestrictionOperator("rstar", cell)


def probability_restriction(family: RandomPartitionFamily) -> RestrictionOperator:
    """Restriction operator weighting original worths by probability ratios.

    The subgame worth at (S, pi) is n/(n-s) times the sum over target blocks
    B of p_N({S} + pi with the removed player in B) / p_{N-i}({S} + pi) times
    the original worth. The family must generate the TU potential; this is
    checked at construction time on up to 5 players (fewer when the universe
    bound is lower). Probabilities appearing in denominators must be nonzero
    and are checked per query.
    """
    from . import verify

    report = verify.check_gen(family, min(5, partitions.universe_bound()))
    if not report.passed:
        raise ValueError(
            f"family {family.label!r} does not generate the TU potential; "
            f"witness: {report.witness}"
        )

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        if S == 0:
            return ZERO
        n = w.n
        s = S.bit_count()
        bit = 1 << i
        base = partitions.with_block(pi, S)
        denominator = family.prob(w.players & ~bit, base)
        if denominator == 0:
            raise PositivityError(
                f"family {family.label!r} assigns probability zero to "
                f"{[sorted(partitions.members(b)) for b in base]} on "
                f"{sorted(partitions.members(w.players & ~bit))}",
                players=w.players & ~bit,
                partition=base,
            )
        dist = family.distribution(w.players)
        total = ZERO
        for _, grown in partitions.placements(pi, i):
            total += dist[partitions.with_block(grown, S)] * w.worth(S, grown)
        return Fraction(n, n - s) * total / denominator

    return RestrictionOperator(
        f"rp:{family.label}", cell, explicit_player_sets=family.explicit_player_sets
    )


def nullifying_restriction() -> RestrictionOperator:
    """Every subgame is the null game; induces the egalitarian split."""

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        return ZERO

    return RestrictionOperator("nullify", cell)


def removal_biased_restriction() -> RestrictionOperator:
    """Operator whose merge weights depend on the removed player's id.

    Still local to the admissible cells and maps null games to null games,
    but removing i before j need not equal removing j before i, so it fails
    path independence. Exists to give the axiom checker a true negative.
    """

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        total = ZERO
        for B, grown in partitions.placements(pi, i):
            worth = w.worth(S, grown)
            total += (i + 1) * worth if B else worth
        return total

    return RestrictionOperator("biased", cell)
