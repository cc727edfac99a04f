"""TU games, the Shapley value, and the potential with independent routes.

Worths are exact rationals; every solution and summary here is computed
without rounding. The potential has three routes that must agree: the
efficiency recursion over subgames, the closed form weighting coalitions by
size, and the expected accumulated worth of a uniform random partition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from . import partitions, random_partitions
from .partitions import Coalition
from .random_partitions import ZERO

PayoffVector = dict[int, Fraction]


class TuGame:
    """A characteristic function on the subsets of a player set.

    Coalitions omitted from the worth mapping default to zero; the empty
    coalition always has worth zero. Twenty or more players are refused.
    """

    __slots__ = ("players", "_worth")

    def __init__(self, players, worth: Mapping = ()):
        self.players = partitions.as_mask(players)
        if 1 << self.n > partitions.MAX_EMBEDDED_COALITIONS:
            raise partitions.CapacityError(f"a TU game on {self.n} players has more than "
                                           f"{partitions.MAX_EMBEDDED_COALITIONS} coalitions")
        table = {S: ZERO for S in partitions.subsets(self.players)}
        for key, value in dict(worth).items():
            S = partitions.as_mask(key)
            if S & ~self.players:
                raise ValueError(
                    f"coalition {sorted(partitions.members(S))} is not a subset "
                    "of the player set"
                )
            value = Fraction(value)
            if S == 0 and value != 0:
                raise ValueError("the empty coalition must have worth zero")
            table[S] = value
        self._worth = table

    def worth(self, coalition) -> Fraction:
        S = partitions.as_mask(coalition)
        try:
            return self._worth[S]
        except KeyError:
            raise ValueError(
                f"coalition {sorted(partitions.members(S))} is not a subset "
                "of the player set"
            ) from None

    @property
    def n(self) -> int:
        return partitions.size(self.players)

    def member_ids(self) -> tuple[int, ...]:
        return partitions.members(self.players)

    def nonzero_worths(self) -> dict[Coalition, Fraction]:
        return {S: x for S, x in self._worth.items() if x != 0}

    def _signature(self):
        return (self.players, tuple(sorted(self._worth.items())))

    def __eq__(self, other):
        return isinstance(other, TuGame) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        return f"TuGame(players={list(self.member_ids())}, nonzero={len(self.nonzero_worths())})"

    def __add__(self, other):
        if not isinstance(other, TuGame) or other.players != self.players:
            return NotImplemented
        return TuGame(
            self.players, {S: x + other._worth[S] for S, x in self._worth.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, TuGame) or other.players != self.players:
            return NotImplemented
        return TuGame(
            self.players, {S: x - other._worth[S] for S, x in self._worth.items()}
        )

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return TuGame(self.players, {S: scalar * x for S, x in self._worth.items()})

    __rmul__ = __mul__


def null_game(players) -> TuGame:
    return TuGame(players)


def dirac_game(players, coalition) -> TuGame:
    """Worth 1 exactly on the given nonempty coalition, 0 elsewhere."""
    mask = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    if T == 0:
        raise ValueError("Dirac games need a nonempty coalition")
    if T & ~mask:
        raise ValueError("coalition is not a subset of the player set")
    return TuGame(mask, {T: 1})


def unanimity_game(players, coalition) -> TuGame:
    """Worth 1 on every coalition containing the given nonempty one."""
    mask = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    if T == 0:
        raise ValueError("unanimity games need a nonempty coalition")
    if T & ~mask:
        raise ValueError("coalition is not a subset of the player set")
    return TuGame(mask, {S: 1 for S in partitions.subsets(mask) if S & T == T})


def subgame(v: TuGame, removed) -> TuGame:
    """Restriction of the game to the players outside ``removed``."""
    gone = partitions.as_mask(removed)
    if gone & ~v.players:
        raise ValueError("cannot remove players that are not in the game")
    rest = v.players & ~gone
    return TuGame(rest, {S: v.worth(S) for S in partitions.subsets(rest)})


def shapley_value(v: TuGame) -> PayoffVector:
    """Shapley payoffs: marginal contributions weighted by s!(n-s-1)!/n!."""
    n = v.n
    fact_n = math.factorial(n)
    weight = [
        Fraction(math.factorial(s) * math.factorial(n - s - 1), fact_n)
        for s in range(n)
    ]
    payoff: PayoffVector = {}
    for i in v.member_ids():
        bit = 1 << i
        rest = v.players & ~bit
        payoff[i] = sum(
            (
                weight[S.bit_count()] * (v.worth(S | bit) - v.worth(S))
                for S in partitions.subsets(rest)
            ),
            ZERO,
        )
    return payoff


def potential(v: TuGame) -> Fraction:
    """Potential via the efficiency recursion over one-player removals."""
    memo: dict[Coalition, Fraction] = {0: ZERO}

    def pot(mask: Coalition) -> Fraction:
        value = memo.get(mask)
        if value is None:
            total = v.worth(mask)
            for i in partitions.members(mask):
                total += pot(mask & ~(1 << i))
            value = total / mask.bit_count()
            memo[mask] = value
        return value

    return pot(v.players)


def potential_via_size_weights(v: TuGame) -> Fraction:
    """Potential as the closed form sum of s!(n-s)!/n! * worth(S)/s."""
    n = v.n
    if n == 0:
        return ZERO
    fact_n = math.factorial(n)
    total = ZERO
    for S in partitions.subsets(v.players):
        s = S.bit_count()
        if s == 0:
            continue
        total += Fraction(math.factorial(s) * math.factorial(n - s), fact_n * s) * v.worth(S)
    return total


def potential_via_random_partition(v: TuGame, family=None) -> Fraction:
    """Potential as the expected accumulated worth of a random partition.

    Defaults to the uniform CRP law; any potential-generating family gives
    the same number.
    """
    if family is None:
        family = random_partitions.PSTAR
    total = ZERO
    for pi, p in family.distribution(v.players).items():
        if p == 0:
            continue
        total += p * sum((v.worth(B) for B in pi), ZERO)
    return total


def shapley_via_crp(v: TuGame) -> PayoffVector:
    """Shapley payoffs as expected marginal contributions to a random table.

    Player i enters last: a partition of the others is drawn from the uniform
    CRP law, i joins a block of size s with weight s/n or stays alone with
    weight 1/n, and the weighted marginal contribution is averaged. Agrees
    exactly with ``shapley_value``.
    """
    n = v.n
    pstar = random_partitions.PSTAR
    payoff: PayoffVector = {}
    for i in v.member_ids():
        bit = 1 << i
        rest = v.players & ~bit
        total = ZERO
        for pi, p in pstar.distribution(rest).items():
            inner = Fraction(1, n) * v.worth(bit)
            for B in pi:
                inner += Fraction(B.bit_count(), n) * (v.worth(B | bit) - v.worth(B))
            total += p * inner
        payoff[i] = total
    return payoff
