"""TU games, the Shapley value, and the potential with independent routes.

Worths are exact rationals; every solution and summary here is computed
without rounding. The potential has three routes that must agree: the
efficiency recursion over subgames, the closed form weighting coalitions by
size, and the expected accumulated worth of a uniform random partition.
That expectation, and the Shapley value's expected marginal contribution to
a random table, are taken block by block: by linearity each coalition's
worth is weighted by the probability that it forms a block (the family's
``inclusion`` masses), so these two routes depend on the CRP law only
through its block marginals and share nothing with the factorial weights.

A game holds its worths as integer numerators over one common denominator,
the lcm of their reduced denominators; the kernels read that table and the
probabilities likewise, and build one Fraction per result at the end. The
Shapley value sums cached membership columns of one weighted table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping

from . import partitions, random_partitions
from .partitions import Coalition
from .random_partitions import _factorials, over_common_denominator

PayoffVector = dict[int, Fraction]


class Game:
    """A worth table over a player set: what TU and partition-function games
    share. The worths are integer numerators ``nums`` in table order over
    ``den``, the lcm of their reduced denominators, so equal games have equal
    (players, den, nums); sums, differences and multiples are reduced too.
    The sampler keeps the float of each worth in ``_floats``, filled on its
    first estimate; it takes no part in equality."""

    __slots__ = ("players", "den", "nums", "_floats")

    @classmethod
    def _from_numerators(cls, players: Coalition, den: int, nums):
        """The game with worths nums[k] / den in table order (unchecked)."""
        g = 1 if den == 1 else math.gcd(den, *nums)
        return cls._from_reduced(players, den // g, nums if g == 1 else (x // g for x in nums))

    @classmethod
    def _from_reduced(cls, players: Coalition, den: int, nums):
        """The game with worths nums[k] / den in table order, where
        gcd(den, *nums) is already 1 (unchecked: no gcd is taken)."""
        game = cls.__new__(cls)
        game.players, game.den, game.nums = players, den, tuple(nums)
        return game

    @classmethod
    def _from_values(cls, players: Coalition, values):
        """The game with these exact worths in table order (unchecked): the
        ``subsets`` order of TU games, else ``enumerate_embedded`` order."""
        return cls._from_numerators(players, *over_common_denominator(values))

    @property
    def n(self) -> int:
        return partitions.size(self.players)

    def member_ids(self) -> tuple[int, ...]:
        return partitions.members(self.players)

    def __eq__(self, other):
        return type(other) is type(self) and (self.players, self.den, self.nums) == (
            other.players, other.den, other.nums)

    def __hash__(self):
        return hash((type(self), self.players, self.den, self.nums))

    def __repr__(self):
        nonzero = sum(1 for x in self.nums if x)
        return f"{type(self).__name__}(players={list(self.member_ids())}, nonzero={nonzero})"

    def _combine(self, other, op):
        if type(other) is not type(self) or other.players != self.players:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return self._from_numerators(
            self.players, den, [op(a * x, b * y) for x, y in zip(self.nums, other.nums)])

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return self._from_numerators(self.players, self.den * scalar.denominator,
                                     [scalar.numerator * x for x in self.nums])

    __rmul__ = __mul__


class TuGame(Game):
    """A characteristic function on the subsets of a player set.

    Coalitions omitted from the worth mapping default to zero; the empty
    coalition always has worth zero. Twenty or more players are refused.
    """

    __slots__ = ()

    def __init__(self, players, worth: Mapping = ()):
        self.players = _check_size(partitions.as_mask(players))
        table = dict.fromkeys(partitions.subsets(self.players), 0)
        for key, value in dict(worth).items():
            S = self._subset(key)
            value = Fraction(value)
            if S == 0 and value != 0:
                raise ValueError("the empty coalition must have worth zero")
            table[S] = value
        self.den, self.nums = over_common_denominator(table.values())

    def _subset(self, coalition) -> Coalition:
        S = partitions.as_mask(coalition)
        if S & ~self.players:
            raise ValueError(f"coalition {sorted(partitions.members(S))} is not a subset "
                             "of the player set")
        return S

    def worth(self, coalition) -> Fraction:
        S = self._subset(coalition)
        return Fraction(self.nums[partitions.subset_position(self.players, S)], self.den)

    def nonzero_worths(self) -> dict[Coalition, Fraction]:
        return {S: Fraction(x, self.den)
                for S, x in zip(partitions.subsets(self.players), self.nums) if x}


def _check_size(players: Coalition) -> Coalition:
    n = partitions.size(players)
    if 1 << n > partitions.MAX_EMBEDDED_COALITIONS:
        raise partitions.CapacityError(f"a TU game on {n} players has more than "
                                       f"{partitions.MAX_EMBEDDED_COALITIONS} coalitions")
    return players


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
    nums = [0] * (1 << partitions.size(_check_size(mask)))
    nums[partitions.subset_position(mask, T)] = 1
    return TuGame._from_numerators(mask, 1, nums)


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


@functools.cache
def _shapley_table(n: int) -> tuple:
    """(n!, w, inside, outside, member) for n players: w[s] = s!(n-s-1)! and
    w[n] = 0 by size, and in ``subsets`` order the k-th coalition T of size t
    has outside[k] = w[t] and inside[k] = w[t-1] + w[t], and member[j][k] is
    1 iff T holds the j-th player. Built once per n and cached."""
    fact = _factorials(n)
    w = [fact[s] * fact[n - s - 1] for s in range(n)] + [0]
    both = [0] + [w[t - 1] + w[t] for t in range(1, n + 1)]
    sizes = [k.bit_count() for k in range(1 << n)]
    outside = tuple(w[t] for t in sizes)
    inside = tuple(both[t] for t in sizes)
    member = tuple(bytes(k >> j & 1 for k in range(1 << n)) for j in range(n))
    return fact[n], tuple(w), inside, outside, member


def shapley_value(v: TuGame) -> PayoffVector:
    """Shapley payoffs: marginal contributions weighted by s!(n-s-1)!/n!.

    Summed by membership columns: the j-th player's n! times its payoff is
    the sum over T holding it of (w[t-1] + w[t]) v(T), less the sum over
    every T of w[t] v(T), with w[s] = s!(n-s-1)!. The term of w[n] cancels,
    as N holds every player; it is set to 0.
    """
    # the worth table is in subsets order, so the k-th numerator belongs to
    # the coalition whose members are bit j of k mapped to the j-th player
    fact_n, _, inside, outside, member = _shapley_table(v.n)
    nums = v.nums
    weighted = list(map(operator.mul, inside, nums))
    base = sum(map(operator.mul, outside, nums))
    den = fact_n * v.den
    return {i: Fraction(sum(itertools.compress(weighted, column)) - base, den)
            for i, column in zip(v.member_ids(), member)}


def potential(v: TuGame) -> Fraction:
    """Potential via the efficiency recursion over one-player removals.

    With P(S) = Q(S) / (s! den), the recursion P(S) = (worth(S) + sum of
    P(S - i)) / s becomes Q(S) = (s-1)! num(S) + sum of Q(S - i) on integers.
    """
    den, nums = v.den, v.nums
    n = v.n
    fact = _factorials(n)
    q = [0] * (1 << n)
    for S in range(1, 1 << n):
        total = fact[S.bit_count() - 1] * nums[S]
        rest = S
        while rest:
            low = rest & -rest
            total += q[S ^ low]
            rest ^= low
        q[S] = total
    return Fraction(q[-1], fact[n] * den)


def potential_via_size_weights(v: TuGame) -> Fraction:
    """Potential as the closed form sum of s!(n-s)!/n! * worth(S)/s."""
    den, nums = v.den, v.nums
    n = v.n
    fact = _factorials(n)
    # s!/s = (s-1)!, so the empty coalition carries no term
    total = sum(fact[S.bit_count() - 1] * fact[n - S.bit_count()] * nums[S]
                for S in range(1, 1 << n))
    return Fraction(total, fact[n] * den)


def potential_via_random_partition(v: TuGame) -> Fraction:
    """Potential as the expected accumulated worth of a uniform CRP partition
    (any potential-generating family gives the same number).

    The expectation is taken by blocks: it is the sum over coalitions B of
    worth(B) times the probability that B is a block, so the law is read
    only through its block marginals, ``inclusion``.
    """
    pden, mass = random_partitions.PSTAR.inclusion(v.players)
    total = sum(x * mass.get(B, 0) for B, x in zip(partitions.subsets(v.players), v.nums))
    return Fraction(total, pden * v.den)


def shapley_via_crp(v: TuGame) -> PayoffVector:
    """Shapley payoffs as expected marginal contributions to a random table.

    Player i enters last: a partition of the others is drawn from the uniform
    CRP law, i joins a block of size s with weight s/n or stays alone with
    weight 1/n, and the weighted marginal contribution is averaged. The
    expectation is taken by blocks, each block B of the others weighted by
    the probability that it forms (``inclusion``), so the law is read only
    through its block marginals. Agrees exactly with ``shapley_value``.
    """
    n = v.n
    den, num = v.den, dict(zip(partitions.subsets(v.players), v.nums))
    pstar = random_partitions.PSTAR
    payoff: PayoffVector = {}
    for i in v.member_ids():
        bit = 1 << i
        pden, mass = pstar.inclusion(v.players & ~bit)
        # n times the marginal contribution, so every weight is an integer;
        # alone, i weighs 1/n on every partition, whose masses sum to pden
        total = pden * num[bit] + sum(B.bit_count() * m * (num[B | bit] - num[B])
                                      for B, m in mass.items())
        payoff[i] = Fraction(total, n * pden * den)
    return payoff
