"""Exact probability distributions over the set partitions of a player set.

A random-partition family assigns to every player set an exact rational
probability distribution over its partitions. Built-in families: the uniform
Chinese-restaurant law (Ewens with rate 1, called ``pstar`` throughout), the
general one-parameter Ewens family, a perturbed family that stays
potential-generating while deviating from pstar on four or more players, and
table-backed families for counterexample experiments.

A family's law is born as an integer table: its rule gives, for a player
set, (den, nums) with nums the integer numerators of the probabilities in
``enumerate_partitions`` order over the common denominator den. The
built-in laws compute them from closed forms in integers.
``integer_distribution`` memoizes that view, reduced to den the lcm of the
probabilities' denominators, and is where every law is validated. It is the
one cached form of a law: exact kernels read it, and ``distribution``
builds a Fraction table from it on each request and keeps none.
``inclusion`` adds each partition's numerator to each of its blocks in one
pass, giving the probability that a coalition forms a block as an integer
mass over the same denominator; the family checks of ``verify`` read these
masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from . import partitions
from .partitions import Coalition, Partition

ZERO = Fraction(0)
ONE = Fraction(1)

Distribution = dict[Partition, Fraction]
IntegerView = tuple[int, tuple[int, ...]]
InclusionView = tuple[int, dict[Coalition, int]]


def over_common_denominator(values) -> IntegerView:
    """(den, nums): den the lcm of the denominators of the exact values, and
    nums[k] = values[k] * den, in order."""
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*{d for _, d in ratios})
    return den, tuple(n * (den // d) for n, d in ratios)


class RandomPartitionFamily:
    """A rule assigning an exact distribution over partitions to each player set.

    The rule maps a player set to its law as (den, nums): integer numerators
    in ``enumerate_partitions`` order over a positive common denominator.
    It is evaluated lazily and memoized per player set by
    ``integer_distribution``, which validates every law it memoizes: one
    numerator per partition, none negative, summing exactly to den.
    ``distribution`` builds a Fraction table from that view on each call,
    uncached, and ``inclusion`` the block inclusion masses, cached. Memo
    writes are idempotent (identical values), so concurrent fills are
    harmless.
    """

    def __init__(
        self,
        label: str,
        rule: Callable[[Coalition], IntegerView],
        explicit_player_sets: frozenset[Coalition] = frozenset(),
    ):
        self.label = label
        self._rule = rule
        self.explicit_player_sets = explicit_player_sets
        self._int_cache: dict[Coalition, IntegerView] = {}
        self._inclusion_cache: dict[Coalition, InclusionView] = {}
        self._gen_reports: dict[int, object] = {}  # verify.check_gen reports by n_max

    def __repr__(self):
        return f"RandomPartitionFamily({self.label!r})"

    def distribution(self, players) -> Distribution:
        """The law as {partition: probability} in ``enumerate_partitions``
        order, built from the integer view on each call and not kept."""
        mask = partitions.as_mask(players)
        den, nums = self.integer_distribution(mask)
        return {pi: Fraction(p, den) for pi, p in zip(partitions.enumerate_partitions(mask), nums)}

    def integer_distribution(self, players) -> IntegerView:
        """The distribution as (den, nums), nums in ``enumerate_partitions`` order
        and den the lcm of the probabilities' denominators."""
        mask = partitions.as_mask(players)
        view = self._int_cache.get(mask)
        if view is None:
            view = self._int_cache[mask] = _validate_view(mask, self._rule(mask), self.label)
        return view

    def inclusion(self, players) -> InclusionView:
        """Block inclusion masses as (den, {block: numerator}): a coalition is a
        block with probability numerator / den, and absent blocks have mass 0."""
        mask = partitions.as_mask(players)
        view = self._inclusion_cache.get(mask)
        if view is None:
            den, nums = self.integer_distribution(mask)
            mass: dict[Coalition, int] = {}
            for pi, p in zip(partitions.enumerate_partitions(mask), nums):
                if p:
                    for block in pi:
                        mass[block] = mass.get(block, 0) + p
            view = self._inclusion_cache[mask] = (den, mass)
        return view

    def prob(self, players, pi: Partition) -> Fraction:
        mask = partitions.as_mask(players)
        if not partitions.is_partition_of(pi, mask):
            raise ValueError("pi is not a canonical partition of the given player set")
        den, nums = self.integer_distribution(mask)
        return Fraction(nums[partitions.partition_position(pi)], den)

    def coalition_inclusion_prob(self, players, coalition) -> Fraction:
        """Probability that the given coalition appears as a block."""
        mask = partitions.as_mask(players)
        block = partitions.as_mask(coalition)
        if block == 0:
            raise ValueError("inclusion probability needs a nonempty coalition")
        if block & ~mask:
            raise ValueError("coalition is not a subset of the player set")
        den, mass = self.inclusion(mask)
        return Fraction(mass.get(block, 0), den)


def _not_covered(mask: Coalition, label: str) -> ValueError:
    return ValueError(
        f"family {label!r} does not assign a probability to every partition "
        f"of {sorted(partitions.members(mask))}"
    )


def _negative(pi: Partition, label: str) -> ValueError:
    return ValueError(f"family {label!r} assigns a negative probability to {pi}")


def _validate_view(mask: Coalition, view: IntegerView, label: str) -> IntegerView:
    """The law (den, nums) reduced by gcd(den, *nums), once it has one
    numerator per partition of the player set, none negative, summing to den."""
    den, nums = view
    expected = partitions.enumerate_partitions(mask)
    if len(nums) != len(expected):
        raise _not_covered(mask, label)
    if den <= 0:
        raise ValueError(f"family {label!r} has denominator {den} on "
                         f"{sorted(partitions.members(mask))}")
    if min(nums) < 0:
        raise _negative(next(pi for pi, p in zip(expected, nums) if p < 0), label)
    total = sum(nums)
    if total != den:
        raise ValueError(
            f"family {label!r} sums to {Fraction(total, den)} != 1 on "
            f"{sorted(partitions.members(mask))}"
        )
    g = math.gcd(den, *nums)
    return (den, tuple(nums)) if g == 1 else (den // g, tuple(x // g for x in nums))


def _validate_distribution(mask: Coalition, dist: Distribution, label: str) -> IntegerView:
    """The integer view of a Fraction table, validated by ``_validate_view``
    once the table covers exactly the partitions of the player set; a
    negative entry is named in the table's own order."""
    expected = partitions.enumerate_partitions(mask)
    if set(dist) != set(expected):
        raise _not_covered(mask, label)
    negative = next((pi for pi, p in dist.items() if p < 0), None)
    if negative is not None:
        raise _negative(negative, label)
    return _validate_view(mask, over_common_denominator(dist[pi] for pi in expected), label)


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!]."""
    return [math.factorial(k) for k in range(n + 1)]


def _pstar_rule(mask: Coalition) -> IntegerView:
    """n! and, for each partition in enumeration order, prod (b-1)!."""
    fact = _factorials(partitions.size(mask))
    return fact[-1], tuple(math.prod([fact[b.bit_count() - 1] for b in pi])
                           for pi in partitions.enumerate_partitions(mask))


PSTAR = RandomPartitionFamily("pstar", _pstar_rule)


def ewens_family(theta) -> RandomPartitionFamily:
    """Ewens distribution with mutation rate ``theta > 0``.

    Probabilities are theta^(#blocks) * prod (b-1)! divided by the rising
    factorial theta (theta+1) ... (theta+n-1). With theta = p/q in lowest
    terms that is p^k q^(n-k) prod (b-1)! over prod_{j<n} (p + jq), kept in
    integers. Rate 1 coincides with ``PSTAR``.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("Ewens mutation rate must be positive")
    p, q = theta.numerator, theta.denominator

    def rule(mask: Coalition) -> IntegerView:
        n = partitions.size(mask)
        weight = [p**k * q ** (n - k) for k in range(n + 1)]  # by block count
        return math.prod(p + j * q for j in range(n)), tuple(
            weight[len(pi)] * num
            for pi, num in zip(partitions.enumerate_partitions(mask), _pstar_rule(mask)[1]))

    return RandomPartitionFamily(f"ewens:{theta}", rule)


@dataclass(frozen=True)
class EpsilonProfile:
    """Deviation sizes for the perturbed potential-generating family.

    Maps a player-set cardinality k, 4 <= k <= MAX_PLAYER_ID + 1, to a
    rational eps_k constrained to [-1/k!, C(k,2)/(2 k!)]; outside that range
    some partition would get a negative probability.
    """

    values: Mapping[int, Fraction]

    def __post_init__(self):
        cleaned = {}
        for k, eps in dict(self.values).items():
            if not 4 <= k <= partitions.MAX_PLAYER_ID + 1:  # before computing k!
                raise ValueError(f"perturbations are only defined for 4 to "
                                 f"{partitions.MAX_PLAYER_ID + 1} players, not {k}")
            eps = Fraction(eps)
            lower = Fraction(-1, math.factorial(k))
            upper = Fraction(math.comb(k, 2), 2 * math.factorial(k))
            if not lower <= eps <= upper:
                raise ValueError(
                    f"eps_{k} = {eps} outside the admissible range [{lower}, {upper}]"
                )
            cleaned[k] = eps
        object.__setattr__(self, "values", cleaned)

    def at(self, k: int) -> Fraction:
        return self.values.get(k, ZERO)

    def label(self) -> str:
        inner = ",".join(f"{k}={eps}" for k, eps in sorted(self.values.items()))
        return f"eps:{inner}"


def perturbed_family(eps) -> RandomPartitionFamily:
    """Potential-generating family deviating from pstar on n >= 4 players.

    Relative to pstar, partitions made of two pairs plus singletons gain
    2 eps_n / (C(n-2,2) C(n,2)), partitions with exactly one pair lose
    2 eps_n / C(n,2), and the all-singletons partition gains eps_n; all other
    partitions keep their pstar probability. A zero profile reproduces pstar.
    """
    if not isinstance(eps, EpsilonProfile):
        eps = EpsilonProfile(eps)

    def rule(mask: Coalition) -> IntegerView:
        n = partitions.size(mask)
        eps_n = eps.at(n)
        view = _pstar_rule(mask)
        if n <= 3 or eps_n == 0:
            return view
        # over den = n! c C(n,2) C(n-2,2), with eps_n = a / c
        a, c = eps_n.numerator, eps_n.denominator
        fact_n, pairs, rest_pairs = view[0], math.comb(n, 2), math.comb(n - 2, 2)
        scale = c * pairs * rest_pairs
        # the partitions into pairs and singletons are those with pstar
        # numerator 1; n, n - 1 and n - 2 blocks mean zero, one and two pairs
        shift = {n: a * fact_n * pairs * rest_pairs,
                 n - 1: -2 * a * fact_n * rest_pairs,
                 n - 2: 2 * a * fact_n}
        return fact_n * scale, tuple(
            num * scale + shift.get(len(pi), 0) if num == 1 else num * scale
            for pi, num in zip(partitions.enumerate_partitions(mask), view[1]))

    return RandomPartitionFamily(eps.label(), rule)


def family_from_distributions(
    label: str, tables: Mapping[Coalition, Distribution]
) -> RandomPartitionFamily:
    """Family backed by explicit tables, deferring to ``PSTAR`` elsewhere.

    Tables are validated once, immediately, against the distribution
    invariants (full coverage, non-negativity, total exactly 1); the family
    keeps only their integer views, so ``distribution`` answers in
    ``enumerate_partitions`` order, not the tables' own. Player sets without
    a table are answered by the uniform CRP law's integer view, so a table
    for a single cardinality still yields a family defined everywhere.
    """
    views = {}
    for players, table in tables.items():
        mask = partitions.as_mask(players)
        table = {pi: Fraction(p) for pi, p in dict(table).items()}
        views[mask] = _validate_distribution(mask, table, label)
    family = RandomPartitionFamily(
        label, PSTAR.integer_distribution, explicit_player_sets=frozenset(views)
    )
    family._int_cache.update(views)
    return family
