"""Exact probability distributions over the set partitions of a player set.

A random-partition family assigns to every player set an exact rational
probability distribution over its partitions. Built-in families: the uniform
Chinese-restaurant law (Ewens with rate 1, called ``pstar`` throughout), the
general one-parameter Ewens family, a perturbed family that stays
potential-generating while deviating from pstar on four or more players, and
table-backed families for counterexample experiments.

Exact kernels read a distribution over one common denominator: the
``integer_distribution`` of a player set is (den, nums) with den the lcm of
its probabilities' denominators and nums the integer numerators in
``enumerate_partitions`` order. Validation builds it, and it is cached beside
the Fraction memo. ``inclusion`` adds each partition's numerator to each of
its blocks in one pass, giving the probability that a coalition forms a
block as an integer mass over the same denominator; the family checks of
``verify`` read these masses.
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

    The rule is evaluated lazily and memoized per player set; every computed
    distribution is validated to be non-negative and to sum exactly to 1.
    Memo writes are idempotent (identical values), so concurrent fills are
    harmless. ``integer_distribution`` memoizes the same distribution over one
    common denominator, and ``inclusion`` its block inclusion masses.
    """

    def __init__(
        self,
        label: str,
        rule: Callable[[Coalition], Distribution],
        explicit_player_sets: frozenset[Coalition] = frozenset(),
    ):
        self.label = label
        self._rule = rule
        self.explicit_player_sets = explicit_player_sets
        self._cache: dict[Coalition, Distribution] = {}
        self._int_cache: dict[Coalition, IntegerView] = {}
        self._inclusion_cache: dict[Coalition, InclusionView] = {}
        self._gen_reports: dict[int, object] = {}  # verify.check_gen reports by n_max

    def __repr__(self):
        return f"RandomPartitionFamily({self.label!r})"

    def distribution(self, players) -> Distribution:
        mask = partitions.as_mask(players)
        dist = self._cache.get(mask)
        if dist is None:
            dist = self._rule(mask)
            self._int_cache[mask] = _validate_distribution(mask, dist, self.label)
            self._cache[mask] = dist
        return dist

    def integer_distribution(self, players) -> IntegerView:
        """The distribution as (den, nums), nums in ``enumerate_partitions`` order."""
        mask = partitions.as_mask(players)
        view = self._int_cache.get(mask)
        if view is None:
            self.distribution(mask)  # validating it caches the view
            view = self._int_cache[mask]
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
        return self.distribution(mask)[pi]

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


def _validate_distribution(mask: Coalition, dist: Distribution, label: str) -> IntegerView:
    """The distribution over one common denominator, once it covers exactly the
    partitions of the player set, is non-negative and sums to 1."""
    expected = partitions.enumerate_partitions(mask)
    if set(dist) != set(expected):
        raise ValueError(
            f"family {label!r} does not assign a probability to every partition "
            f"of {sorted(partitions.members(mask))}"
        )
    den, nums = view = over_common_denominator(dist[pi] for pi in expected)
    if min(nums) < 0:
        pi = next(pi for pi, p in dist.items() if p < 0)  # in the rule's own order
        raise ValueError(
            f"family {label!r} assigns a negative probability to {pi}"
        )
    if sum(nums) != den:
        raise ValueError(
            f"family {label!r} sums to {Fraction(sum(nums), den)} != 1 on "
            f"{sorted(partitions.members(mask))}"
        )
    return view


def pstar_probability(pi: Partition, players) -> Fraction:
    """Probability of ``pi`` under the uniform CRP law: prod (b-1)! / n!."""
    mask = partitions.as_mask(players)
    n = partitions.size(mask)
    num = math.prod(math.factorial(block.bit_count() - 1) for block in pi)
    return Fraction(num, math.factorial(n))


def _pstar_rule(mask: Coalition) -> Distribution:
    return {
        pi: pstar_probability(pi, mask) for pi in partitions.enumerate_partitions(mask)
    }


PSTAR = RandomPartitionFamily("pstar", _pstar_rule)


def ewens_family(theta) -> RandomPartitionFamily:
    """Ewens distribution with mutation rate ``theta > 0``.

    Probabilities are theta^(#blocks) * prod (b-1)! divided by the rising
    factorial theta (theta+1) ... (theta+n-1), kept exact in rationals.
    Rate 1 coincides with ``PSTAR``.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ValueError("Ewens mutation rate must be positive")

    def rule(mask: Coalition) -> Distribution:
        n = partitions.size(mask)
        rising = math.prod((theta + j for j in range(n)), start=ONE)
        weight = [theta**k / rising for k in range(n + 1)]  # by block count
        return {
            pi: weight[len(pi)] * math.prod(math.factorial(b.bit_count() - 1) for b in pi)
            for pi in partitions.enumerate_partitions(mask)
        }

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

    def rule(mask: Coalition) -> Distribution:
        n = partitions.size(mask)
        eps_n = eps.at(n)
        dist = _pstar_rule(mask)
        if n <= 3 or eps_n == 0:
            return dist
        one_pair = (1,) * (n - 2) + (2,)
        two_pairs = (1,) * (n - 4) + (2, 2)
        for pi in dist:
            sizes = tuple(sorted(b.bit_count() for b in pi))
            if sizes == (1,) * n:
                dist[pi] += eps_n
            elif sizes == one_pair:
                dist[pi] -= 2 * eps_n / math.comb(n, 2)
            elif sizes == two_pairs:
                dist[pi] += 2 * eps_n / (math.comb(n - 2, 2) * math.comb(n, 2))
        return dist

    return RandomPartitionFamily(eps.label(), rule)


def family_from_distributions(
    label: str, tables: Mapping[Coalition, Distribution]
) -> RandomPartitionFamily:
    """Family backed by explicit tables, deferring to ``PSTAR`` elsewhere.

    Tables are validated once, immediately, against the distribution
    invariants (full coverage, non-negativity, total exactly 1), and seed the
    family's caches. Player sets without a table are answered by the uniform
    CRP law, so a table for a single cardinality still yields a family defined
    everywhere.
    """
    tables = {
        partitions.as_mask(k): {pi: Fraction(p) for pi, p in dict(v).items()}
        for k, v in tables.items()
    }
    views = {mask: _validate_distribution(mask, table, label) for mask, table in tables.items()}
    family = RandomPartitionFamily(
        label, lambda mask: dict(PSTAR.distribution(mask)), explicit_player_sets=frozenset(tables)
    )
    family._cache.update(tables)
    family._int_cache.update(views)
    return family
