"""Seeded game corpora shared by the test modules.

Pseudorandom worths use a fixed seed so every run sees the same games; the
Dirac and unanimity bases cover the small player sets exhaustively.
"""

import random
from fractions import Fraction

from pfgames import formats, partitions, tu_games, tux_games
from pfgames.random_partitions import RandomPartitionFamily, family_from_distributions


def refuse_fraction_tables(monkeypatch):
    """Make every ``RandomPartitionFamily.distribution`` call fail, so a
    test shows that the code it runs builds no Fraction table."""

    def refuse(family, players):
        raise AssertionError(f"{family!r} built a Fraction table")

    monkeypatch.setattr(RandomPartitionFamily, "distribution", refuse)


def random_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_tu_game(players, rng):
    mask = partitions.as_mask(players)
    worth = {S: random_fraction(rng) for S in partitions.subsets(mask) if S}
    return tu_games.TuGame(mask, worth)


def random_tux_game(players, rng):
    mask = partitions.as_mask(players)
    worth = {
        cell: random_fraction(rng)
        for cell in partitions.enumerate_embedded(mask)
        if cell[0]
    }
    return tux_games.TuxGame(mask, worth)


def prefix(n):
    return partitions.mask_from(range(1, n + 1))


def tu_corpus(count, max_n=5, seed=4711):
    rng = random.Random(seed)
    return [random_tu_game(prefix(rng.randint(1, max_n)), rng) for _ in range(count)]


def tux_corpus(count, n=4, seed=2718):
    rng = random.Random(seed)
    return [random_tux_game(prefix(n), rng) for _ in range(count)]


def rule_restrict(op, w, i):
    """The subgame without ``i`` straight from the operator's cell rule, one
    ``restricted_worth`` per cell: a route independent of its removal matrix."""
    return tux_games.TuxGame.from_function(
        w.players & ~(1 << i), lambda S, pi: op.restricted_worth(w, i, S, pi))


def mixed_denominator_cell(w, i, S, pi):
    """13/30 of the ``rstar`` cell, each placement's term t taken as t/2 +
    t/3 - t*2/5: on linear forms, terms over 2, 3 and 5 times n - s added over
    their lcm, and each cell read three times."""
    outside, total = w.n - S.bit_count(), 0
    for B, grown in partitions.placements(pi, i):
        t = w.worth(S, grown) * (B.bit_count() or 1) / outside
        total += t / 2 + t / 3 - t * Fraction(2, 5)
    return total


def numerator_rule(with_den=True):
    """3/7 of the ``rstar`` cell, read as the built-in rules read a game: the
    numerators ``nums`` at their ``embedded_index`` positions times integer
    weights, scaled once by a Fraction that folds in ``den``, or that leaves
    it out when ``with_den`` is false."""

    def cell(w, i, S, pi):
        at, total = partitions.embedded_index(w.players), 0
        for B, grown in partitions.placements(pi, i):
            total += w.nums[at[S, grown]] * (B.bit_count() or 1)
        return total * Fraction(3, 7 * (w.n - S.bit_count()) * (w.den if with_den else 1))

    return cell


def rule_restrict_many(op, w, removed):
    """``rule_restrict`` once per removed player, in ascending id order."""
    for i in partitions.members(partitions.as_mask(removed)):
        w = rule_restrict(op, w, i)
    return w


def dirac_tu_basis(n):
    N = prefix(n)
    return [
        tu_games.dirac_game(N, T) for T in partitions.subsets(N) if T
    ]


def unanimity_tu_basis(n):
    N = prefix(n)
    return [
        tu_games.unanimity_game(N, T) for T in partitions.subsets(N) if T
    ]


def dirac_tux_basis_up_to(n_max):
    for n in range(1, n_max + 1):
        yield from tux_games.dirac_basis(prefix(n))


def skewed_table_family():
    """A table family on players 1..3 that favours the pair {1, 2} and gives
    the partition {1}, {2, 3} probability zero."""
    blocks = formats.partition_from_lists
    probs = {
        blocks([[1], [2], [3]]): Fraction(1, 12),
        blocks([[1, 2], [3]]): Fraction(1, 2),
        blocks([[1, 3], [2]]): Fraction(1, 12),
        blocks([[1], [2, 3]]): 0,
        blocks([[1, 2, 3]]): Fraction(1, 3),
    }
    return family_from_distributions("skewed", {prefix(3): probs})
