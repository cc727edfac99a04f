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
