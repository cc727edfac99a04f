"""An exact certificate of the samplers' laws.

A stand-in generator, ``Odometer``, answers ``integers(low, high, size)``
so that over the calls of one shard its ``size`` draws run through every
combination of answers exactly once: call c gives draw d the digit
(d // stride) % (high - low) + low, stride the product of the earlier
ranges. Each call of the real generator is a uniform draw from its range,
independent of the others, so over the odometer's shard every outcome
carries exactly its probability, and the shard's mean is the sampler's
expectation, exactly. The tests below compare that with the exact modules:
the seating law with ``PSTAR``, the mpw and shapley draws on the Dirac
basis with the exact values, so by linearity for every game at that n.
Each runs at the default ``_TABLED`` and at 1 and 3, so the per-arrival
draws that continue a table row are certified too, not only run.

The odometer asserts every call, range and size included, so a change to
the draw stream fails here loudly, not as a drift in a statistical gate.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pfgames import partitions, sampling, tu_games, tux_games
from pfgames.random_partitions import PSTAR

from .corpus import prefix


class Odometer:
    """Answers the expected ``integers`` calls, ``[(low, high), ...]`` in
    order, with every combination of digits exactly once over ``size`` draws."""

    def __init__(self, ranges):
        self.ranges = list(ranges)
        self.size = math.prod(high - low for low, high in self.ranges)
        self.calls = 0
        self.stride = 1

    def integers(self, low, high, size):
        assert self.calls < len(self.ranges), f"unexpected call integers({low}, {high}, {size})"
        assert (low, high, size) == (*self.ranges[self.calls], self.size), (
            f"call {self.calls} was integers({low}, {high}, {size}), expected "
            f"integers{(*self.ranges[self.calls], self.size)}")
        self.calls += 1
        digits = np.arange(size) // self.stride % (high - low) + low
        self.stride *= high - low
        return digits

    def finished(self):
        return self.calls == len(self.ranges)


def seating(k):
    """The calls of one seating of k arrivals: one row of the table of the
    first c, then arrival t answers -1..t-1."""
    c = min(k, sampling._TABLED)
    return [(0, math.factorial(c))] + [(-1, t) for t in range(c, k)]


def insertion(n):
    """The calls that draw the predecessors of one of n players: one entry
    of the table of the first c insertions, then the k-th other player
    takes one of k + 1 places in the queue."""
    c = min(n - 1, sampling._TABLED - 1)
    return [(0, math.factorial(c + 1))] + [(0, k + 1) for k in range(c + 1, n)]


TABLED = sampling._TABLED


@pytest.fixture(params=[1, 3, TABLED], ids=lambda c: f"tabled={c}")
def tabled(request, monkeypatch):
    monkeypatch.setattr(sampling, "_TABLED", request.param)
    return request.param


@pytest.mark.parametrize("c", range(7))
def test_each_seating_table_is_the_loop_run_through_every_draw(monkeypatch, c):
    """The table for c holds what the per-arrival draws give at every
    combination of digits, arrival t's founder and founded table in columns
    2t and 2t + 1."""
    monkeypatch.setattr(sampling, "_TABLED", 0)
    rng = Odometer(seating(c))
    bits = np.left_shift(1, np.arange(c))
    blocks, founder = sampling._seat_shard(rng, rng.size, bits, sampling._expand(bits))
    assert rng.finished()
    loop = np.stack([founder // rng.size, blocks]).reshape(2, c, rng.size)
    loop = loop.transpose(2, 1, 0).reshape(rng.size, 2 * c)
    assert np.array_equal(sampling._seating_table(c), loop)


@pytest.mark.parametrize("c", range(7))
def test_each_queue_table_is_the_loop_run_through_every_draw(monkeypatch, c):
    """Entry u of the table for c: the mask of the first c inserted players
    that land ahead, in the low byte, and their count in the high byte."""
    monkeypatch.setattr(sampling, "_TABLED", 1)
    rng = Odometer(insertion(c + 1))
    others = np.left_shift(1, np.arange(c), dtype=np.int32)
    S = sampling._queue_shard(rng, rng.size, others, sampling._expand(others[:0]))
    assert rng.finished()
    loop = [s + (s.bit_count() << 8) for s in S.tolist()]
    assert sampling._queue_table(c).tolist() == loop


@pytest.mark.usefixtures("tabled")
@pytest.mark.parametrize(
    "players",
    [prefix(n) for n in range(1, 9)] + [partitions.mask_from((0, 3, 4, 9, 31))],
    ids=lambda mask: str(partitions.members(mask)),
)
def test_seating_law_is_the_uniform_crp(monkeypatch, players):
    rng = Odometer(seating(partitions.size(players)))
    monkeypatch.setattr(sampling, "_generator", lambda seed_sequence: rng)
    monkeypatch.setattr(sampling, "_SHARD", rng.size)
    tally = Counter(sampling.sample_crp(players, seed=0, count=rng.size))
    assert rng.finished()
    law = {pi: Fraction(c, rng.size) for pi, c in tally.items()}
    assert law == PSTAR.distribution(players)


def exact_sum(draws, scale=1):
    """The draws times ``scale`` as one exact integer sum, each checked to
    lie within float error of an integer."""
    k = np.rint(draws * scale)
    assert np.abs(draws * scale - k).max(initial=0) < 1e-9
    return int(k.astype(np.int64).sum())


@pytest.mark.usefixtures("tabled")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mpw_draws_average_to_the_mpw_value_on_the_dirac_basis(n):
    N = prefix(n)
    for _, w in tux_games.dirac_basis(N):
        exact = tux_games.mpw_value(w)
        for i in partitions.members(N):
            rng = Odometer(insertion(n) + seating(n))
            draws = sampling._mpw_samples(w, i)(rng, rng.size)
            assert rng.finished()
            assert Fraction(exact_sum(draws), rng.size) == exact[i]


@pytest.mark.usefixtures("tabled")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mpw_draws_on_a_tu_game_average_to_the_mpw_value_without_seating(n):
    N = prefix(n)
    for S in partitions.subsets(N):
        if not S:
            continue
        v = tu_games.dirac_game(N, S)
        exact = tux_games.mpw_value(tux_games.lift_tu_game(v))
        for i in partitions.members(N):
            rng = Odometer(insertion(n))
            draws = sampling._mpw_samples(v, i)(rng, rng.size)
            assert rng.finished()
            assert Fraction(exact_sum(draws), rng.size) == exact[i]


@pytest.mark.usefixtures("tabled")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_shapley_draws_average_to_the_shapley_value_on_the_dirac_basis(n):
    """A draw is k/n with |k| <= n, so n times it rounds to k exactly."""
    N = prefix(n)
    for S in partitions.subsets(N):
        if not S:
            continue
        v = tu_games.dirac_game(N, S)
        exact = tu_games.shapley_value(v)
        for i in partitions.members(N):
            rng = Odometer(seating(n - 1))
            draws = sampling._crp_shapley_samples(v, i)(rng, rng.size)
            assert rng.finished()
            assert Fraction(exact_sum(draws, n), n * rng.size) == exact[i]
