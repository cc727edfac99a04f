"""Monte Carlo layer: uniform Chinese restaurant draws and payoff estimators.

The only module that leaves exact arithmetic or imports numpy, so ``pfgames``
imports it on first use; the exact modules stay the oracle.

One numpy routine, ``_seat_shard``, seats a whole shard of draws at once.
Players arrive in ascending id order; arrival t (counting from 0) draws j
uniformly from {-1, 0, ..., t-1}. It founds a table when j = -1 and
otherwise joins the table of earlier arrival j, so it joins a table of b
players with probability b/(t+1) and founds one with probability 1/(t+1):
the uniform Chinese restaurant process (Ewens rate 1). That law is
exchangeable, so no random arrival order is needed, and consistent under
restriction: deleting players from a uniform CRP partition of N leaves a
uniform CRP partition of the rest (Pitman, Combinatorial Stochastic
Processes, 2006, ch. 3). The MPW target draws its outside partitions by
restricting full seatings of N.

Randomness comes from numpy's counter-based Philox generator, so runs are
reproducible from the recorded seed. Shard k of an estimate draws from
``SeedSequence(seed, spawn_key=(k,))``, so memory does not grow with the
sample count, and shards merge with pooled mean/variance, so the combination
is order independent. ``GENERATOR_ID`` names the draw stream; a seed recorded
under the older "numpy-philox" stream gives different numbers here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import partitions, tux_games
from .partitions import Coalition, Partition
from .tu_games import Game, TuGame
from .tux_games import TuxGame

GENERATOR_ID = "numpy-philox-v2"
_SHARD = 4096


@dataclass(frozen=True)
class SampleEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    generator: str = GENERATOR_ID


def _seed_sequence(seed, spawn_key=()) -> np.random.SeedSequence:
    try:
        return np.random.SeedSequence(seed, spawn_key=spawn_key)
    except (TypeError, ValueError):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from None


def _seat_shard(rng, m, bits):
    """Seat ``m`` draws at once; arrival t carries ``bits[t]``.

    Returns ``(blocks, founder)``, both of shape (m, len(bits)):
    ``blocks[d, t]`` is the OR of the bits at the table arrival t founded
    (0 when it joined a table), ``founder[d, t]`` the arrival that founded
    arrival t's table. Blocks have the dtype of ``bits``; at most 127
    arrivals.
    """
    k = len(bits)
    rows = np.arange(m)
    founder = np.empty((m, k), dtype=np.int8)
    blocks = np.zeros((m, k), dtype=bits.dtype)
    for t in range(k):
        j = rng.integers(-1, t, size=m)
        # j = -1 reads an unset column; np.where discards it
        f = np.where(j < 0, t, founder[rows, j])
        founder[:, t] = f
        blocks[rows, f] |= bits[t]
    return blocks, founder


def sample_crp(players, seed: int, count: int) -> list[Partition]:
    """Draw partitions whose law is the uniform CRP (Ewens rate 1)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    ids = partitions.members(partitions.as_mask(players))
    bits = np.array([partitions.singleton(p) for p in ids], dtype=np.int64)
    draws: list[Partition] = []
    for start in range(0, count, _SHARD):
        blocks, _ = _seat_shard(rng, min(_SHARD, count - start), bits)
        # founders arrive in ascending id order, so blocks are already canonical
        draws.extend(tuple(b for b in row if b) for row in blocks.tolist())
    return draws


def _pool(stats):
    """Combine per-shard (count, mean, M2) Welford accumulators."""
    count, mean, m2 = 0, 0.0, 0.0
    for c, mu, s in stats:
        if c == 0:
            continue
        delta = mu - mean
        total = count + c
        mean += delta * c / total
        m2 += s + delta * delta * count * c / total
        count = total
    return count, mean, m2


def _moments(x):
    """(count, mean, M2) of one shard's draws."""
    mean = float(x.mean())
    return len(x), mean, float(np.square(x - mean).sum())


def _crp_shapley_samples(v: TuGame, i: int):
    """Sampler ``(rng, m) -> m draws`` of the shapley target on ``v``.

    A draw is v(i)/n + sum over the blocks B of a CRP partition of the other
    players of |B|/n (v(B + i) - v(B)). Coalitions are local masks: local
    mask k is the k-th submask of ``v.players`` in ``partitions.subsets``
    order.
    """
    n = v.n
    bit = 1 << v.member_ids().index(i)
    # int division is correctly rounded: the float nearest each exact worth
    worth = np.array([x / v.den for x in v.nums])
    local = np.arange(1 << n)
    size = sum((local >> t) & 1 for t in range(n))
    gain = size / n * (worth[local | bit] - worth)
    others = np.array([1 << t for t in range(n) if 1 << t != bit], dtype=np.int32)

    def draw(rng, m):
        blocks, _ = _seat_shard(rng, m, others)
        return worth[bit] / n + gain[blocks].sum(axis=1)

    return draw


_code_cache: dict[Coalition, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _cell_codes(players: Coalition):
    """(sorted codes, their rows, labels) for ``enumerate_embedded(players)``.

    Players are local positions 0..n-1 and coalitions local masks. The code
    of (S, pi) has, in the field of each position p outside S, the label of
    p's block: its least member plus one; fields of S are 0. ``labels[k]``
    is the label of local mask k (0 for the empty mask). Fields are
    n.bit_length() bits wide, so a code fits in int64 up to 15 players.
    """
    cached = _code_cache.get(players)
    if cached is None:
        n = partitions.size(players)
        width = n.bit_length()
        labels = [(k & -k).bit_length() for k in range(1 << n)]
        # the code contribution of a block is a function of the block alone
        block_code = {
            B: sum(labels[k] << width * t for t in range(n) if k >> t & 1)
            for k, B in enumerate(partitions.subsets(players))
        }
        cells = partitions.enumerate_embedded(players)
        codes = np.fromiter(
            (sum(block_code[B] for B in pi) for _, pi in cells), np.int64, len(cells)
        )
        rows = np.argsort(codes)
        codes.sort()
        cached = (codes, rows, np.array(labels, dtype=np.int16))
        _code_cache[players] = cached
    return cached


def _mpw_samples(w: TuGame | TuxGame, i: int):
    """Sampler ``(rng, m) -> m draws`` of the mpw target on ``w``.

    A draw takes the predecessors S of i in a uniform arrival order and
    seats N twice; the first seating restricted to N - S - i and the second
    restricted to N - S give the outside partitions, and the draw is
    w(S + i, first) - w(S, second). Only the worths of drawn cells are
    converted to float, once each. A TU game's cell (S, pi) is worth w(S),
    so its draw is read at the local mask S, without seating or lifting.
    """
    n = w.n
    me = w.member_ids().index(i)
    if isinstance(w, TuGame):
        worth = np.array([x / w.den for x in w.nums])
    else:
        codes, rows, labels = _cell_codes(w.players)
        worth = np.full(len(codes), np.nan)
    position = np.arange(n, dtype=np.int16)
    # wide enough for the local masks of a TU game's up to 19 players
    bits = np.left_shift(1, position, dtype=np.int32)
    field = np.left_shift(1, position * n.bit_length(), dtype=np.int64)
    everyone = (1 << n) - 1

    def draw(rng, m):
        arrival = rng.permuted(np.tile(position, (m, 1)), axis=1)
        upto = np.bitwise_or.accumulate(bits[arrival], axis=1)
        S = upto[np.arange(m), (arrival == me).argmax(axis=1)] & ~bits[me]
        if isinstance(w, TuGame):
            return worth[S | bits[me]] - worth[S]
        outside = np.concatenate([everyone & ~(S | bits[me]), everyone & ~S])[:, None]
        blocks, founder = _seat_shard(rng, 2 * m, bits)
        # the _cell_codes code of each drawn cell: p's block within the
        # outside set, labelled, in p's field when p is outside
        own = np.take_along_axis(blocks, founder, axis=1) & outside
        code = ((outside >> position) & 1) * labels[own] @ field
        drawn = rows[np.searchsorted(codes, code)]
        # not np.unique, which imports numpy.ma on first use
        seen = np.zeros(len(codes), dtype=bool)
        seen[drawn] = True
        new = np.flatnonzero(seen & np.isnan(worth)).tolist()
        worth[new] = [w.nums[r] / w.den for r in new]
        x = worth[drawn]
        return x[:m] - x[m:]

    return draw


def estimate_payoff(game, i: int, target: str, n_samples: int, seed: int) -> SampleEstimate:
    """Unbiased Monte Carlo estimate of a player's exact payoff.

    target "shapley": draw an outside partition from the uniform CRP and
    average the weighted marginal contribution of joining each block or
    staying alone. Needs a TU game (a partition-function game qualifies when
    it is externality free).

    target "mpw": draw a uniform arrival order; for the predecessor
    coalition S, draw independent CRP partitions of the players outside
    S+i and outside S, and average the difference of the two worths. This is
    an unbiased marginal of the average game.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _seed_sequence(seed)  # refuse a bad seed before any work
    if target == "shapley":
        game = tux_games.as_tu_game(game)
        if game is None:
            raise ValueError("shapley target needs a TU game; this one has externalities")
        sampler = _crp_shapley_samples
    elif target == "mpw":
        if not isinstance(game, Game):
            raise ValueError("expected a TU or partition-function game, "
                             f"got {type(game).__name__}")
        sampler = _mpw_samples
    else:
        raise ValueError(f"unknown target {target!r}; expected 'shapley' or 'mpw'")
    if not partitions.contains(game.players, i):
        raise ValueError(f"player {i} is not in the game")

    draw = sampler(game, i)
    # shard k draws from the k-th child SeedSequence(seed).spawn would give;
    # each child is made, drawn and pooled in turn
    shards = (
        (np.random.SeedSequence(seed, spawn_key=(k,)), min(_SHARD, n_samples - start))
        for k, start in enumerate(range(0, n_samples, _SHARD))
    )
    count, mean, m2 = _pool(
        _moments(draw(np.random.Generator(np.random.Philox(child)), m)) for child, m in shards
    )
    std_error = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return SampleEstimate(mean, std_error, count, seed)
