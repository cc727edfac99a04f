"""Monte Carlo layer: uniform Chinese restaurant draws and payoff estimators.

The only module that leaves exact arithmetic or imports numpy, so ``pfgames``
imports it on first use; the exact modules stay the oracle.

One numpy routine, ``_seat_shard``, seats a whole shard of draws at once,
arrival-major: one row of draws per arrival, read and written by flat
index. Players arrive in ascending id order; arrival t (counting from 0)
draws j uniformly from {-1, 0, ..., t-1}. It founds a table when j = -1
and otherwise joins the table of earlier arrival j, so it joins a table of
b players with probability b/(t+1) and founds one with probability
1/(t+1): the uniform Chinese restaurant process (Ewens rate 1). That law is
exchangeable, so no random arrival order is needed, and consistent under
restriction: deleting players from a uniform CRP partition of N leaves a
uniform CRP partition of the rest (Pitman, Combinatorial Stochastic
Processes, 2006, ch. 3). The first c = min(k, _TABLED) of k arrivals have
c! equally likely combinations of choices, so they are one draw u < c!
that reads row u of a cached table of every such seating
(``_seating_table``): arrival t's choice is the digit (u // t!) % (t + 1),
less one. Each later arrival draws on its own. The MPW target draws the
predecessors of i the same way, the first insertions as one entry of
``_queue_table``, seats N once per draw and cuts that one seating to both
outside partitions it needs, and finds each drawn cell's worth-table
position by two table lookups (``_cell_lookup``), not by a search. Worths
are read from one float table per game (``_floats``).

Randomness comes from numpy's counter-based Philox generator, so runs are
reproducible from the recorded seed; the samplers read it only through
``integers``. Shard k of an estimate draws from
``SeedSequence(seed, spawn_key=(k,))``, so memory does not grow with the
sample count, and shards merge with pooled mean/variance, so the combination
is order independent. ``GENERATOR_ID`` names the draw stream; a seed recorded
under an older stream ("numpy-philox", "numpy-philox-v2", "numpy-philox-v3")
gives different numbers here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import partitions, tux_games
from .partitions import Coalition, Partition
from .tu_games import Game, TuGame
from .tux_games import TuxGame

GENERATOR_ID = "numpy-philox-v4"
_SHARD = 4096
# the first _TABLED arrivals of a seating, and the first _TABLED - 1 queue
# insertions of an mpw draw, are one draw and one row of a cached table;
# at most 8, as the tables hold masks of arrivals in one byte
_TABLED = 8


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


def _generator(seed_sequence: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_sequence))


def _floats(game: Game):
    """The float nearest each worth, in table order, built on the first call
    for a game and kept in its ``_floats`` slot (read only)."""
    try:
        return game._floats
    except AttributeError:
        # int division is correctly rounded: the float nearest each exact worth
        table = np.array([x / game.den for x in game.nums])
        table.flags.writeable = False
        game._floats = table
        return table


@functools.cache
def _seating_table(c: int):
    """The (c!, 2c) uint8 table of every seating of arrivals 0..c-1.

    Row u is the seating whose arrival t drew (u // t!) % (t + 1) - 1.
    Columns 2t and 2t + 1 hold the arrival that founded t's table and the
    table t founded, as a mask of arrivals (0 when t joined one). Row
    u + (c-1)! (j + 1) is row u of the table for c - 1 with arrival c - 1
    joining arrival j's table (founding one when j = -1).
    """
    if c == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    t, prev = c - 1, _seating_table(c - 1)
    rows = len(prev)
    table = np.zeros((rows * c, 2 * c), dtype=np.uint8)
    for j in range(-1, t):
        part = table[(j + 1) * rows : (j + 2) * rows]
        part[:, : 2 * t] = prev
        if j < 0:
            part[:, 2 * t :] = t, 1 << t
        else:
            f = part[:, 2 * t] = prev[:, 2 * j]
            part[np.arange(rows), 2 * f + 1] |= 1 << t
    table.flags.writeable = False
    return table


@functools.cache
def _queue_table(c: int):
    """The (c+1)! uint16 outcomes of the first c insertions of an mpw queue.

    In entry u the k-th inserted player (from 1) takes place
    k - (u // k!) % (k + 1), and lands ahead of i when that is at most the
    number already ahead. An entry holds the mask of those ahead (bit k - 1
    for the k-th) in its low byte and their count in its high byte. Entry
    u + c! d is entry u of the table for c - 1 with the c-th at place c - d.
    """
    if c == 0:
        return np.zeros(1, dtype=np.uint16)
    prev = _queue_table(c - 1)
    ahead = np.uint16(256 + (1 << c - 1))
    table = np.concatenate([prev + (c - d <= prev >> 8) * ahead for d in range(c + 1)])
    table.flags.writeable = False
    return table


def _expand(bits):
    """``expand[mask]`` is the OR of ``bits[t]`` over the t in mask, for
    t < min(len(bits), _TABLED): it maps a table's masks of arrivals or of
    queued players to the caller's coalitions."""
    c = min(len(bits), _TABLED)
    expand = np.zeros(1 << c, dtype=bits.dtype)
    for t in range(c):
        expand[1 << t : 2 << t] = expand[: 1 << t] | bits[t]
    return expand


def _seat_shard(rng, m, bits, expand):
    """Seat ``m`` draws at once; arrival t carries ``bits[t]``, and
    ``expand`` is ``_expand(bits)``.

    The state is arrival-major: cell t * m + d holds arrival t of draw d.
    Returns ``(blocks, founder)``, flat over those len(bits) * m cells:
    ``blocks[c]`` is the OR of the bits at the table founded in cell c (0
    when its arrival joined a table), ``founder[c]`` the cell that founded
    cell c's table, so ``blocks[founder]`` is each arrival's table. Blocks
    have the dtype of ``bits``. The first c arrivals are one draw of a
    ``_seating_table(c)`` row; each later arrival is one draw of its own.
    """
    k, c = len(bits), len(expand).bit_length() - 1
    base = np.arange(m)
    founder = np.empty((k + 1) * m, dtype=np.intp)
    blocks = np.zeros(k * m, dtype=bits.dtype)
    row = _seating_table(c).take(rng.integers(0, math.factorial(c), size=m), axis=0).T
    # head, the tabled arrivals' founder cells, holds their masks first as
    # take's indices, so take makes no index array; "clip" spares its
    # buffered copy into out (every mask is in range)
    head = founder[: c * m].reshape(c, m)
    head[...] = row[1::2]
    expand.take(head, out=blocks[: c * m].reshape(c, m), mode="clip")
    head[...] = row[::2]
    head *= m
    head += base
    for t in range(c, k):
        j = rng.integers(-1, t, size=m)
        # j = -1 wraps to the spare last row, which holds each draw's cell t
        np.add(base, t * m, out=founder[k * m :])
        f = founder[t * m : (t + 1) * m] = founder[j * m + base]
        blocks[f] |= bits[t]
    return blocks, founder[: k * m]


def _queue_shard(rng, m, others, expand):
    """The predecessor masks of ``m`` mpw draws: ``others[k - 1]`` is the
    k-th player inserted into the queue, and ``expand`` is
    ``_expand(others[: _TABLED - 1])``. The k-th draws d from 0..k and
    takes place k - d. The first c insertions are one draw of a
    ``_queue_table(c)`` entry; each later one is one draw of its own.
    """
    c = len(expand).bit_length() - 1
    q = _queue_table(c).take(rng.integers(0, math.factorial(c + 1), size=m))
    S, ahead = expand.take(q & 255), q >> 8
    for k in range(c + 1, len(others) + 1):
        # place k - d is at most ahead
        before = rng.integers(0, k + 1, size=m) >= k - ahead
        S += before * others[k - 1]
        ahead += before
    return S


def sample_crp(players, seed: int, count: int) -> list[Partition]:
    """Draw partitions whose law is the uniform CRP (Ewens rate 1)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = _generator(_seed_sequence(seed))
    ids = partitions.members(partitions.as_mask(players))
    bits = np.array([partitions.singleton(p) for p in ids], dtype=np.int64)
    expand = _expand(bits)
    draws: list[Partition] = []
    for start in range(0, count, _SHARD):
        m = min(_SHARD, count - start)
        blocks, _ = _seat_shard(rng, m, bits, expand)
        # founders arrive in ascending id order, so blocks are already canonical
        draws.extend(tuple(b for b in row if b) for row in blocks.reshape(-1, m).T.tolist())
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


@functools.cache
def _subset_sizes(n: int):
    """The member count of each local mask of n players: the masks from 2^t
    up to 2^(t+1) are those below 2^t plus bit t, one member larger."""
    sizes = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        sizes = np.concatenate([sizes, sizes + 1])
    sizes.flags.writeable = False
    return sizes


def _crp_shapley_samples(v: TuGame, i: int):
    """Sampler ``(rng, m) -> m draws`` of the shapley target on ``v``.

    A draw is v(i)/n + sum over the blocks B of a CRP partition of the other
    players of |B|/n (v(B + i) - v(B)). Coalitions are local masks: local
    mask k is the k-th submask of ``v.players`` in ``partitions.subsets``
    order.
    """
    n = v.n
    bit = 1 << v.member_ids().index(i)
    worth = _floats(v)
    gain = _subset_sizes(n) / n * (worth[np.arange(1 << n) | bit] - worth)
    others = np.array([1 << t for t in range(n) if 1 << t != bit], dtype=np.int32)
    expand = _expand(others)

    def draw(rng, m):
        blocks, _ = _seat_shard(rng, m, others, expand)
        # a contiguous row per draw: numpy groups 8 or more summands by layout
        return worth[bit] / n + gain.take(blocks.reshape(-1, m).T).sum(axis=1)

    return draw


@functools.cache
def _cell_lookup(players: Coalition):
    """(lt, split, low, at): where the cells of ``enumerate_embedded(players)`` are.

    Coalitions are local masks. A cell (S, pi) has one mixed-radix digit per
    position p, in base p + 2: 0 for p in S, else the least member plus one
    of p's block. ``lt[p, own]`` is p's digit times its place value when
    ``own`` is p's block (0 when ``own`` misses p), place values restarting
    at ``split``: summed over the positions below ``split`` it gives the low
    code, over the rest the high code, and ``at[low[low code] + high code]``
    is the cell's position. A low code is the cell cut to the positions
    below ``split``, so ``at`` has embedded_count(split) runs; ``split``
    makes the tables smallest.
    """
    n = partitions.size(players)
    fact = math.factorial
    split = min(range(n + 1), key=lambda s: fact(s + 1)
                + partitions.embedded_count(s) * fact(n + 1) // fact(s + 1))
    radix, span = fact(split + 1), fact(n + 1) // fact(split + 1)
    labels = np.array([(k & -k).bit_length() for k in range(1 << n)])
    value = np.array([fact(p + 1) // (radix if p >= split else 1) for p in range(n)])
    member = np.arange(1 << n) >> np.arange(n)[:, None] & 1
    lt = labels * member * value[:, None]
    # a block's code is a function of the block alone; high codes are
    # scaled past every low code
    block = lt[:split].sum(axis=0) + radix * lt[split:].sum(axis=0)
    block_code = dict(zip(partitions.subsets(players), block.tolist()))
    cells = partitions.enumerate_embedded(players)
    codes = np.fromiter(
        (sum(map(block_code.__getitem__, pi)) for _, pi in cells), np.int64, len(cells)
    )
    high, low_code = np.divmod(codes, radix)
    seen = np.zeros(radix, dtype=bool)
    seen[low_code] = True
    low = ((np.cumsum(seen) - 1) * span).astype(np.int32)
    at = np.empty(int(seen.sum()) * span, dtype=np.int32)
    at[low[low_code] + high] = np.arange(len(cells))
    return lt.astype(np.int32), split, low, at


def _mpw_samples(w: TuGame | TuxGame, i: int):
    """Sampler ``(rng, m) -> m draws`` of the mpw target on ``w``.

    A draw takes the predecessors S of i in a uniform arrival order: the
    other players join a queue holding i one by one, in ascending position
    order, the k-th at one of the k + 1 places uniformly, so it lands ahead
    of i when its place is at most the number already ahead
    (``_queue_shard``). It then seats N once and cuts that seating to
    N - S - i and to N - S; the draw is w(S + i, first cut) - w(S, second
    cut). Each cut is a uniform CRP partition of its own player set, so the
    draw is an unbiased marginal of the average game, and it is 0 whenever i is a null player. A TU game's
    cell (S, pi) is worth w(S), so its draw is read at the local mask S,
    without seating or lifting.
    """
    n = w.n
    me = w.member_ids().index(i)
    worth = _floats(w)
    # wide enough for the local masks of a TU game's up to 19 players
    bits = np.left_shift(1, np.arange(n), dtype=np.int32)
    others = np.delete(bits, me)
    queue = _expand(others[: _TABLED - 1])
    everyone = (1 << n) - 1
    if not isinstance(w, TuGame):
        seat = _expand(bits)
        lt, split, low, at = _cell_lookup(w.players)
        # p's row of lt, read at p's block within the outside set
        row = (np.arange(n, dtype=np.int32) << n)[:, None]

    def draw(rng, m):
        S = _queue_shard(rng, m, others, queue)
        if isinstance(w, TuGame):
            return worth[S | bits[me]] - worth[S]
        blocks, founder = _seat_shard(rng, m, bits, seat)
        seated = blocks.take(founder).reshape(n, m)
        outside = everyone & ~S
        own = np.concatenate([seated & (outside & ~bits[me]), seated & outside], axis=1)
        code = lt.take(own + row)
        x = worth.take(at.take(low.take(code[:split].sum(axis=0)) + code[split:].sum(axis=0)))
        return x[:m] - x[m:]

    return draw


def estimate_payoff(game, i: int, target: str, n_samples: int, seed: int) -> SampleEstimate:
    """Unbiased Monte Carlo estimate of a player's exact payoff.

    target "shapley": draw an outside partition from the uniform CRP and
    average the weighted marginal contribution of joining each block or
    staying alone. Needs a TU game (a partition-function game qualifies when
    it is externality free).

    target "mpw": draw the predecessor coalition S of a uniform arrival
    order and one CRP seating of all players; cut the seating to the players
    outside S+i and to those outside S, and average the difference of the
    two worths. Each cut is a uniform CRP partition of its own players, so
    this is an unbiased marginal of the average game; a null player's every
    draw is 0.
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
    if not game.players & partitions.singleton(i):
        raise ValueError(f"player {i} is not in the game")

    draw = sampler(game, i)
    # shard k draws from the k-th child SeedSequence(seed).spawn would give;
    # each child is made, drawn and pooled in turn
    shards = (
        (_seed_sequence(seed, (k,)), min(_SHARD, n_samples - start))
        for k, start in enumerate(range(0, n_samples, _SHARD))
    )
    count, mean, m2 = _pool(_moments(draw(_generator(child), m)) for child, m in shards)
    std_error = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return SampleEstimate(mean, std_error, count, seed)
