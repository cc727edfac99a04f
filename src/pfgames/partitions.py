"""Coalitions, set partitions, and embedded coalitions over small player sets.

Players are small non-negative integers. A coalition is an int bitmask with
bit ``i`` set for player ``i``; a partition is a tuple of pairwise disjoint
nonempty block masks sorted by least member; an embedded coalition is a pair
``(S, pi)`` where ``pi`` partitions the complement of ``S``. ``placements``
is the one way a partition grows by a player: the player joins a block or
stays alone. Everything is an immutable value, so all operations here are
pure. The tables built per player set are memoized with ``functools.cache``
(the partition positions by one dict, filled a player set at a time); a
concurrent first use may build a table twice, but both builds are equal, so
the tables are safe to share across threads.

Two lazily built tables give integer positions in ``enumerate_embedded``
order, so hot loops index a worth table instead of hashing ``(S, pi)``:
``runs(players)``, the only code that knows where the cells of a coalition
lie, serves the TU lift, the externality-free test and the rows of a
family's run tables (``RandomPartitionFamily.outside_runs``, the average
game, and ``block_runs``, the p-Shapley game: each a ``LinearMap`` whose
row of S reads S's run and sits, as S's worth in a TU game does, at
``subset_position(players, S)``);
``placement_positions(players, i)``, built from ``placements``, serves the
null-player witness games and the RES check, and gives the null-player
test its one gather, ``placement_classes(players, i)``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator

from .errors import CapacityError

Coalition = int
Partition = tuple[int, ...]
EmbeddedCoalition = tuple[int, Partition]

# Bitmasks are fixed-width: player ids must fit in MAX_PLAYER_ID bits.
MAX_PLAYER_ID = 31

DEFAULT_UNIVERSE_BOUND = 8
_universe_bound = DEFAULT_UNIVERSE_BOUND

# Bounds past this many embedded coalitions are refused: the ceiling is 10.
MAX_EMBEDDED_COALITIONS = 10**6

EMPTY: Coalition = 0


def universe_bound() -> int:
    """Largest admitted cardinality for enumerated player sets."""
    return _universe_bound


def set_universe_bound(n: int) -> int:
    """Set the bound, returning the old one; refused past MAX_EMBEDDED_COALITIONS."""
    global _universe_bound
    if n < 0:
        raise ValueError("universe bound must be non-negative")
    # no player set is larger than MAX_PLAYER_ID + 1, and the count grows with n
    if embedded_count(min(n, MAX_PLAYER_ID + 1)) > MAX_EMBEDDED_COALITIONS:
        raise CapacityError(f"universe bound {n} admits player sets with more than "
                            f"{MAX_EMBEDDED_COALITIONS} embedded coalitions")
    old = _universe_bound
    _universe_bound = n
    return old


def mask_from(players: Iterable[int]) -> Coalition:
    """Pack an iterable of player ids into a coalition mask."""
    mask = 0
    for i in players:
        if not 0 <= i <= MAX_PLAYER_ID:
            raise ValueError(f"player id {i} outside supported range 0..{MAX_PLAYER_ID}")
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"duplicate player id {i}")
        mask |= bit
    return mask


def as_mask(players) -> Coalition:
    """Coerce an int mask or an iterable of ids to a coalition mask."""
    if isinstance(players, int):
        if players < 0:
            raise ValueError("coalition mask must be non-negative")
        return players
    return mask_from(players)


def members(mask: Coalition) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def size(mask: Coalition) -> int:
    return mask.bit_count()


def contains(mask: Coalition, i: int) -> bool:
    return bool(mask >> i & 1)


def singleton(i: int) -> Coalition:
    if not 0 <= i <= MAX_PLAYER_ID:
        raise ValueError(f"player id {i} outside supported range 0..{MAX_PLAYER_ID}")
    return 1 << i


def least_member(mask: Coalition) -> int:
    if mask == 0:
        raise ValueError("empty coalition has no least member")
    return (mask & -mask).bit_length() - 1


def subsets(mask: Coalition) -> Iterator[Coalition]:
    """All submasks of ``mask`` including 0 and ``mask``, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # standard subset-stepping trick: next submask in ascending order
        sub = (sub - mask) & mask


def _check_capacity(mask: Coalition) -> None:
    n = mask.bit_count()
    if n > _universe_bound:
        raise CapacityError(
            f"player set of size {n} exceeds the universe bound {_universe_bound}"
        )


def canonical_partition(blocks: Iterable[Coalition]) -> Partition:
    """Sort blocks by least member and validate disjointness/nonemptiness."""
    blocks = tuple(blocks)
    union = 0
    for block in blocks:
        if block == 0:
            raise ValueError("partition blocks must be nonempty")
        if union & block:
            raise ValueError("partition blocks must be pairwise disjoint")
        union |= block
    return tuple(sorted(blocks, key=least_member))


def union_of(pi: Partition) -> Coalition:
    mask = 0
    for block in pi:
        mask |= block
    return mask


def is_partition_of(pi: Partition, players: Coalition) -> bool:
    if not isinstance(pi, tuple):
        return False
    union = 0
    for block in pi:
        if block == 0 or union & block:
            return False
        union |= block
    return union == players and pi == tuple(sorted(pi, key=least_member))


def block_of(pi: Partition, i: int) -> Coalition:
    """The block of ``pi`` containing player ``i``."""
    bit = 1 << i
    for block in pi:
        if block & bit:
            return block
    raise ValueError(f"player {i} is not covered by the partition")


def enumerate_partitions(players) -> tuple[Partition, ...]:
    """All partitions of the player set, canonical, in deterministic order.

    The empty set has exactly one partition, the empty tuple. Raises
    CapacityError beyond the universe bound.
    """
    mask = as_mask(players)
    _check_capacity(mask)
    return _partitions(mask)


@functools.cache
def _partitions(mask: Coalition) -> tuple[Partition, ...]:
    # grow by each player in ascending order: into every block, then alone
    result: list[Partition] = [()]
    for i in members(mask):
        result = [grown for pi in result for _, grown in placements(pi, i)]
    return tuple(result)


def enumerate_embedded(players) -> tuple[EmbeddedCoalition, ...]:
    """All pairs ``(S, pi)`` with ``S`` a subset and ``pi`` partitioning the rest.

    Includes ``S = 0``; the empty set yields the single pair ``(0, ())``.
    """
    mask = as_mask(players)
    _check_capacity(mask)
    return _embedded(mask)


@functools.cache
def _embedded(mask: Coalition) -> tuple[EmbeddedCoalition, ...]:
    return tuple((S, pi) for S in subsets(mask) for pi in enumerate_partitions(mask & ~S))


def embedded_index(players) -> dict[EmbeddedCoalition, int]:
    """Position of each embedded coalition in ``enumerate_embedded`` order."""
    return _embedded_index(as_mask(players))


@functools.cache
def _embedded_index(mask: Coalition) -> dict[EmbeddedCoalition, int]:
    return {cell: k for k, cell in enumerate(enumerate_embedded(mask))}


def runs(players) -> dict[Coalition, tuple[int, int]]:
    """Where each coalition's cells lie: ``{S: (start, end)}`` in ``subsets``
    order, the cells ``(S, rho)`` being positions ``start`` to ``end - 1`` of
    ``enumerate_embedded(players)``, with ``rho`` in ``enumerate_partitions``
    order of the rest. Built on first use per player set."""
    mask = as_mask(players)
    _check_capacity(mask)
    return _runs(mask)


@functools.cache
def _runs(mask: Coalition) -> dict[Coalition, tuple[int, int]]:
    table, end = {}, 0
    for S in subsets(mask):
        start, end = end, end + bell_number(size(mask & ~S))
        table[S] = start, end
    return table


def subset_position(players: Coalition, S: Coalition) -> int:
    """S's position in ``subsets(players)`` order: bit j of the position is
    set iff S holds the j-th player. Unchecked: players of S outside
    ``players`` are ignored. It indexes a TU game's worth table and the rows
    of a run table."""
    position, bit = 0, 1
    while S & players:
        low = players & -players
        if S & low:
            position |= bit
            S ^= low
        bit <<= 1
        players ^= low
    return position


_partition_positions: dict[Partition, int] = {}


def partition_position(pi: Partition) -> int:
    """Position of ``pi`` in ``enumerate_partitions`` of the players it covers.

    One table serves every player set, since a partition names its own;
    ValueError when ``pi`` is not canonical.
    """
    position = _partition_positions.get(pi)
    if position is None:
        for k, rho in enumerate(enumerate_partitions(union_of(pi))):
            _partition_positions[rho] = k
        position = _partition_positions.get(pi)
        if position is None:
            raise ValueError(f"{pi} is not a canonical partition")
    return position


PlacementRow = tuple[int, tuple[int, ...]]


def placement_positions(players, i: int) -> tuple[PlacementRow, ...]:
    """Where player ``i`` can go, as positions in ``enumerate_embedded(players)``.

    One row ``(inside, grown)`` per embedded coalition ``(S, pi)`` of the
    players other than ``i``, in their ``enumerate_embedded`` order:
    ``inside`` is the position of ``(S + i, pi)``, and ``grown`` holds the
    positions of ``(S, grown)`` for each of ``placements(pi, i)`` in order,
    so ``grown[-1]`` leaves ``i`` alone. Built on first use per ``(players,
    i)``; ValueError when ``i`` is not a player.
    """
    return _placement_positions(as_mask(players), i)


@functools.cache
def _placement_positions(mask: Coalition, i: int) -> tuple[PlacementRow, ...]:
    bit = singleton(i)
    if not mask & bit:
        raise ValueError(f"player {i} is not in the player set")
    at = embedded_index(mask)
    return tuple(
        (at[(S | bit, pi)], tuple(at[(S, grown)] for _, grown in placements(pi, i)))
        for S, pi in enumerate_embedded(mask & ~bit)
    )


def placement_classes(players, i: int) -> tuple[int, ...]:
    """Per cell of ``enumerate_embedded(players)``, in order, the ``inside``
    of the one ``placement_positions`` row holding it, as ``inside`` or in
    ``grown``. Cached per ``(players, i)``; ValueError if ``i`` is no player."""
    return _placement_classes(as_mask(players), i)


@functools.cache
def _placement_classes(mask: Coalition, i: int) -> tuple[int, ...]:
    classes = [0] * len(enumerate_embedded(mask))
    for inside, grown in _placement_positions(mask, i):
        for k in (inside, *grown):
            classes[k] = inside
    return tuple(classes)


def placements(pi: Partition, i: int) -> Iterator[tuple[Coalition, Partition]]:
    """The ways to add a player ``i`` that ``pi`` does not cover (unchecked).

    Yields ``(B, grown)`` with ``i`` merged into each block ``B`` of ``pi`` in
    order, then ``(0, grown)`` with ``i`` alone; every ``grown`` is canonical.
    """
    bit = 1 << i
    at = 0  # i's block goes after the blocks whose least member is below i
    for k, B in enumerate(pi):
        if B & -B < bit:
            at = k + 1
            yield B, pi[:k] + (B | bit,) + pi[k + 1 :]
        else:
            yield B, pi[:at] + (B | bit,) + pi[at:k] + pi[k + 1 :]
    yield EMPTY, pi[:at] + (bit,) + pi[at:]


def insert_player(pi: Partition, i: int, target: Coalition = EMPTY) -> Partition:
    """Add player ``i`` to block ``target`` of ``pi``, or as a singleton.

    ``target`` must be a block of ``pi`` or the empty coalition.
    """
    bit = singleton(i)
    if union_of(pi) & bit:
        raise ValueError(f"player {i} is already covered by the partition")
    if target != EMPTY and target not in pi:
        raise ValueError("target is not a block of the partition")
    return next(grown for B, grown in placements(pi, i) if B == target)


def with_block(pi: Partition, block: Coalition) -> Partition:
    """``pi`` with a nonempty, disjoint ``block`` added (unchecked), canonical."""
    return tuple(sorted(pi + (block,), key=least_member))


@functools.cache
def bell_number(n: int) -> int:
    """Number of partitions of an n-set, via B(n+1) = sum C(n,k) B(k)."""
    if n < 0:
        raise ValueError("bell_number needs n >= 0")
    bell = [1]
    for m in range(n):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return bell[n]


def embedded_count(n: int) -> int:
    """Number of embedded coalitions on an n-set: sum C(n,s) B(n-s)."""
    return sum(math.comb(n, s) * bell_number(n - s) for s in range(n + 1))
