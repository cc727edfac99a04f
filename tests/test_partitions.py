import math

import pytest
from hypothesis import given, strategies as st

from pfgames import formats, partitions
from pfgames.errors import CapacityError
from pfgames.partitions import (
    bell_number,
    canonical_partition,
    embedded_count,
    enumerate_embedded,
    enumerate_partitions,
    insert_player,
    is_partition_of,
    mask_from,
    members,
    placements,
    set_universe_bound,
    subsets,
)

from .corpus import prefix


def blocks(*ids_lists):
    return formats.partition_from_lists(ids_lists)


@pytest.fixture
def small_universe():
    old = set_universe_bound(3)
    yield
    set_universe_bound(old)


def test_bell_recursion_values():
    assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@pytest.mark.parametrize("n", range(9))
def test_enumeration_count_matches_bell(n):
    found = enumerate_partitions(mask_from(range(n)))
    assert len(found) == bell_number(n)
    assert len(set(found)) == len(found)


def test_partitions_of_empty_set():
    assert enumerate_partitions(0) == ((),)


def test_partitions_of_single_player():
    assert enumerate_partitions([1]) == ((mask_from([1]),),)


def test_partitions_of_four_players():
    assert len(enumerate_partitions([1, 2, 3, 4])) == 15


def test_enumerated_partitions_are_canonical():
    mask = mask_from([1, 2, 3, 4, 5])
    for pi in enumerate_partitions(mask):
        assert is_partition_of(pi, mask)
        assert canonical_partition(pi) == pi


def test_partition_position_serves_every_player_set():
    for mask in partitions.subsets(mask_from([1, 2, 3, 5, 6])):
        for k, pi in enumerate(enumerate_partitions(mask)):
            assert partitions.partition_position(pi) == k
    for bad in ((0b1100, 0b0010), (0b0110, 0b0011)):  # out of order, overlapping
        with pytest.raises(ValueError, match="not a canonical partition"):
            partitions.partition_position(bad)


def test_enumeration_is_deterministic():
    a = enumerate_partitions([1, 2, 3, 4])
    b = enumerate_partitions([1, 2, 3, 4])
    assert a == b


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 5), (3, 15), (4, 52)])
def test_embedded_counts(n, count):
    mask = mask_from(range(1, n + 1))
    found = enumerate_embedded(mask)
    assert len(found) == count == embedded_count(n)
    assert len(set(found)) == len(found)
    for S, pi in found:
        assert S & ~mask == 0
        assert is_partition_of(pi, mask & ~S)


def test_embedded_count_is_the_next_bell_number():
    """Adding a point to N makes each ``(S, pi)`` the partition of N plus the
    point whose block of the point is S plus it, over the range the bound
    check asks for."""
    for n in range(33):
        assert embedded_count(n) == bell_number(n + 1) == sum(
            math.comb(n, s) * bell_number(n - s) for s in range(n + 1))


def test_embedded_of_single_player():
    one = mask_from([1])
    # the empty coalition comes first, then the player itself
    assert enumerate_embedded(one) == ((0, (one,)), (one, ()))


def test_embedded_of_empty_set():
    assert enumerate_embedded(0) == ((0, ()),)


def test_capacity_error(small_universe):
    with pytest.raises(CapacityError):
        enumerate_partitions([1, 2, 3, 4])
    with pytest.raises(CapacityError):
        enumerate_embedded([1, 2, 3, 4])
    assert len(enumerate_partitions([1, 2, 3])) == 5


@pytest.fixture
def restored_bound():
    old = partitions.universe_bound()
    yield
    set_universe_bound(old)


@pytest.mark.parametrize("name", [
    "enumerate_partitions", "enumerate_embedded", "embedded_index", "runs",
    "placement_positions", "placement_classes",
])
def test_every_table_refuses_past_the_bound_once_built(name, restored_bound):
    """A table built at the default bound is refused, not served from its
    cache, once the bound falls below its player set; ids and the mask
    name one cached table."""
    table = getattr(partitions, name)
    args = (1,) if name.startswith("placement") else ()
    built = table(prefix(5), *args)
    assert table([1, 2, 3, 4, 5], *args) is built
    set_universe_bound(3)
    for players in (prefix(5), [1, 2, 3, 4, 5]):
        with pytest.raises(CapacityError, match="size 5 exceeds the universe bound 3"):
            table(players, *args)
    assert table([1, 2, 3], *args) is table(0b1110, *args)


def test_insert_as_singleton():
    assert insert_player(blocks([2], [3]), 1) == blocks([1], [2], [3])


def test_insert_into_block():
    assert insert_player(blocks([2], [3]), 1, mask_from([2])) == blocks([1, 2], [3])


def test_insert_into_empty_partition():
    assert insert_player((), 1) == blocks([1])


def test_insert_rejects_present_player():
    with pytest.raises(ValueError):
        insert_player(blocks([1], [2]), 1)


def test_insert_rejects_foreign_target():
    with pytest.raises(ValueError):
        insert_player(blocks([2], [3]), 1, mask_from([4]))


@st.composite
def partition_with_insertion(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.sets(st.integers(min_value=0, max_value=7), min_size=n, max_size=n))
    ids = sorted(ids)
    new = ids.pop(draw(st.integers(min_value=0, max_value=n - 1)))
    rest = ids
    # restricted-growth assignment over the remaining ids
    assignment = []
    top = 0
    for _ in rest:
        choice = draw(st.integers(min_value=0, max_value=top))
        assignment.append(choice)
        top = max(top, choice + 1)
    grouped = {}
    for player, label in zip(rest, assignment):
        grouped.setdefault(label, []).append(player)
    pi = formats.partition_from_lists(list(grouped.values()))
    target_choices = list(pi) + [0]
    target = draw(st.sampled_from(target_choices))
    return pi, new, target


@given(partition_with_insertion())
def test_insert_then_delete_round_trip(case):
    pi, i, target = case
    bit = partitions.singleton(i)
    grown = insert_player(pi, i, target)
    assert canonical_partition(B & ~bit for B in grown if B != bit) == pi


@given(partition_with_insertion())
def test_insert_produces_canonical_partition(case):
    pi, i, target = case
    grown = insert_player(pi, i, target)
    assert canonical_partition(grown) == grown
    assert is_partition_of(grown, partitions.union_of(pi) | (1 << i))


@given(partition_with_insertion())
def test_placements_are_the_insertions_in_block_order(case):
    pi, i, _ = case
    assert list(placements(pi, i)) == [(B, insert_player(pi, i, B)) for B in pi + (0,)]


def test_placements_keep_blocks_canonical():
    pi = blocks([1], [4, 5], [6])
    assert list(placements(pi, 3)) == [
        (mask_from([1]), (mask_from([1, 3]), mask_from([4, 5]), mask_from([6]))),
        (mask_from([4, 5]), (mask_from([1]), mask_from([3, 4, 5]), mask_from([6]))),
        (mask_from([6]), (mask_from([1]), mask_from([3, 6]), mask_from([4, 5]))),
        (0, (mask_from([1]), mask_from([3]), mask_from([4, 5]), mask_from([6]))),
    ]
    assert list(placements((), 3)) == [(0, blocks([3]))]


def test_canonical_partition_rejects_overlap_and_empty():
    with pytest.raises(ValueError):
        canonical_partition((mask_from([1, 2]), mask_from([2, 3])))
    with pytest.raises(ValueError):
        canonical_partition((0,))


def test_canonical_orders_by_least_member():
    pi = canonical_partition((mask_from([2, 5]), mask_from([1]), mask_from([3])))
    assert pi == (mask_from([1]), mask_from([2, 5]), mask_from([3]))


def test_subsets_ascending_and_complete():
    mask = mask_from([1, 3])
    assert list(subsets(mask)) == [0, 2, 8, 10]


@pytest.mark.parametrize("players", [*(range(1, n + 1) for n in range(9)), (0, 3, 4, 9, 17)],
                         ids=lambda players: str(list(players)))
def test_subset_position_is_the_index_in_subsets_order(players):
    N = mask_from(players)
    order = list(subsets(N))
    assert [partitions.subset_position(N, S) for S in order] == list(range(len(order)))


def test_subset_position_ignores_players_outside_the_set():
    assert partitions.subset_position(mask_from([1, 3]), mask_from([0, 3, 5])) == 2


def test_block_of():
    pi = blocks([1, 2], [3])
    assert partitions.block_of(pi, 2) == mask_from([1, 2])
    with pytest.raises(ValueError):
        partitions.block_of(pi, 4)


def test_mask_utilities():
    mask = mask_from([0, 2, 5])
    assert members(mask) == (0, 2, 5)
    assert partitions.size(mask) == 3
    assert partitions.least_member(mask) == 0
    with pytest.raises(ValueError):
        mask_from([1, 1])
    with pytest.raises(ValueError):
        mask_from([-1])


def test_universe_bound_is_refused_past_the_embedded_coalition_budget():
    # judged by the count alone: nothing is enumerated
    assert embedded_count(10) <= partitions.MAX_EMBEDDED_COALITIONS < embedded_count(11)
    before = partitions.universe_bound()
    for n in (11, 12, 40, 10**9):
        with pytest.raises(CapacityError):
            set_universe_bound(n)
        assert partitions.universe_bound() == before
    assert set_universe_bound(10) == before
    assert set_universe_bound(before) == 10
