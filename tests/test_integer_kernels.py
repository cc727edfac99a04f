"""The integer kernels against the Fraction loops they replaced.

Each reference below is the term-by-term Fraction body a kernel had before
it ran over one common denominator; the kernels must give exactly the same
Fractions on seeded games whose worths include zeros, negatives and large
coprime denominators, over several families.
"""

import functools
import gc
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from pfgames import formats, partitions, tu_games, tux_games, verify
from pfgames.errors import PositivityError
from pfgames.random_partitions import (
    PSTAR,
    LinearMap,
    RandomPartitionFamily,
    ewens_family,
    over_common_denominator,
    perturbed_family,
    pull_back,
)
from pfgames.restriction_ops import (
    RestrictionOperator,
    _LinearForm,
    _SymbolicGame,
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from pfgames.tu_games import TuGame
from pfgames.tux_games import TuxGame, cell_index
from pfgames.verify import check_gen, null_player_witness

from .corpus import (
    mixed_denominator_cell,
    numerator_rule,
    prefix,
    rule_restrict,
    skewed_table_family,
)

ZERO = Fraction(0)
WIDE = (10**12 + 39, 10**12 + 61, 999_999_999_989)


def exact_worth(rng):
    pick = rng.random()
    if pick < 0.2:
        return ZERO
    if pick < 0.35:
        return Fraction(rng.randint(-7, 7), rng.choice(WIDE))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def wide_tu_game(n, rng):
    N = prefix(n)
    return TuGame(N, {S: exact_worth(rng) for S in partitions.subsets(N) if S})


def wide_tux_game(n, rng):
    N = prefix(n)
    return TuxGame(
        N, {cell: exact_worth(rng) for cell in partitions.enumerate_embedded(N) if cell[0]}
    )


FAMILIES = [
    PSTAR,
    ewens_family(Fraction(1, 2)),
    ewens_family(2),
    perturbed_family({4: Fraction(1, 24)}),
    perturbed_family({4: Fraction(1, 8)}),
    skewed_table_family(),
]
TU_GAMES = [wide_tu_game(n, random.Random(600 + n)) for n in range(0, 9)]
TUX_GAMES = [wide_tux_game(n, random.Random(700 + n)) for n in range(0, 7)]


def sparse_tu_games():
    """Games nonzero on one or two coalitions, one of them often N, on
    prefixes of 0 to 8 players and on a set that is not a prefix."""
    rng = random.Random(31)
    games = []
    for N in [prefix(n) for n in range(9)] + [partitions.mask_from([0, 3, 4, 9, 17])]:
        coalitions = list(partitions.subsets(N))[1:]
        games.append(TuGame(N))
        for _ in range(3 if N else 0):
            T, S = rng.choice(coalitions), rng.choice(coalitions)
            for support in ({N}, {T}, {N, T}, {S, T}):
                games.append(TuGame(N, {U: Fraction(rng.choice([-5, -1, 1, 3, 7]),
                                                    rng.choice((1, 6) + WIDE))
                                        for U in support}))
    return games


SPARSE_TU_GAMES = sparse_tu_games()


# --- the Fraction references --------------------------------------------------


def ref_shapley_value(v):
    n = v.n
    fact_n = math.factorial(n)
    weight = [Fraction(math.factorial(s) * math.factorial(n - s - 1), fact_n) for s in range(n)]
    payoff = {}
    for i in v.member_ids():
        bit = 1 << i
        rest = v.players & ~bit
        payoff[i] = sum(
            (weight[S.bit_count()] * (v.worth(S | bit) - v.worth(S))
             for S in partitions.subsets(rest)),
            ZERO,
        )
    return payoff


def ref_potential(v):
    memo = {0: ZERO}

    def pot(mask):
        value = memo.get(mask)
        if value is None:
            total = v.worth(mask)
            for i in partitions.members(mask):
                total += pot(mask & ~(1 << i))
            value = total / mask.bit_count()
            memo[mask] = value
        return value

    return pot(v.players)


def ref_potential_via_size_weights(v):
    n = v.n
    if n == 0:
        return ZERO
    fact_n = math.factorial(n)
    total = ZERO
    for S in partitions.subsets(v.players):
        s = S.bit_count()
        if s == 0:
            continue
        total += Fraction(math.factorial(s) * math.factorial(n - s), fact_n * s) * v.worth(S)
    return total


def ref_potential_via_random_partition(v):
    total = ZERO
    for pi, p in PSTAR.distribution(v.players).items():
        total += p * sum((v.worth(B) for B in pi), ZERO)
    return total


def ref_shapley_via_crp(v):
    n = v.n
    payoff = {}
    for i in v.member_ids():
        bit = 1 << i
        rest = v.players & ~bit
        total = ZERO
        for pi, p in PSTAR.distribution(rest).items():
            inner = Fraction(1, n) * v.worth(bit)
            for B in pi:
                inner += Fraction(B.bit_count(), n) * (v.worth(B | bit) - v.worth(B))
            total += p * inner
        payoff[i] = total
    return payoff


def ref_average_game(w, family):
    worth = {}
    for S in partitions.subsets(w.players):
        outside = w.players & ~S
        worth[S] = sum(
            (p * w.worth(S, pi) for pi, p in family.distribution(outside).items()), ZERO
        )
    return TuGame(w.players, worth)


def ref_block_mass(w, family):
    mass = {}
    for pi, p in family.distribution(w.players).items():
        if p == 0:
            continue
        for k, S in enumerate(pi):
            if x := w.worth(S, pi[:k] + pi[k + 1 :]):
                mass[S] = mass.get(S, ZERO) + p * x
    return mass


def ref_p_shapley_game(w, family):
    mass = ref_block_mass(w, family)
    return TuGame(w.players, {S: S.bit_count() * math.comb(w.n, S.bit_count()) * m
                              for S, m in mass.items()})


def ref_p_shapley_vector(w, family):
    return ref_shapley_value(ref_p_shapley_game(w, family))


def ref_is_null_player(w, i):
    bit = 1 << i
    for S, pi in partitions.enumerate_embedded(w.players & ~bit):
        inside = w.worth(S | bit, pi)
        if any(inside != w.worth(S, grown) for _, grown in partitions.placements(pi, i)):
            return False
    return True


def ref_placement_loop_is_null_player(w, i):
    """The null-player test as a loop over the placement rows, stopping at
    the first cell whose worth differs from its row's inside cell."""
    nums = w.nums
    for inside, grown in partitions.placement_positions(w.players, i):
        x = nums[inside]
        for k in grown:
            if nums[k] != x:
                return False
    return True


def ref_null_player_witness(N, i, pi, B):
    remainder = tuple(C for C in pi if C != B)
    coefficients = {(B | 1 << i, remainder): 1}
    for _, grown in partitions.placements(remainder, i):
        coefficients[(B, grown)] = 1
    return TuxGame.from_function(N, lambda S, pi: coefficients.get((S, pi), 0))


def ref_auxiliary_game(op, w):
    """The lattice walk on concrete subgames, the rule run once per node."""
    worth = {}

    def walk(game, last):
        worth[game.players] = game.worth(game.players, ())
        for h in partitions.members(game.players):
            if h > last:
                walk(rule_restrict(op, game, h), h)

    walk(w, -1)
    return TuGame(w.players, worth)


def _on_one_denominator(rows) -> LinearMap:
    """Rows {position: exact coefficient} as a LinearMap, in order, each of
    scale 1: zeros dropped, the rest integers over the lcm of their
    denominators, cells in read order: the form ``removal_matrix`` gives,
    built here without its row cache, for the eager references below."""
    rows = [{k: x for k, x in row.items() if x} for row in rows]
    den, flat = over_common_denominator(x for row in rows for x in row.values())
    coefficients = iter(flat)
    return LinearMap(den, tuple(
        (tuple(row), tuple(map(next, [coefficients] * len(row))), 1) for row in rows))


def ref_eager_removal_matrix(op, N, i):
    """The removal matrix built eagerly, apart from the operator's row cache:
    the rule run on unit linear forms at every cell of the subgame, each
    form's coefficients read over its den, then put on one denominator."""
    game = _SymbolicGame(N)
    forms = (_LinearForm({}) + op.restricted_worth(game, i, S, pi)
             for S, pi in partitions.enumerate_embedded(N & ~(1 << i)))
    return _on_one_denominator({k: Fraction(x, form.den) for k, x in form.coef.items()}
                               for form in forms)


def ref_eager_auxiliary_map(op, N):
    """The auxiliary map pulled back through whole removal matrices: every
    removal of the lattice of removed sets fetched from ``removal_matrix``
    (built whole and cached), depth first, and each coalition's unit row at
    its grand-coalition cell pulled back through the matrices of its chain."""
    rows = {}

    def walk(M, last, chain):
        row, den = {cell_index(M, M, ()): 1} if M else {}, 1
        for matrix in reversed(chain):
            row, den = pull_back(row, matrix.rows), den * matrix.den
        rows[M] = {q: Fraction(x, den) for q, x in row.items()}
        for h in partitions.members(M):
            if h > last:
                walk(M & ~(1 << h), h, chain + (op.removal_matrix(M, h),))

    walk(N, -1, ())
    return _on_one_denominator(map(rows.__getitem__, partitions.subsets(N)))


# --- TU kernels ---------------------------------------------------------------


@pytest.mark.parametrize("v", TU_GAMES, ids=lambda v: f"n={v.n}")
def test_tu_kernels_equal_their_fraction_references(v):
    assert tu_games.shapley_value(v) == ref_shapley_value(v)
    assert tu_games.shapley_via_crp(v) == ref_shapley_via_crp(v)
    pot = ref_potential(v)
    assert tu_games.potential(v) == pot
    assert tu_games.potential_via_size_weights(v) == ref_potential_via_size_weights(v) == pot
    assert tu_games.potential_via_random_partition(v) == ref_potential_via_random_partition(v)


def test_tu_kernels_on_players_that_are_not_a_prefix():
    """The CRP routes read ``PSTAR.inclusion`` on masks that are not prefixes."""
    rng = random.Random(5)
    N = partitions.mask_from([0, 3, 4, 9, 17])
    v = TuGame(N, {S: exact_worth(rng) for S in partitions.subsets(N) if S})
    assert tu_games.shapley_value(v) == ref_shapley_value(v)
    assert tu_games.shapley_via_crp(v) == ref_shapley_via_crp(v)
    assert tu_games.potential(v) == ref_potential(v)
    assert tu_games.potential_via_size_weights(v) == ref_potential_via_size_weights(v)
    assert tu_games.potential_via_random_partition(v) == ref_potential_via_random_partition(v)


@pytest.mark.parametrize("v", SPARSE_TU_GAMES, ids=lambda v: f"n={v.n}")
def test_tu_kernels_on_sparse_games_equal_their_fraction_references(v):
    """The CRP references enumerate partitions, so they run to 6 players."""
    assert tu_games.shapley_value(v) == ref_shapley_value(v)
    if v.n <= 6:
        assert tu_games.shapley_via_crp(v) == ref_shapley_via_crp(v)
        assert tu_games.potential_via_random_partition(v) == ref_potential_via_random_partition(v)


def test_shapley_tables_are_built_once_per_player_count(monkeypatch):
    tu_games._shapley_table.cache_clear()
    built = []
    factorials = tu_games._factorials
    monkeypatch.setattr(tu_games, "_factorials", lambda n: built.append(n) or factorials(n))
    for v in TU_GAMES + TU_GAMES:
        tu_games.shapley_value(v)
    assert built == list(range(9))
    table = tu_games._shapley_table(5)
    tu_games.shapley_value(TuGame(partitions.mask_from([0, 3, 4, 9, 17]), {1: 1}))
    assert tu_games._shapley_table(5) is table and built == list(range(9))


# --- partition-function kernels ----------------------------------------------


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.label)
def test_partition_function_kernels_equal_their_fraction_references(family):
    for w in TUX_GAMES:
        assert tux_games.average_game(w, family) == ref_average_game(w, family)
        assert tux_games.p_shapley_vector(w, family) == ref_p_shapley_vector(w, family)
        assert tux_games.expected_accumulated_worth(w, family) == sum(
            ref_block_mass(w, family).values(), ZERO)


def null_player_witnesses(n_max):
    for n in range(1, n_max + 1):
        N = prefix(n)
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    yield null_player_witness(N, i, pi, B)


@pytest.mark.parametrize("family", [*FAMILIES[:4], skewed_table_family()],
                         ids=lambda family: family.label)
def test_run_kernels_read_the_cells_past_a_zero_first_cell(family):
    """Witness games are 1 on a few cells, often not the first of their run;
    a kernel that judged a run by its first cell would drop them."""
    past = 0
    for w in null_player_witnesses(5):
        assert tux_games.average_game(w, family) == ref_average_game(w, family)
        assert tux_games.p_shapley_game(w, family) == ref_p_shapley_game(w, family)
        past += any(not w.nums[cells.start] and any(w.nums[cells.start:cells.stop])
                    for cells, _, _ in family.outside_runs(w.players).rows if cells)
    assert past >= 100


def test_run_tables_die_with_their_family():
    """The run tables live on the family, so a dropped family frees them."""
    family = ewens_family(Fraction(1, 2))
    alive = weakref.ref(family)
    w = TUX_GAMES[5]
    tux_games.mpw_value(w)
    tux_games.p_shapley_vector(w, family)
    tux_games.average_game(w, family)
    assert family._outside_cache and family._block_cache
    del family
    gc.collect()
    assert alive() is None


def test_partition_function_kernels_on_players_that_are_not_a_prefix():
    rng = random.Random(17)
    N = partitions.mask_from([0, 3, 4, 9, 17])
    w = TuxGame(N, {cell: exact_worth(rng) for cell in partitions.enumerate_embedded(N)
                    if cell[0]})
    null = null_player_witness(N, 9, formats.partition_from_lists([[0, 4], [3, 17]]),
                               partitions.mask_from([3, 17]))
    for family in FAMILIES[:3]:
        assert tux_games.p_shapley_vector(w, family) == ref_p_shapley_vector(w, family)
    for game in (w, null):
        for i in partitions.members(N):
            assert tux_games.is_null_player(game, i) == ref_is_null_player(game, i)
    assert tux_games.is_null_player(null, 9)


def test_mpw_equals_its_fraction_reference():
    for w in TUX_GAMES:
        assert tux_games.mpw_value(w) == ref_shapley_value(ref_average_game(w, PSTAR))


def test_null_player_kernel_equals_its_fraction_reference():
    N = prefix(4)
    scale = Fraction(3, WIDE[0])
    games = list(TUX_GAMES)
    for i in partitions.members(N):
        for pi in partitions.enumerate_partitions(N & ~(1 << i)):
            games.append(scale * null_player_witness(N, i, pi, pi[-1]))
    nulls = 0
    for w in games:
        for i in w.member_ids():
            expected = ref_is_null_player(w, i)
            assert tux_games.is_null_player(w, i) == expected
            nulls += expected
    assert nulls >= 15


def test_null_player_witnesses_equal_their_fraction_reference():
    for n in range(1, 5):
        N = prefix(n)
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    assert null_player_witness(N, i, pi, B) == ref_null_player_witness(
                        N, i, pi, B)


def test_null_player_kernel_on_eight_players_sees_one_bumped_cell():
    N, i = prefix(8), 5
    pi = partitions.enumerate_partitions(N & ~(1 << i))[321]
    game = null_player_witness(N, i, pi, pi[1])
    assert game == ref_null_player_witness(N, i, pi, pi[1])
    assert tux_games.is_null_player(game, i)
    remainder = pi[:1] + pi[2:]
    for _, grown in partitions.placements(remainder, i):
        bumped = game + tux_games.dirac_game(N, pi[1], grown)
        assert not tux_games.is_null_player(bumped, i)
        assert not ref_is_null_player(bumped, i)


def test_null_player_kernel_equals_the_placement_loop_on_every_witness_game():
    for n in range(1, 6):
        N = prefix(n)
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    game = null_player_witness(N, i, pi, B)
                    for j in partitions.members(N):
                        assert tux_games.is_null_player(game, j) == (
                            ref_placement_loop_is_null_player(game, j)), (n, i, pi, B, j)


def test_null_player_kernel_equals_the_placement_loop_on_games_null_but_at_one_cell():
    """Player i is null in a game worth r + 1 on the r-th placement row,
    or 0 where the row's coalition without i is empty; bumping any one
    nonempty cell, ({i}, pi) whose partners are empty-coalition cells
    included, makes i not null."""
    for n in range(1, 5):
        N = prefix(n)
        cells = partitions.enumerate_embedded(N)
        for i in partitions.members(N):
            base = [0] * len(cells)
            rows = partitions.placement_positions(N, i)
            for r, ((S, _), (inside, grown)) in enumerate(
                    zip(partitions.enumerate_embedded(N & ~(1 << i)), rows)):
                for k in (inside, *grown):
                    base[k] = r + 1 if S else 0
            null = TuxGame._from_numerators(N, 1, base)
            assert tux_games.is_null_player(null, i)
            for k, (S, _) in enumerate(cells):
                if not S:
                    continue
                nums = list(base)
                nums[k] += 1
                bumped = TuxGame._from_numerators(N, 1, nums)
                assert not ref_placement_loop_is_null_player(bumped, i)
                for j in partitions.members(N):
                    assert tux_games.is_null_player(bumped, j) == (
                        ref_placement_loop_is_null_player(bumped, j)), (n, i, cells[k], j)


# --- position tables -------------------------------------------------------------

TABLE_PLAYER_SETS = [prefix(n) for n in range(0, 6)] + [partitions.mask_from([0, 3, 4, 9, 17])]


def assert_placement_rows_equal_the_lookups(N, i):
    at = partitions.embedded_index(N)
    bit = 1 << i
    rows = partitions.placement_positions(N, i)
    cells = partitions.enumerate_embedded(N & ~bit)
    assert len(rows) == len(cells)
    for (S, pi), (inside, grown) in zip(cells, rows):
        assert inside == at[(S | bit, pi)]
        assert grown == tuple(at[(S, g)] for _, g in partitions.placements(pi, i))


def assert_placement_classes_hold_each_cell_once(N, i):
    """Each cell lies in exactly one placement row, and its class is that
    row's inside cell: the cell itself when it holds i, else the cell with
    i moved out of its block into the coalition."""
    bit = 1 << i
    cells = partitions.enumerate_embedded(N)
    held = sorted((k, inside) for inside, grown in partitions.placement_positions(N, i)
                  for k in (inside, *grown))
    assert [k for k, _ in held] == list(range(len(cells)))
    classes = partitions.placement_classes(N, i)
    assert classes == tuple(inside for _, inside in held)
    for (S, pi), c in zip(cells, classes):
        assert cells[c] == ((S, pi) if S & bit else (S | bit, partitions.canonical_partition(
            B & ~bit for B in pi if B != bit)))


def assert_runs_equal_the_embedded_order(N):
    """Each coalition's run is where ``enumerate_embedded`` lists its cells,
    the runs back to back in ``subsets`` order."""
    cells = partitions.enumerate_embedded(N)
    runs = partitions.runs(N)
    assert list(runs) == list(partitions.subsets(N))
    end = 0
    for S, (start, stop) in runs.items():
        assert start == end
        assert cells[start:stop] == tuple((S, rho) for rho in partitions.enumerate_partitions(N & ~S))
        end = stop
    assert end == len(cells)


def numbered_law_family():
    """Numerator k + 1 at the k-th partition: a weight names its partition."""
    def rule(mask):
        count = partitions.bell_number(mask.bit_count())
        return count * (count + 1) // 2, tuple(range(1, count + 1))

    return RandomPartitionFamily("numbered", rule)


def assert_block_runs_equal_the_lookups(N):
    at = partitions.embedded_index(N)
    expected = {at[(S, pi[:k] + pi[k + 1 :])]: p + 1
                for p, pi in enumerate(partitions.enumerate_partitions(N))
                for k, S in enumerate(pi)}
    rows = numbered_law_family().block_runs(N).rows
    got = {k: x for positions, weights, _ in rows for k, x in zip(positions, weights)}
    assert got == expected
    assert sum(len(weights) for _, weights, _ in rows) == len(expected)


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS, ids=lambda N: str(partitions.members(N)))
def test_position_tables_equal_the_embedded_index_lookups(N):
    for i in partitions.members(N):
        assert_placement_rows_equal_the_lookups(N, i)
    assert_runs_equal_the_embedded_order(N)
    assert_block_runs_equal_the_lookups(N)


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS + [prefix(6)],
                         ids=lambda N: str(partitions.members(N)))
def test_placement_classes_hold_each_cell_once_at_the_inside_cell_of_its_row(N):
    for i in partitions.members(N):
        assert_placement_classes_hold_each_cell_once(N, i)


def test_runs_on_every_subset_of_a_set_that_is_not_a_prefix():
    for N in partitions.subsets(partitions.mask_from([0, 3, 4, 9, 17])):
        assert_runs_equal_the_embedded_order(N)


def test_position_tables_on_eight_players():
    assert_placement_rows_equal_the_lookups(prefix(8), 5)
    assert_placement_classes_hold_each_cell_once(prefix(8), 5)
    assert_runs_equal_the_embedded_order(prefix(8))
    assert_block_runs_equal_the_lookups(prefix(8))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.label)
def test_block_run_weights_are_the_law_at_the_partitions_with_the_block(family):
    """The weight of the cell (S, rho) is p_N(rho + S), zero-probability
    partitions included (the skewed table gives one probability zero)."""
    for N in TABLE_PLAYER_SETS:
        den, rows = family.block_runs(N)
        for S, (_, weights, _) in zip(list(partitions.subsets(N))[1:], rows[1:]):
            assert [Fraction(x, den) for x in weights] == [
                family.prob(N, partitions.with_block(rho, S))
                for rho in partitions.enumerate_partitions(N & ~S)]


def run_tables(family, N):
    return [family.outside_runs(N), family.block_runs(N)]


def gathering(table):
    """The map with every ``range`` row's positions spelled out as a tuple,
    so ``apply`` gathers the cells it would have sliced."""
    return LinearMap(table.den, tuple((tuple(positions), coefficients, scale)
                                      for positions, coefficients, scale in table.rows))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.label)
def test_slicing_a_range_row_equals_gathering_it(family):
    rng = random.Random(28)
    for N in [prefix(n) for n in range(0, 7)] + [SCATTERED]:
        # nonzero at the empty coalition's cells too, which no row may read
        nums = [rng.randint(-10**12, 10**12) for _ in partitions.enumerate_embedded(N)]
        for table in run_tables(family, N):
            assert all(type(positions) is range for positions, _, _ in table.rows)
            assert table.apply(nums) == gathering(table).apply(nums), partitions.members(N)


def assert_one_row_per_output(table, outputs, empty):
    """One row per output, the rows of the first ``empty`` outputs (the empty
    coalition's) empty, a coefficient per position, and den positive."""
    assert table.den > 0
    assert len(table.rows) == outputs
    assert all(len(positions) == len(coefficients) for positions, coefficients, _ in table.rows)
    assert not any(positions or coefficients for positions, coefficients, _ in table.rows[:empty])


def assert_run_table_shapes(family, N):
    """A run table's row of S reads S's run, ``block_runs`` scales it by
    s C(n, s), and the rows of ``outside_runs`` share the laws' numerator
    tuples, uncopied."""
    runs = [range(*run) if S else range(0) for S, run in partitions.runs(N).items()]
    for table in run_tables(family, N):
        assert_one_row_per_output(table, 1 << partitions.size(N), 1)
        assert [positions for positions, _, _ in table.rows] == runs
    n = partitions.size(N)
    assert [scale for _, _, scale in family.block_runs(N).rows[1:]] == [
        S.bit_count() * math.comb(n, S.bit_count()) for S in partitions.subsets(N) if S]
    outside = family.outside_runs(N).rows
    assert all(coefficients is family.integer_distribution(N & ~S)[1]
               for S, (_, coefficients, _) in zip(partitions.subsets(N), outside) if S)


def test_slicing_a_range_row_equals_gathering_it_on_eight_players():
    N = prefix(8)
    assert_run_table_shapes(PSTAR, N)
    rng = random.Random(8)
    nums = [rng.randint(-9, 9) for _ in partitions.enumerate_embedded(N)]
    for table in run_tables(PSTAR, N):
        assert table.apply(nums) == gathering(table).apply(nums)


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS, ids=lambda N: str(partitions.members(N)))
def test_every_linear_map_has_one_row_per_output_and_an_empty_row_for_the_empty_coalition(N):
    """The run tables, the removal matrices, their compositions and the
    auxiliary maps are one shape; a removal matrix, composed or not, and an
    auxiliary map have scale 1."""
    for family in FAMILIES:
        assert_run_table_shapes(family, N)
    n, bell = partitions.size(N), partitions.bell_number
    for op in operators():
        for i in partitions.members(N):
            matrix = op.removal_matrix(N, i)
            assert_one_row_per_output(matrix, bell(n), bell(n - 1))
            assert {scale for _, _, scale in matrix.rows} == {1}
            for j in partitions.members(N & ~(1 << i)):
                both = op.removal_matrix(N & ~(1 << i), j).after(matrix)
                assert_one_row_per_output(both, bell(n - 1), bell(n - 2))
                assert {scale for _, _, scale in both.rows} == {1}
        aux = op.auxiliary_map(N)
        assert_one_row_per_output(aux, 1 << n, 1)
        assert {scale for _, _, scale in aux.rows} == {1}


def test_block_runs_of_eight_players_keep_the_shared_position_table_small():
    """The block runs find their cells by the partitions of their own player
    set, so the process-wide position table gains no partitions of subsets."""
    code = ("from pfgames import partitions, random_partitions; "
            "random_partitions.PSTAR.block_runs(partitions.mask_from(range(1, 9))); "
            "print(len(partitions._partition_positions))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(partitions.__file__).parent.parent)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 4140


def test_rp_auxiliary_map_of_six_players_keeps_the_shared_position_table_small():
    """The rp rule reads its probabilities from the family's run tables, so
    building a whole auxiliary map leaves the process-wide position table
    within one player set's partitions."""
    code = ("from pfgames import partitions, random_partitions, restriction_ops; "
            "op = restriction_ops.probability_restriction(random_partitions.PSTAR); "
            "op.auxiliary_map(partitions.mask_from(range(1, 7))); "
            "print(len(partitions._partition_positions))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(partitions.__file__).parent.parent)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= partitions.bell_number(6)


def ref_rp_rule(family):
    """The rp cell rule as it read the law before the run tables: each
    partition found by ``with_block`` and its probability by ``family.prob``."""

    def cell(w, i, S, pi):
        rest = w.players & ~(1 << i)
        base = partitions.with_block(pi, S)
        q = family.prob(rest, base)
        if q == 0:
            raise PositivityError(
                f"family {family.label!r} assigns probability zero to "
                f"{[sorted(partitions.members(b)) for b in base]} on "
                f"{sorted(partitions.members(rest))}", players=rest, partition=base)
        total = 0
        for _, grown in partitions.placements(pi, i):
            total += w.worth(S, grown) * family.prob(w.players, partitions.with_block(grown, S))
        return total * (Fraction(w.n, w.n - S.bit_count()) / q)

    return cell


def rp_without_gen_check(family):
    """``probability_restriction`` of a family with its GEN report on file as
    passed: the rule does not need GEN, and the skewed table, which fails it,
    exercises a zero probability and weights far from the CRP law."""
    family._gen_reports[min(5, partitions.universe_bound())] = verify.Report("gen", True, 0)
    return probability_restriction(family)


@pytest.mark.parametrize("family", [perturbed_family({4: Fraction(1, 24)}), skewed_table_family()],
                         ids=lambda family: family.label)
def test_rp_removal_matrices_equal_the_with_block_reference(family):
    op = rp_without_gen_check(family)
    ref = RestrictionOperator("ref", ref_rp_rule(family))
    player_sets = [prefix(n) for n in range(1, 6)] + [SCATTERED]
    for N in player_sets:
        for i in partitions.members(N):
            try:
                expected = ref.removal_matrix(N, i)
            except PositivityError as exc:
                with pytest.raises(PositivityError) as got:
                    op.removal_matrix(N, i)
                assert (str(got.value), got.value.players, got.value.partition) == (
                    str(exc), exc.players, exc.partition)
                continue
            assert op.removal_matrix(N, i) == expected, (N, i)


def ref_crp_cell(w, i, S, pi):
    """The ``rstar`` rule as it read worths: a Fraction weight b/(n - s) per
    placement, 1/(n - s) for the removed player alone."""
    outside, total = w.n - S.bit_count(), 0
    for B, grown in partitions.placements(pi, i):
        total += w.worth(S, grown) * Fraction(B.bit_count() or 1, outside)
    return total


def ref_biased_cell(w, i, S, pi):
    """The ``biased`` rule as it read worths: weight i + 1 on each block."""
    total = 0
    for B, grown in partitions.placements(pi, i):
        worth = w.worth(S, grown)
        total += worth * (i + 1) if B else worth
    return total


@pytest.mark.parametrize("make, ref", [
    (crp_restriction, ref_crp_cell),
    (removal_biased_restriction, ref_biased_cell),
    (lambda: probability_restriction(PSTAR), ref_rp_rule(PSTAR)),
    (lambda: probability_restriction(perturbed_family({4: Fraction(1, 24)})),
     ref_rp_rule(perturbed_family({4: Fraction(1, 24)}))),
], ids=["rstar", "biased", "rp:pstar", "rp:eps:4=1/24"])
def test_built_in_rules_on_numerators_equal_their_worth_references(make, ref):
    """At every cell of every removal of games over wide denominators, the
    built-in rule, reading ``nums`` over ``den``, gives the Fraction that the
    rule reading ``worth`` gives."""
    op = make()
    for w in TUX_GAMES[2:]:
        assert w.den > 1
        for i in partitions.members(w.players):
            for S, pi in partitions.enumerate_embedded(w.players & ~(1 << i)):
                if S:
                    assert op.restricted_worth(w, i, S, pi) == ref(w, i, S, pi), (i, S, pi)


def test_linear_forms_carry_integer_coefficients_over_one_den():
    """An int scales the coefficients, a Fraction p/q scales them by p and the
    den by q, and forms over two dens add over their lcm; the empty
    coalition's cells read as the empty form."""
    N = prefix(2)
    game = _SymbolicGame(N)
    k, h = cell_index(N, 0b010, (0b100,)), cell_index(N, N, ())
    assert game.den == 1 and game.worth(N, ()).coef == {h: 1}
    assert game.worth(0, (0b010, 0b100)).coef == {}
    a, b = game.nums[k], game.nums[h]
    form = a * Fraction(2, 3) + b / 4 - a
    assert (form.coef, form.den) == ({k: -4, h: 3}, 12)
    form = 5 * (a / 6 + a * Fraction(-1, 10)) + b
    assert (form.coef, form.den) == ({k: 10, h: 30}, 30)


CUSTOM_RULES = {"mixed-denominators": (mixed_denominator_cell, Fraction(13, 30)),
                "numerators": (numerator_rule(), Fraction(3, 7))}


@pytest.mark.parametrize("label", CUSTOM_RULES)
def test_custom_rules_over_several_denominators_equal_the_eager_reference(label):
    """A rule adding forms over several dens and a rule reading ``nums`` over
    ``den``: every removal of the lattice of up to four players ``==`` the
    rule run at every cell, and restricts a game as the rule does, to its
    multiple of the ``rstar`` subgame."""
    cell, scale = CUSTOM_RULES[label]
    op, ref = RestrictionOperator(label, cell), RestrictionOperator(label, cell)
    for n in range(1, 5):
        for M, h in lattice_removals(prefix(n)):
            assert op.removal_matrix(M, h) == ref_eager_removal_matrix(ref, M, h), (M, h)
        w = TUX_GAMES[n]
        for i in partitions.members(w.players):
            assert op.restrict(w, i) == rule_restrict(op, w, i), (n, i)
            assert op.restrict(w, i) == crp_restriction().restrict(w, i) * scale, (n, i)


def test_placement_positions_refuse_a_player_outside_the_set():
    for table in (partitions.placement_positions, partitions.placement_classes):
        with pytest.raises(ValueError, match="not in the player set"):
            table(prefix(3), 4)


def grand_copy_restriction():
    """Non-local: every subgame cell copies the grand-coalition worth."""
    return RestrictionOperator("grand-copy", lambda w, i, S, pi: w.worth(w.players, ()) if S else 0)


@functools.cache
def operators():
    """The operators under test, built on first use: ``probability_restriction``
    runs ``check_gen``, so a kernel fault fails the tests that use them, each
    by name, not the collection of this module."""
    return [
        crp_restriction(),
        probability_restriction(PSTAR),
        probability_restriction(perturbed_family({4: Fraction(1, 24)})),
        probability_restriction(perturbed_family({4: Fraction(1, 48)})),
        nullifying_restriction(),
        removal_biased_restriction(),
        grand_copy_restriction(),
    ]


def local_operators():
    return [op for op in operators() if op.label not in ("nullify", "grand-copy")]


SCATTERED = partitions.mask_from([0, 3, 4, 9, 17])


@pytest.mark.parametrize("n", range(0, 6))
def test_auxiliary_game_equals_the_walk_on_concrete_subgames(n):
    w = TUX_GAMES[n]
    for op in operators():
        expected = ref_auxiliary_game(op, w)
        assert op.auxiliary_game(w) == expected, op.label
        assert op.potential(w) == ref_potential(expected), op.label
        assert op.shapley_value(w) == ref_shapley_value(expected), op.label


def test_auxiliary_game_on_players_that_are_not_a_prefix():
    rng = random.Random(23)
    w = TuxGame(SCATTERED, {cell: exact_worth(rng)
                            for cell in partitions.enumerate_embedded(SCATTERED) if cell[0]})
    for op in operators():
        assert op.auxiliary_game(w) == ref_auxiliary_game(op, w), op.label


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS, ids=lambda N: str(partitions.members(N)))
def test_auxiliary_map_of_a_local_operator_reads_each_nonempty_cell_once(N):
    """A coalition keeps only worths of its own cells, so the rows split the
    nonempty cells of the table among the coalitions."""
    nonempty = [k for k, (S, _) in enumerate(partitions.enumerate_embedded(N)) if S]
    for op in local_operators():
        rows = op.auxiliary_map(N).rows
        assert sorted(k for positions, _, _ in rows for k in positions) == nonempty, op.label
        assert all(x for _, coefficients, _ in rows for x in coefficients), op.label
    # under the null operator a coalition keeps nothing, and N keeps its own worth
    rows = nullifying_restriction().auxiliary_map(N).rows
    assert [k for positions, _, _ in rows for k in positions] == nonempty[-1:]


# --- caches --------------------------------------------------------------------


def test_unchecked_builders_give_the_validated_games_in_table_order():
    rng = random.Random(9)
    N = prefix(4)
    cells = partitions.enumerate_embedded(N)
    v = wide_tu_game(4, rng)
    w = TUX_GAMES[4]
    T, tau = cells[17]
    built = {
        "lift": (tux_games.lift_tu_game(v), lambda S, pi: v.worth(S)),
        "null": (tux_games.null_game(N), lambda S, pi: 0),
        "dirac": (tux_games.dirac_game(N, T, tau), lambda S, pi: int((S, pi) == (T, tau))),
        "restrict": (crp_restriction().restrict(w, 4),
                     lambda S, pi: crp_restriction().restricted_worth(w, 4, S, pi)),
    }
    for name, (game, rule) in built.items():
        assert game == TuxGame.from_function(game.players, rule), name
        assert [cell for cell, _ in game.cells()] == list(
            partitions.enumerate_embedded(game.players)), name
        assert all(type(x) is Fraction for _, x in game.cells()), name


def test_equal_worths_give_equal_games_with_equal_hashes():
    """A game holds one canonical integer table, whichever route built it."""
    rng = random.Random(11)
    N = prefix(3)
    v = wide_tu_game(3, rng)
    worths = {S: v.worth(S) for S in partitions.subsets(N) if v.worth(S)}
    w = TUX_GAMES[3]
    tux_worths = {cell: x for cell, x in w.cells() if cell[0]}
    half = TuxGame.from_function(N, lambda S, pi: Fraction(1, 2))
    ones = TuxGame.from_function(N, lambda S, pi: 1)
    pairs = [
        (TuGame(N, worths), TuGame(N, dict.fromkeys(partitions.subsets(N), 0) | worths)),
        (TuxGame(N, tux_worths), TuxGame(N, {**tux_worths, (0, (N,)): 0})),
        (half + half, ones),
        (2 * half, ones),
        (half * 2, ones),
        (w - w, tux_games.null_game(N)),
        (3 * w - w - w, w + w - w),
        (tux_games.lift_tu_game(v), TuxGame.from_function(N, lambda S, pi: v.worth(S))),
    ]
    for built, expected in pairs:
        assert built == expected
        assert hash(built) == hash(expected)
        assert (built.den, built.nums) == (expected.den, expected.nums)
    assert (half + half).den == 1
    assert (w - w).den == 1


def test_tu_worths_round_trip_on_players_that_are_not_a_prefix():
    rng = random.Random(31)
    N = partitions.mask_from((0, 5, 17, 31))
    worths = {S: exact_worth(rng) for S in partitions.subsets(N) if S}
    v = TuGame(N, worths)
    assert all(v.worth(S) == x and type(v.worth(S)) is Fraction for S, x in worths.items())
    assert v.nonzero_worths() == {S: x for S, x in worths.items() if x}
    assert TuGame(N, v.nonzero_worths()) == v
    with pytest.raises(ValueError, match="not a subset"):
        v.worth([0, 1])


def test_worths_and_cells_are_fractions():
    v = TuGame(prefix(2), {1 << 1: 3})
    assert type(v.worth([1])) is Fraction and type(v.worth([])) is Fraction
    assert all(type(x) is Fraction for x in v.nonzero_worths().values())
    w = TuxGame.from_function(prefix(3), lambda S, pi: S.bit_count())
    assert all(type(w.worth(*cell)) is Fraction for cell, _ in w.cells())
    assert all(type(x) is Fraction for _, x in w.cells())


def test_dropped_families_never_leak_cached_distributions():
    """Families built and dropped in turn reuse memory; each one's verdict
    and payoffs must still be its own."""
    w = TUX_GAMES[4]
    rates = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2)]
    for k in range(24):
        theta = rates[k % len(rates)]
        if k % 3 == 2:
            family = perturbed_family({4: Fraction(1, 24 * (1 + k % 5))})
            generates = True
        else:
            family = ewens_family(theta)
            generates = theta == 1
        assert check_gen(family, 4).passed == generates
        assert tux_games.p_shapley_vector(w, family) == ref_p_shapley_vector(w, family)
        del family
        gc.collect()


def counted(op):
    """The operator's rule, recording each call as (player set, removed
    player, coalition, partition)."""
    calls = []

    def cell(w, i, S, pi):
        calls.append((w.players, i, S, pi))
        return op.restricted_worth(w, i, S, pi)

    return RestrictionOperator(f"counted-{op.label}", cell), calls


def test_a_second_auxiliary_game_on_the_same_players_never_calls_the_rule():
    """Nor does it fetch a removal matrix or rebuild the cached auxiliary map."""
    op, calls = counted(crp_restriction())
    rng = random.Random(13)
    first, second = wide_tux_game(5, rng), wide_tux_game(5, rng)
    op.auxiliary_game(first)
    assert calls
    calls.clear()
    built = op.auxiliary_map(first.players)
    removals = []
    removal_matrix = op.removal_matrix
    op.removal_matrix = lambda *key: removals.append(key) or removal_matrix(*key)
    aux = op.auxiliary_game(second)
    assert not calls and not removals
    assert op.auxiliary_map(second.players) is built
    assert aux == ref_auxiliary_game(crp_restriction(), second)


def test_every_route_of_a_non_linear_rule_names_the_operator():
    def clipped(w, i, S, pi):
        return max(w.worth(S, partitions.insert_player(pi, i, 0)), 0)

    op = RestrictionOperator("clipped-rule", clipped)
    for solve in (op.auxiliary_game, op.potential, op.shapley_value,
                  lambda w: op.restrict(w, 3), lambda w: op.restrict_many(w, [1, 3])):
        with pytest.raises(ValueError, match="clipped-rule"):
            solve(TUX_GAMES[3])


def test_every_auxiliary_route_raises_the_positivity_error_of_the_first_zero_cell_read():
    """The auxiliary map reads removal rows in the depth-first order of its
    chains, so it names the first cell it reads whose base partition has
    probability zero, not the first of the whole removal matrix, which the
    walk on concrete subgames names."""
    family = perturbed_family({4: Fraction(1, 8)})
    op = probability_restriction(family)
    w = TUX_GAMES[5]
    rest = partitions.mask_from([2, 3, 4, 5])
    base = formats.partition_from_lists([[2], [3], [4, 5]])
    assert family.prob(rest, base) == 0
    with pytest.raises(PositivityError) as walked:
        ref_auxiliary_game(op, w)
    assert walked.value.players == rest and walked.value.partition != base
    for solve in (op.auxiliary_game, op.potential, op.shapley_value,
                  lambda w: op.auxiliary_map(w.players)):
        with pytest.raises(PositivityError) as got:
            solve(w)
        assert str(got.value).endswith("to [[2], [3], [4, 5]] on [2, 3, 4, 5]")
        assert (got.value.players, got.value.partition) == (rest, base)


def test_a_zero_coefficient_is_still_a_read_of_the_row_it_names():
    """On players 0..3 the skewed table weighs the cell where player 1 stays
    beside the pair {2, 3} by zero, and the removal of player 0 divides by
    that very partition's probability: the chain of {1} reaches it only
    through the zero coefficient, and raises there. It still does once the
    matrices of the removals from {1, 2, 3}, which drop the zero, have been
    taken, and once the matrix of removing 0, which divides by it too, has
    failed part way: the map's reads must not depend on them. Neither may
    the matrices of removing 1, 2 or 3 depend on the failed map."""
    N = partitions.mask_from([0, 1, 2, 3])
    zero = (prefix(3), formats.partition_from_lists([[1], [2, 3]]))
    for history in ("fresh", "warm", "failed matrix"):
        op = rp_without_gen_check(skewed_table_family())
        if history == "warm":
            for h in partitions.members(prefix(3)):
                op.removal_matrix(prefix(3), h)
        if history == "failed matrix":
            with pytest.raises(PositivityError) as got:
                op.removal_matrix(N, 0)
            assert str(got.value).endswith("to [[1], [2, 3]] on [1, 2, 3]")
            assert (got.value.players, got.value.partition) == zero
        with pytest.raises(PositivityError) as got:
            op.auxiliary_map(N)
        assert (got.value.players, got.value.partition) == zero, history
        fresh = rp_without_gen_check(skewed_table_family())
        for h in (1, 2, 3):
            assert op.removal_matrix(N, h) == fresh.removal_matrix(N, h), (history, h)


def lazy_operators():
    """The operators whose auxiliary maps are checked against the eager walk,
    each built fresh on every call."""
    return {
        "rstar": crp_restriction,
        "nullify": nullifying_restriction,
        "biased": removal_biased_restriction,
        "rp:pstar": lambda: probability_restriction(PSTAR),
        "rp:ewens:1/2": lambda: rp_without_gen_check(ewens_family(Fraction(1, 2))),
        "rp:eps:4=1/24": lambda: probability_restriction(perturbed_family({4: Fraction(1, 24)})),
        "rp:skewed": lambda: rp_without_gen_check(skewed_table_family()),
    }


def map_content(m):
    """A map's den and each row's {position: coefficient * scale}: equal for
    a run row and a tuple row over the same cells, whatever their order."""
    return m.den, [{p: c * scale for p, c in zip(positions, coefficients)}
                   for positions, coefficients, scale in m.rows]


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("label", list(lazy_operators()))
def test_auxiliary_map_equals_the_pull_back_through_whole_removal_matrices(label, n):
    """Built from rows read on demand, and equal to the walk through whole
    matrices only; equal too when the operator has cached the matrices of
    the top removals first, so the map does not depend on call history.
    Under a local rule with no zero weight, each nonempty coalition's row
    is its run.

    Past three players the eager walk refuses the skewed table, whose zero
    lies in a removal no chain reads; the chains read the table only where
    it agrees with pstar."""
    fresh, N = lazy_operators()[label], prefix(n)
    lazy = fresh().auxiliary_map(N)
    if label == "rp:skewed" and n > 3:
        with pytest.raises(PositivityError):
            ref_eager_auxiliary_map(fresh(), N)
        assert map_content(lazy) == map_content(
            ref_eager_auxiliary_map(probability_restriction(PSTAR), N))
        return
    op = fresh()
    eager = map_content(ref_eager_auxiliary_map(op, N))
    assert map_content(lazy) == eager
    mixed = fresh()
    for i in partitions.members(N):
        mixed.removal_matrix(N, i)
    assert map_content(mixed.auxiliary_map(N)) == eager
    assert map_content(op.auxiliary_map(N)) == eager
    if label in ("rstar", "biased", "rp:pstar", "rp:eps:4=1/24"):
        runs = partitions.runs(N)
        assert [positions for positions, _, _ in lazy.rows[1:]] == [
            range(*runs[S]) for S in runs if S]


def bell_sums_below(n):
    """Sum over s = 1..n-1 of C(n, s) times Bell(0) + ... + Bell(n - s - 1)."""
    return sum(math.comb(n, s) * sum(map(partitions.bell_number, range(n - s)))
               for s in range(1, n))


@pytest.mark.parametrize("make", [crp_restriction, lambda: probability_restriction(PSTAR)],
                         ids=["rstar", "rp:pstar"])
def test_a_fresh_auxiliary_map_runs_the_rule_only_on_the_cells_its_chains_read(make):
    """A coalition S of size s keeps cells (S, pi) of every subgame its chain
    passes, pi partitioning up to n - s - 1 of the others: far fewer than
    the cells of every removal of the lattice."""
    for n, expected in zip(range(4, 8), (32, 110, 395, 1540)):
        op, calls = counted(make())
        N = prefix(n)
        op.auxiliary_map(N)
        assert len(calls) == bell_sums_below(n) == expected, n
        calls.clear()
        op.auxiliary_map(N)
        assert not calls


def test_removal_matrices_taken_after_the_auxiliary_map_equal_a_fresh_operators():
    N = prefix(5)
    for label, fresh in lazy_operators().items():
        if label == "rp:skewed":
            continue  # its matrices on players 1..5 refuse the zero of the table
        op, ref = fresh(), fresh()
        op.auxiliary_map(N)
        for M in partitions.subsets(N):
            for h in partitions.members(M):
                assert op.removal_matrix(M, h) == ref.removal_matrix(M, h), (label, M, h)


def removal_cells(removals):
    """(player set, removed player, S, pi) for each nonempty cell (S, pi) of
    the subgame of each removal: the calls of the rule that build them."""
    return [(M, h, S, pi) for M, h in removals
            for S, pi in partitions.enumerate_embedded(M & ~(1 << h)) if S]


def lattice_removals(N):
    return [(M, h) for M in partitions.subsets(N) for h in partitions.members(M)]


@pytest.mark.parametrize("make", [crp_restriction, lambda: probability_restriction(PSTAR)],
                         ids=["rstar", "rp:pstar"])
def test_removal_matrices_after_the_auxiliary_map_reuse_the_rows_it_built(make):
    """Over the auxiliary map and every removal matrix of its lattice the
    rule runs once per removal and subgame cell: a matrix builds only the
    rows the map's chains did not read. So does ``restrict`` after
    ``auxiliary_game``, and its subgames are the rule's."""
    for n in range(4, 7):
        op, calls = counted(make())
        N = prefix(n)
        op.auxiliary_map(N)
        assert len(calls) == bell_sums_below(n), n
        for M, h in lattice_removals(N):
            op.removal_matrix(M, h)
        assert sorted(calls) == sorted(removal_cells(lattice_removals(N))), n
    op, calls = counted(make())
    w = TUX_GAMES[5]
    op.auxiliary_game(w)
    read = set(calls)
    for i in partitions.members(w.players):
        assert op.restrict(w, i) == rule_restrict(make(), w, i), i
    removals = [(w.players, i) for i in partitions.members(w.players)]
    assert sorted(calls) == sorted(read | set(removal_cells(removals)))


def removal_matrix_cases():
    """(label, player set): each operator under test on prefixes of up to
    five players, and the skewed table on players 0..3, whose removals from
    {1, 2, 3} hold a zero coefficient."""
    cases = [(label, prefix(n)) for label in lazy_operators() for n in range(1, 6)]
    return cases + [("rp:skewed", partitions.mask_from([0, 1, 2, 3]))]


@pytest.mark.parametrize("label, N", removal_matrix_cases(),
                         ids=lambda case: str(partitions.members(case))
                         if isinstance(case, int) else case)
def test_removal_matrices_equal_the_eager_reference_fresh_and_after_the_auxiliary_map(label, N):
    """Every removal of the lattice, on a fresh operator and on one whose
    auxiliary map has cached rows over their own denominators, zeros kept:
    the same den, rows and cells as the rule run at every cell on one
    denominator, zeros dropped; or the same PositivityError."""
    make = lazy_operators()[label]
    fresh, after, ref = make(), make(), make()
    try:
        after.auxiliary_map(N)
    except PositivityError:
        pass  # the skewed table on players 0..3 refuses the map part way
    for M, h in lattice_removals(N):
        try:
            expected = ref_eager_removal_matrix(ref, M, h)
        except PositivityError as exc:
            for op in (fresh, after):
                with pytest.raises(PositivityError) as got:
                    op.removal_matrix(M, h)
                assert (got.value.players, got.value.partition) == (exc.players, exc.partition)
            continue
        assert fresh.removal_matrix(M, h) == expected, (M, h)
        assert after.removal_matrix(M, h) == expected, (M, h)


def cache_order_operator(label):
    """A fresh operator: one of the built-in ones, or a custom rule."""
    if label in CUSTOM_RULES:
        return RestrictionOperator(label, CUSTOM_RULES[label][0])
    return lazy_operators()[label]()


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("label", ["rstar", "rp:pstar", "biased", *CUSTOM_RULES])
def test_the_row_cache_does_not_depend_on_the_calls_that_filled_it(label, n):
    """Operators filled first by every removal matrix, by the auxiliary map
    or by ``restrict_many`` on every removed set, then by every removal
    matrix, cache the same rows: per removal and cell, the same positions
    and coefficients in the order the rule read them, over the same den."""
    N, w = prefix(n), TUX_GAMES[n]
    firsts = {
        "removal_matrix": lambda op: [op.removal_matrix(M, h) for M, h in lattice_removals(N)],
        "auxiliary_map": lambda op: op.auxiliary_map(N),
        "restrict_many": lambda op: [op.restrict_many(w, T) for T in partitions.subsets(N)],
    }
    caches = {}
    for first, fill in firsts.items():
        op = cache_order_operator(label)
        fill(op)
        for M, h in lattice_removals(N):
            op.removal_matrix(M, h)
        caches[first] = op._rows
    reference = caches.pop("removal_matrix")
    assert sorted(reference) == sorted(lattice_removals(N))
    for first, rows in caches.items():
        assert rows.keys() == reference.keys(), first
        for key, row in reference.items():
            assert rows[key] == row, (first, key)
