"""The integer kernels against the Fraction loops they replaced.

Each reference below is the term-by-term Fraction body a kernel had before
it ran over one common denominator; the kernels must give exactly the same
Fractions on seeded games whose worths include zeros, negatives and large
coprime denominators, over several families.
"""

import gc
import math
import random
from fractions import Fraction

import pytest

from pfgames import formats, partitions, tu_games, tux_games
from pfgames.errors import PositivityError
from pfgames.random_partitions import PSTAR, ewens_family, perturbed_family
from pfgames.restriction_ops import (
    RestrictionOperator,
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from pfgames.tu_games import TuGame
from pfgames.tux_games import TuxGame
from pfgames.verify import check_gen, null_player_witness

from .corpus import prefix, skewed_table_family

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


def ref_p_shapley_vector(w, family):
    mass = ref_block_mass(w, family)
    game = {S: S.bit_count() * math.comb(w.n, S.bit_count()) * m for S, m in mass.items()}
    return ref_shapley_value(TuGame(w.players, game))


def ref_is_null_player(w, i):
    bit = 1 << i
    for S, pi in partitions.enumerate_embedded(w.players & ~bit):
        inside = w.worth(S | bit, pi)
        if any(inside != w.worth(S, grown) for _, grown in partitions.placements(pi, i)):
            return False
    return True


def ref_null_player_witness(N, i, pi, B):
    remainder = tuple(C for C in pi if C != B)
    coefficients = {(B | 1 << i, remainder): 1}
    for _, grown in partitions.placements(remainder, i):
        coefficients[(B, grown)] = 1
    return TuxGame.from_function(N, lambda S, pi: coefficients.get((S, pi), 0))


def ref_auxiliary_game(op, w):
    """The lattice walk on concrete subgames, one ``restrict`` per node."""
    worth = {}

    def walk(game, last):
        worth[game.players] = game.worth(game.players, ())
        for h in partitions.members(game.players):
            if h > last:
                walk(op.restrict(game, h), h)

    walk(w, -1)
    return TuGame(w.players, worth)


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


def assert_block_runs_equal_the_lookups(N):
    at = partitions.embedded_index(N)
    expected = {(S, p): at[(S, pi[:k] + pi[k + 1 :])]
                for p, pi in enumerate(partitions.enumerate_partitions(N))
                for k, S in enumerate(pi)}
    table = partitions.block_positions(N)
    assert [S for S, _, _ in table] == list(partitions.subsets(N))[1:]
    got = {(S, p): start + k for S, start, positions in table
           for k, p in enumerate(positions)}
    assert got == expected
    assert sum(len(positions) for _, _, positions in table) == len(expected)


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS, ids=lambda N: str(partitions.members(N)))
def test_position_tables_equal_the_embedded_index_lookups(N):
    for i in partitions.members(N):
        assert_placement_rows_equal_the_lookups(N, i)
    assert_block_runs_equal_the_lookups(N)


def test_position_tables_on_eight_players():
    assert_placement_rows_equal_the_lookups(prefix(8), 5)
    assert_block_runs_equal_the_lookups(prefix(8))


def test_placement_positions_refuse_a_player_outside_the_set():
    with pytest.raises(ValueError, match="not in the player set"):
        partitions.placement_positions(prefix(3), 4)


def grand_copy_restriction():
    """Non-local: every subgame cell copies the grand-coalition worth."""
    return RestrictionOperator("grand-copy", lambda w, i, S, pi: w.worth(w.players, ()) if S else 0)


OPERATORS = [
    crp_restriction(),
    probability_restriction(PSTAR),
    probability_restriction(perturbed_family({4: Fraction(1, 24)})),
    probability_restriction(perturbed_family({4: Fraction(1, 48)})),
    nullifying_restriction(),
    removal_biased_restriction(),
    grand_copy_restriction(),
]
LOCAL_OPERATORS = [op for op in OPERATORS if op.label not in ("nullify", "grand-copy")]
SCATTERED = partitions.mask_from([0, 3, 4, 9, 17])


@pytest.mark.parametrize("n", range(0, 6))
def test_auxiliary_game_equals_the_walk_on_concrete_subgames(n):
    w = TUX_GAMES[n]
    for op in OPERATORS:
        expected = ref_auxiliary_game(op, w)
        assert op.auxiliary_game(w) == expected, op.label
        assert op.potential(w) == ref_potential(expected), op.label
        assert op.shapley_value(w) == ref_shapley_value(expected), op.label


def test_auxiliary_game_on_players_that_are_not_a_prefix():
    rng = random.Random(23)
    w = TuxGame(SCATTERED, {cell: exact_worth(rng)
                            for cell in partitions.enumerate_embedded(SCATTERED) if cell[0]})
    for op in OPERATORS:
        assert op.auxiliary_game(w) == ref_auxiliary_game(op, w), op.label


@pytest.mark.parametrize("N", TABLE_PLAYER_SETS, ids=lambda N: str(partitions.members(N)))
def test_auxiliary_map_of_a_local_operator_reads_each_nonempty_cell_once(N):
    """A coalition keeps only worths of its own cells, so the rows split the
    nonempty cells of the table among the coalitions."""
    nonempty = [k for k, (S, _) in enumerate(partitions.enumerate_embedded(N)) if S]
    for op in LOCAL_OPERATORS:
        den, rows = op.auxiliary_map(N)
        assert len(rows) == 1 << partitions.size(N)
        assert sorted(k for positions, _ in rows for k in positions) == nonempty, op.label
        assert all(x for _, coefficients in rows for x in coefficients), op.label
    # under the null operator a coalition keeps nothing, and N keeps its own worth
    rows = nullifying_restriction().auxiliary_map(N).rows
    assert [k for positions, _ in rows for k in positions] == nonempty[-1:]


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
    """The operator's rule, counting its calls."""
    calls = []

    def cell(w, i, S, pi):
        calls.append(1)
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


def test_auxiliary_game_of_a_non_linear_rule_names_the_operator():
    def clipped(w, i, S, pi):
        return max(w.worth(S, partitions.insert_player(pi, i, 0)), 0)

    op = RestrictionOperator("clipped-rule", clipped)
    for solve in (op.auxiliary_game, op.potential, op.shapley_value):
        with pytest.raises(ValueError, match="clipped-rule"):
            solve(TUX_GAMES[3])


def test_auxiliary_game_raises_the_positivity_error_of_the_walk_on_subgames():
    op = probability_restriction(perturbed_family({4: Fraction(1, 8)}))
    w = TUX_GAMES[5]
    with pytest.raises(PositivityError) as expected:
        ref_auxiliary_game(op, w)
    for solve in (op.auxiliary_game, op.potential, op.shapley_value):
        with pytest.raises(PositivityError) as got:
            solve(w)
        assert str(got.value) == str(expected.value)
        assert (got.value.players, got.value.partition) == (
            expected.value.players, expected.value.partition)
