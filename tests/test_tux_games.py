import random
from fractions import Fraction

import pytest

from pfgames import formats, partitions, tu_games
from pfgames.random_partitions import PSTAR, ewens_family, perturbed_family
from pfgames.tux_games import (
    TuxGame,
    as_tu_game,
    as_tux_game,
    average_game,
    dirac_basis,
    dirac_game,
    expected_accumulated_worth,
    externality_free_tu,
    is_null_player,
    lift_tu_game,
    mpw_value,
    null_game,
    p_shapley,
    p_shapley_vector,
    productive_pair_game,
)
from pfgames.verify import null_player_witness

from .corpus import prefix, random_tu_game, random_tux_game, skewed_table_family, tux_corpus


def blocks(*ids_lists):
    return formats.partition_from_lists(ids_lists)


N4 = prefix(4)


def showcase_worth(S, pi):
    """The four-player showcase game, written out independently."""
    inside = set(partitions.members(S))
    if {2, 3} <= inside:
        return 1
    if 2 in inside and 3 not in inside:
        return 1 if 4 not in partitions.members(partitions.block_of(pi, 3)) else 0
    if 3 in inside and 2 not in inside:
        return 1 if 4 not in partitions.members(partitions.block_of(pi, 2)) else 0
    return 0


def test_dense_map_is_required():
    cells = dict.fromkeys(
        (cell for cell in partitions.enumerate_embedded([1, 2]) if cell[0]), Fraction(1)
    )
    TuxGame([1, 2], cells)
    cells.popitem()
    with pytest.raises(ValueError):
        TuxGame([1, 2], cells)


def test_empty_coalition_worth_must_be_zero():
    cells = {
        cell: Fraction(0) for cell in partitions.enumerate_embedded([1, 2]) if cell[0]
    }
    cells[(0, blocks([1, 2]))] = Fraction(1)
    with pytest.raises(ValueError):
        TuxGame([1, 2], cells)
    # from_function never even consults the rule on empty coalitions
    w = TuxGame.from_function([1, 2], lambda S, pi: 1)
    assert w.worth(0, blocks([1, 2])) == 0


def test_foreign_cells_are_rejected():
    cells = {
        cell: Fraction(0) for cell in partitions.enumerate_embedded([1, 2]) if cell[0]
    }
    cells[(partitions.mask_from([3]), ())] = Fraction(1)
    with pytest.raises(ValueError):
        TuxGame([1, 2], cells)


def test_dirac_game_values():
    delta = dirac_game([1, 2], [1], blocks([2]))
    assert delta.worth([1], blocks([2])) == 1
    assert delta.worth([2], blocks([1])) == 0
    assert delta.worth([1, 2], ()) == 0
    with pytest.raises(ValueError):
        dirac_game([1, 2], 0, blocks([1, 2]))


def test_dirac_game_rejects_bad_embeddings():
    with pytest.raises(ValueError):
        dirac_game([1, 2], [1], blocks([3]))
    with pytest.raises(ValueError):
        dirac_game([1, 2], [3], blocks([2]))


def test_worth_lookup_rejects_non_embedded_cells():
    w = null_game([1, 2])
    with pytest.raises(ValueError):
        w.worth([1], blocks([1, 2]))


# (coalition, pi) on the showcase game, and the refusal each read gives: a list
# coalition goes through as_mask, an int mask is looked up as it is
REFUSED_READS = [
    (([1, 1], ()), ValueError, "duplicate player id 1"),
    (([40], ()), ValueError, "player id 40 outside supported range 0..31"),
    (([1], ()), ValueError, r"([1], []) is not an embedded coalition of this game"),
    ((-1, ()), ValueError, "coalition mask must be non-negative"),
    ((1 << 5, (prefix(4),)), ValueError,
     "([5], [[1, 2, 3, 4]]) is not an embedded coalition of this game"),
    ((partitions.mask_from([1, 4]), (1 << 3, 1 << 2)), ValueError,
     "([1, 4], [[3], [2]]) is not an embedded coalition of this game"),
    ((partitions.mask_from([1, 4]), [1 << 2, 1 << 3]), TypeError, "unhashable type: 'list'"),
    ((1.0, ()), TypeError, "'float' object is not iterable"),
]


@pytest.mark.parametrize("cell, error, message", REFUSED_READS, ids=[
    "duplicate-id", "id-out-of-range", "list-not-a-cell", "negative-mask",
    "mask-outside-players", "non-canonical-pi", "unhashable-pi", "float-coalition"])
def test_worth_reads_keep_every_refusal_and_its_message(cell, error, message):
    w = productive_pair_game()
    with pytest.raises(error) as got:
        w.worth(*cell)
    assert str(got.value) == message


def test_worth_reads_a_list_coalition_as_its_mask():
    w = productive_pair_game()
    for (S, pi), x in w.cells():
        assert w.worth(list(partitions.members(S)), pi) == w.worth(S, pi) == x


def test_grand_coalition_dirac():
    delta = dirac_game(N4, N4, ())
    assert delta.worth(N4, ()) == 1
    assert sum(x for _, x in delta.cells()) == 1


def test_dirac_decompose_round_trip():
    rng = random.Random(11)
    w = random_tux_game(N4, rng)
    coeffs = dict(w.cells())
    assert TuxGame.from_function(N4, lambda S, pi: coeffs.get((S, pi), 0)) == w
    assert all(coeffs[cell] == w.worth(*cell) for cell in coeffs)


def test_dirac_decompose_null_and_basis():
    assert all(x == 0 for x in dict(null_game(N4).cells()).values())
    delta = dirac_game(N4, [2], blocks([1, 3], [4]))
    coeffs = dict(delta.cells())
    assert sum(1 for x in coeffs.values() if x != 0) == 1


def test_showcase_coefficients_match_case_analysis():
    w = productive_pair_game()
    for (S, pi), coeff in dict(w.cells()).items():
        if S:
            assert coeff == showcase_worth(S, pi)


def test_showcase_exerts_externalities():
    w = productive_pair_game()
    assert w.worth([2], blocks([1, 3], [4])) == 1
    assert w.worth([2], blocks([1, 3, 4])) == 0
    assert externality_free_tu(w) is None


def test_lifted_tu_game_round_trips():
    rng = random.Random(3)
    v = tu_games.TuGame(
        prefix(3), {S: Fraction(rng.randint(-4, 4)) for S in partitions.subsets(prefix(3)) if S}
    )
    assert externality_free_tu(lift_tu_game(v)) == v
    assert externality_free_tu(null_game(N4)) == tu_games.null_game(N4)
    for n in range(1, 6):
        v = random_tu_game(prefix(n), rng) * Fraction(1, 7)
        assert externality_free_tu(lift_tu_game(v)) == v


@pytest.mark.parametrize("N", [N4, partitions.mask_from([0, 3, 4, 9, 17])],
                         ids=["prefix", "not-a-prefix"])
def test_one_changed_cell_in_a_coalitions_run_has_externalities(N):
    """Every cell of a coalition's run is compared, not only its first or
    its two ends: a change in the middle or at the end is seen."""
    v = random_tu_game(N, random.Random(5))
    lifted = lift_tu_game(v)
    assert externality_free_tu(lifted) == v
    at = partitions.embedded_index(N)
    for S in partitions.subsets(N):
        for pi in partitions.enumerate_partitions(N & ~S)[1:]:
            nums = list(lifted.nums)
            nums[at[(S, pi)]] += 1
            changed = TuxGame._from_numerators(N, lifted.den, nums)
            assert externality_free_tu(changed) is None


def test_the_tu_game_of_a_partition_function_is_read_without_the_lift(monkeypatch):
    from pfgames import tux_games

    v = random_tu_game(prefix(5), random.Random(12))
    lifted, w = lift_tu_game(v), productive_pair_game()

    def refuse(game):
        raise AssertionError("as_tu_game must not lift")

    monkeypatch.setattr(tux_games, "lift_tu_game", refuse)
    assert as_tu_game(lifted) == v
    assert as_tu_game(w) is None


def test_game_kind_conversions():
    v = tu_games.unanimity_game(prefix(3), prefix(2))
    w = productive_pair_game()
    assert as_tu_game(v) is v
    assert as_tu_game(lift_tu_game(v)) == v
    assert as_tu_game(w) is None
    assert as_tux_game(w) is w
    assert as_tux_game(v) == lift_tu_game(v)
    for convert in (as_tu_game, as_tux_game):
        with pytest.raises(ValueError, match="dict"):
            convert({})


def test_average_game_of_dirac():
    tau = blocks([1, 3], [4])
    delta = dirac_game(N4, [2], tau)
    avg = average_game(delta, PSTAR)
    scale = PSTAR.prob(partitions.mask_from([1, 3, 4]), tau)
    T = partitions.mask_from([2])
    for S in partitions.subsets(N4):
        assert avg.worth(S) == (scale if S == T else 0)


def test_average_game_of_lifted_tu_is_identity():
    rng = random.Random(17)
    v = tu_games.TuGame(
        N4, {S: Fraction(rng.randint(-3, 3), 2) for S in partitions.subsets(N4) if S}
    )
    for family in (PSTAR, perturbed_family({4: Fraction(1, 48)})):
        assert average_game(lift_tu_game(v), family) == v


def test_showcase_average_worth_of_productive_pair():
    avg = average_game(productive_pair_game(), PSTAR)
    assert avg.worth([2, 3]) == 1


def test_mpw_of_dirac_closed_form():
    for n in (2, 3, 4):
        N = prefix(n)
        for (T, tau), delta in dirac_basis(N):
            scale = PSTAR.prob(N, partitions.with_block(tau, T))
            payoff = mpw_value(delta)
            t = T.bit_count()
            for i in partitions.members(N):
                if partitions.contains(T, i):
                    assert payoff[i] == scale
                else:
                    assert payoff[i] == -Fraction(t, n - t) * scale


def test_mpw_showcase_null_player_and_efficiency():
    w = productive_pair_game()
    payoff = mpw_value(w)
    assert payoff[1] == 0
    assert sum(payoff.values()) == w.worth(N4, ())


def test_mpw_null_game():
    assert all(x == 0 for x in mpw_value(null_game(N4)).values())


def test_mpw_linearity():
    rng = random.Random(23)
    w = random_tux_game(N4, rng)
    z = random_tux_game(N4, rng)
    alpha = Fraction(5, 3)
    left = mpw_value(alpha * w + z)
    mw, mz = mpw_value(w), mpw_value(z)
    assert left == {i: alpha * mw[i] + mz[i] for i in mw}


def test_mpw_pays_null_players_nothing():
    for n in (2, 3, 4):
        N = prefix(n)
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    w = null_player_witness(N, i, pi, B)
                    assert is_null_player(w, i)
                    assert mpw_value(w)[i] == 0


def test_p_shapley_at_pstar_is_mpw():
    for n in (1, 2, 3, 4):
        for _, delta in dirac_basis(prefix(n)):
            assert p_shapley_vector(delta, PSTAR) == mpw_value(delta)
    for w in tux_corpus(5, n=4, seed=77):
        assert p_shapley_vector(w, PSTAR) == mpw_value(w)


def marginal_form_payoff(w, i):
    """Third route to the MPW payoff: weighted marginal contributions.

    For nonempty T the CRP insertion identity turns the membership term into
    t/(n-t) times a sum over placements of i outside T, leaving differences
    of worths; the lone-singleton term survives unchanged.
    """
    bit = partitions.singleton(i)
    rest = w.players & ~bit
    n = w.n
    dist = PSTAR.distribution(w.players)
    total = Fraction(0)
    for T, tau in partitions.enumerate_embedded(rest):
        if T == 0:
            continue
        t = T.bit_count()
        for B in tau + (0,):
            grown = partitions.insert_player(tau, i, B)
            key = partitions.with_block(grown, T)
            total += (
                Fraction(t, n - t)
                * dist[key]
                * (w.worth(T | bit, tau) - w.worth(T, grown))
            )
    for tau in partitions.enumerate_partitions(rest):
        total += dist[partitions.insert_player(tau, i, 0)] * w.worth(bit, tau)
    return total


def test_marginal_form_equals_mpw():
    games = [productive_pair_game()] + tux_corpus(4, n=4, seed=303)
    for w in games:
        payoff = mpw_value(w)
        for i in partitions.members(w.players):
            assert marginal_form_payoff(w, i) == payoff[i]


def placement_p_shapley(w, family, i):
    """Reference p-Shapley payoff of player ``i``, one placement at a time.

    Sums, over the embedded coalitions (T, tau) of the game without i, the
    probability-weighted worth of T with i inside minus t/(n-t) times the
    probability-weighted worths of T with i placed in each outside block.
    """
    bit = partitions.singleton(i)
    n = w.n
    rest = w.players & ~bit
    dist = family.distribution(w.players)
    total = Fraction(0)
    for T, tau in partitions.enumerate_embedded(rest):
        total += dist[partitions.with_block(tau, T | bit)] * w.worth(T | bit, tau)
        if T == 0:
            continue
        t = T.bit_count()
        outer = Fraction(0)
        for B in tau + (0,):
            grown = partitions.insert_player(tau, i, B)
            outer += dist[partitions.with_block(grown, T)] * w.worth(T, grown)
        total -= Fraction(t, n - t) * outer
    return total


@pytest.mark.parametrize(
    "family",
    [
        PSTAR,
        ewens_family(Fraction(1, 2)),
        ewens_family(2),
        perturbed_family({4: Fraction(1, 24)}),
        perturbed_family({4: Fraction(1, 8)}),
        skewed_table_family(),
    ],
    ids=lambda family: family.label,
)
def test_p_shapley_matches_placement_reference(family):
    rng = random.Random(41)
    for n in range(1, 7):
        w = random_tux_game(prefix(n), rng)
        reference = {i: placement_p_shapley(w, family, i) for i in w.member_ids()}
        assert p_shapley_vector(w, family) == reference
        for i in w.member_ids():
            assert p_shapley(w, family, i) == reference[i]


def test_p_shapley_null_game_and_errors():
    assert p_shapley(null_game(N4), PSTAR, 2) == 0
    with pytest.raises(ValueError):
        p_shapley(null_game(N4), PSTAR, 9)


def test_p_shapley_efficiency_for_generating_families():
    families = (PSTAR, perturbed_family({4: Fraction(1, 48)}))
    for w in tux_corpus(5, n=4, seed=123):
        for family in families:
            assert sum(p_shapley_vector(w, family).values()) == w.worth(N4, ())


def test_perturbed_family_pays_some_null_player():
    family = perturbed_family({4: Fraction(1, 24)})
    hits = []
    for i in partitions.members(N4):
        for pi in partitions.enumerate_partitions(N4 & ~(1 << i)):
            for B in pi:
                w = null_player_witness(N4, i, pi, B)
                assert is_null_player(w, i)
                if p_shapley(w, family, i) != 0:
                    hits.append((i, pi, B))
    assert hits


def test_expected_accumulated_worth_of_dirac():
    families = (PSTAR, perturbed_family({4: Fraction(1, 8)}))
    for (T, tau), delta in dirac_basis(N4):
        key = partitions.with_block(tau, T)
        for family in families:
            assert expected_accumulated_worth(delta, family) == family.prob(N4, key)


def test_expected_accumulated_worth_of_lifted_tu_is_potential():
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        v = tu_games.TuGame(
            N4, {S: Fraction(rng.randint(-5, 5), 3) for S in partitions.subsets(N4) if S}
        )
        assert expected_accumulated_worth(lift_tu_game(v), PSTAR) == tu_games.potential(v)


def test_expected_accumulated_worth_of_null_game():
    assert expected_accumulated_worth(null_game(N4), PSTAR) == 0


def test_null_player_detection_in_showcase():
    w = productive_pair_game()
    assert is_null_player(w, 1)
    assert not is_null_player(w, 2)
    assert not is_null_player(w, 3)
    assert not is_null_player(w, 4)


def test_every_player_null_in_null_game():
    null = null_game(N4)
    assert all(is_null_player(null, i) for i in partitions.members(N4))


@pytest.mark.parametrize("kind", ["tu", "tux"])
def test_games_compare_and_hash_by_table(kind):
    rng = random.Random(31)
    if kind == "tu":
        w = random_tu_game(prefix(3), rng)
        table = {S: w.worth(S) for S in partitions.subsets(w.players)}
    else:
        w = random_tux_game(prefix(3), rng)
        table = {cell: x for cell, x in w.cells() if cell[0]}
    game = type(w)
    forward = game(w.players, table)
    backward = game(w.players, dict(reversed(list(table.items()))))
    assert forward == backward == w
    assert hash(forward) == hash(backward)
    zero = tu_games.null_game(w.players) if kind == "tu" else null_game(w.players)
    assert w - w == zero
    assert w + zero == w == 1 * w
    assert 2 * w != w


def test_tu_game_never_equals_a_partition_function_game():
    for n in range(4):
        v = tu_games.null_game(prefix(n))
        assert v != null_game(prefix(n)) and null_game(prefix(n)) != v
    v = random_tu_game(prefix(3), random.Random(32))
    assert lift_tu_game(v) != v and v != lift_tu_game(v)
