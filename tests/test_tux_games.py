import random
from fractions import Fraction

import pytest

from pfgames import partitions, tu_games
from pfgames.random_partitions import (
    PSTAR,
    ewens_family,
    family_from_distributions,
    perturbed_family,
)
from pfgames.tux_games import (
    TuxGame,
    average_game,
    dirac_basis,
    dirac_coefficients,
    dirac_game,
    expected_accumulated_worth,
    externality_free_tu,
    game_from_dirac_coefficients,
    is_null_player,
    lift_tu_game,
    mpw_value,
    null_game,
    p_shapley,
    p_shapley_vector,
    productive_pair_game,
)
from pfgames.verify import null_player_witness

from .corpus import prefix, random_tux_game, tux_corpus


def blocks(*ids_lists):
    return partitions.partition_from(ids_lists)


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


def test_grand_coalition_dirac():
    delta = dirac_game(N4, N4, ())
    assert delta.worth(N4, ()) == 1
    assert sum(x for _, x in delta.cells()) == 1


def test_dirac_decompose_round_trip():
    rng = random.Random(11)
    w = random_tux_game(N4, rng)
    coeffs = dirac_coefficients(w)
    assert game_from_dirac_coefficients(N4, coeffs) == w
    assert all(coeffs[cell] == w.worth(*cell) for cell in coeffs)


def test_dirac_decompose_null_and_basis():
    assert all(x == 0 for x in dirac_coefficients(null_game(N4)).values())
    delta = dirac_game(N4, [2], blocks([1, 3], [4]))
    coeffs = dirac_coefficients(delta)
    assert sum(1 for x in coeffs.values() if x != 0) == 1


def test_showcase_coefficients_match_case_analysis():
    w = productive_pair_game()
    for (S, pi), coeff in dirac_coefficients(w).items():
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


def skewed_table_family():
    """A table family on players 1..3 that favours the pair {1, 2}."""
    probs = {
        blocks([1], [2], [3]): Fraction(1, 12),
        blocks([1, 2], [3]): Fraction(1, 2),
        blocks([1, 3], [2]): Fraction(1, 12),
        blocks([1], [2, 3]): 0,
        blocks([1, 2, 3]): Fraction(1, 3),
    }
    return family_from_distributions("skewed", {prefix(3): probs})


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
