import itertools
import math
import random
from fractions import Fraction

import pytest

from pfgames import cli, formats, partitions, tu_games, tux_games, verify
from pfgames.errors import PositivityError
from pfgames.random_partitions import PSTAR, ewens_family, perturbed_family
from pfgames.restriction_ops import (
    RestrictionOperator,
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from pfgames.tux_games import (
    TuxGame,
    dirac_basis,
    dirac_game,
    expected_accumulated_worth,
    is_null_player,
    lift_tu_game,
    mpw_value,
    null_game,
    p_shapley_vector,
    productive_pair_game,
)
from pfgames.verify import check_restriction_axioms, null_player_witness

from .corpus import prefix, random_tux_game, rule_restrict, rule_restrict_many, tux_corpus


def blocks(*ids_lists):
    return formats.partition_from_lists(ids_lists)


with_block = partitions.with_block


N4 = prefix(4)
RSTAR = crp_restriction()
NULLIFY = nullifying_restriction()


@pytest.fixture(scope="module")
def rp_pstar():
    return probability_restriction(PSTAR)


@pytest.fixture(scope="module")
def eps_interior():
    return perturbed_family({4: Fraction(1, 48)})


@pytest.fixture(scope="module")
def rp_eps(eps_interior):
    return probability_restriction(eps_interior)


def test_showcase_removal_of_player_four():
    w = productive_pair_game()
    sub = RSTAR.restrict(w, 4)
    assert sub.worth([1, 3], blocks([2])) == Fraction(1, 2)
    assert sub.worth([3], blocks([1, 2])) == Fraction(1, 3)
    assert sub.worth([1, 3], blocks([2])) - sub.worth([3], blocks([1, 2])) == Fraction(1, 6)


def test_showcase_null_player_not_preserved_but_unpaid():
    w = productive_pair_game()
    sub = RSTAR.restrict(w, 4)
    assert is_null_player(w, 1)
    assert not is_null_player(sub, 1)
    assert mpw_value(sub)[1] == 0


def test_null_game_restricts_to_null_game():
    for op in (RSTAR, NULLIFY):
        for i in partitions.members(N4):
            assert op.restrict(null_game(N4), i) == null_game(N4 & ~(1 << i))


def test_rstar_equals_probability_operator_for_pstar(rp_pstar):
    for n in (2, 3, 4):
        N = prefix(n)
        for _, delta in dirac_basis(N):
            for i in partitions.members(N):
                assert RSTAR.restrict(delta, i) == rp_pstar.restrict(delta, i)
    rng = random.Random(41)
    w = random_tux_game(N4, rng)
    for i in partitions.members(N4):
        assert RSTAR.restrict(w, i) == rp_pstar.restrict(w, i)


def test_probability_operator_on_dirac_games(rp_eps, eps_interior):
    """Removing an outsider rescales the Dirac game by a probability ratio;
    removing a member kills it."""
    cases = [(rp_eps, eps_interior), (probability_restriction(PSTAR), PSTAR)]
    for op, family in cases:
        for (T, tau), delta in dirac_basis(N4):
            full = family.prob(N4, with_block(tau, T))
            for i in partitions.members(N4):
                got = op.restrict(delta, i)
                rest = N4 & ~(1 << i)
                if partitions.contains(T, i):
                    assert got == null_game(rest)
                    continue
                shrunk = partitions.canonical_partition(B & rest for B in tau if B & rest)
                coeff = (
                    Fraction(4, 4 - T.bit_count())
                    * full
                    / family.prob(rest, with_block(shrunk, T))
                )
                assert got == coeff * dirac_game(rest, T, shrunk)


def test_restrict_many_telescopes_on_dirac_games(rp_pstar):
    """Multi-player removal multiplies the ratios (n-k)/(n-t-k) and leaves a
    single probability ratio."""
    delta = dirac_game(N4, [2], blocks([1, 3], [4]))
    T = partitions.mask_from([2])
    tau = blocks([1, 3], [4])
    for removed in ([1], [1, 3], [1, 3, 4], [3, 4]):
        S = partitions.mask_from(removed)
        s, t = S.bit_count(), T.bit_count()
        got = rp_pstar.restrict_many(delta, S)
        shrunk = partitions.canonical_partition(B & ~S for B in tau if B & ~S)
        coeff = math.prod(Fraction(4 - k, 4 - t - k) for k in range(s))
        coeff *= PSTAR.prob(N4, with_block(tau, T)) / PSTAR.prob(
            N4 & ~S, with_block(shrunk, T)
        )
        assert got == coeff * dirac_game(N4 & ~S, T, shrunk)


def test_restrict_many_empty_removal_is_identity(rp_pstar):
    w = tux_corpus(1, n=4, seed=5)[0]
    assert rp_pstar.restrict_many(w, 0) == w
    with pytest.raises(ValueError):
        rp_pstar.restrict_many(w, [9])


def test_removing_all_outsiders_leaves_scaled_one_coalition_game(rp_pstar):
    for (T, tau), delta in dirac_basis(N4):
        t = T.bit_count()
        got = rp_pstar.restrict_many(delta, N4 & ~T)
        scale = t * math.comb(4, t) * PSTAR.prob(N4, with_block(tau, T))
        assert got.players == T
        assert got.worth(T, ()) == scale


def test_auxiliary_game_of_dirac(rp_pstar, rp_eps, eps_interior):
    for op, family in ((rp_pstar, PSTAR), (rp_eps, eps_interior)):
        for (T, tau), delta in dirac_basis(N4):
            t = T.bit_count()
            aux = op.auxiliary_game(delta)
            scale = t * math.comb(4, t) * family.prob(N4, with_block(tau, T))
            for S in partitions.subsets(N4):
                assert aux.worth(S) == (scale if S == T else 0)


def test_auxiliary_game_of_null_game_is_null(rp_pstar):
    for op in (RSTAR, NULLIFY, rp_pstar):
        assert op.auxiliary_game(null_game(N4)) == tu_games.null_game(N4)


def test_auxiliary_game_of_nullifying_operator():
    for w in tux_corpus(3, n=4, seed=9):
        aux = NULLIFY.auxiliary_game(w)
        for S in partitions.subsets(N4):
            expected = w.worth(N4, ()) if S == N4 else 0
            assert aux.worth(S) == expected


def test_null_games_have_zero_potential():
    for op in (RSTAR, NULLIFY):
        assert op.potential(null_game(N4)) == 0


def test_potential_of_dirac_is_its_probability(rp_pstar, rp_eps, eps_interior):
    for op, family in ((rp_pstar, PSTAR), (rp_eps, eps_interior)):
        for (T, tau), delta in dirac_basis(N4):
            assert op.potential(delta) == family.prob(N4, with_block(tau, T))


def test_crp_potential_of_lifted_tu_game_is_tu_potential():
    rng = random.Random(31)
    for _ in range(5):
        v = tu_games.TuGame(
            prefix(3),
            {S: Fraction(rng.randint(-4, 4), 2) for S in partitions.subsets(prefix(3)) if S},
        )
        assert RSTAR.potential(lift_tu_game(v)) == tu_games.potential(v)


def test_potential_equals_potential_of_auxiliary_game(rp_pstar):
    for w in tux_corpus(5, n=4, seed=71):
        assert rp_pstar.potential(w) == tu_games.potential(rp_pstar.auxiliary_game(w))
        assert RSTAR.potential(w) == tu_games.potential(RSTAR.auxiliary_game(w))


def test_potential_equals_expected_accumulated_worth(rp_pstar, rp_eps, eps_interior):
    for w in tux_corpus(5, n=4, seed=81):
        assert rp_pstar.potential(w) == expected_accumulated_worth(w, PSTAR)
        assert rp_eps.potential(w) == expected_accumulated_worth(w, eps_interior)


def test_shapley_of_crp_operator_is_mpw():
    for n in (1, 2, 3, 4):
        for _, delta in dirac_basis(prefix(n)):
            assert RSTAR.shapley_value(delta) == mpw_value(delta)
    for w in tux_corpus(3, n=4, seed=91):
        assert RSTAR.shapley_value(w) == mpw_value(w)


def test_shapley_of_probability_operator_is_p_shapley(rp_pstar, rp_eps, eps_interior):
    for w in tux_corpus(3, n=4, seed=101):
        assert rp_pstar.shapley_value(w) == p_shapley_vector(w, PSTAR)
        assert rp_eps.shapley_value(w) == p_shapley_vector(w, eps_interior)


def test_shapley_is_contribution_to_operator_potential(rp_eps):
    for op in (RSTAR, NULLIFY, rp_eps):
        for w in tux_corpus(3, n=4, seed=131):
            payoff = op.shapley_value(w)
            pot = op.potential(w)
            for i in partitions.members(w.players):
                assert payoff[i] == pot - op.potential(op.restrict(w, i))


def test_shapley_of_probability_operator_extends_tu_shapley(rp_pstar, rp_eps):
    rng = random.Random(51)
    v = tu_games.TuGame(
        N4, {S: Fraction(rng.randint(-3, 3)) for S in partitions.subsets(N4) if S}
    )
    expected = tu_games.shapley_value(v)
    assert rp_pstar.shapley_value(lift_tu_game(v)) == expected
    assert rp_eps.shapley_value(lift_tu_game(v)) == expected


def test_shapley_of_dirac_under_probability_operator(rp_eps, eps_interior):
    for (T, tau), delta in dirac_basis(N4):
        scale = eps_interior.prob(N4, with_block(tau, T))
        payoff = rp_eps.shapley_value(delta)
        t = T.bit_count()
        for i in partitions.members(N4):
            if partitions.contains(T, i):
                assert payoff[i] == scale
            else:
                assert payoff[i] == -Fraction(t, 4 - t) * scale


def test_nullifying_operator_splits_evenly():
    for w in tux_corpus(4, n=4, seed=111):
        payoff = NULLIFY.shapley_value(w)
        share = w.worth(N4, ()) / 4
        assert all(x == share for x in payoff.values())


def test_average_and_restriction_commute():
    """Averaging the subgame equals restricting the average game."""
    games = [productive_pair_game()] + tux_corpus(5, n=4, seed=121)
    for w in games:
        avg = tux_games.average_game(w, PSTAR)
        for i in partitions.members(w.players):
            left = tux_games.average_game(RSTAR.restrict(w, i), PSTAR)
            right = tu_games.subgame(avg, [i])
            assert left == right


def test_null_players_stay_unpaid_in_deeper_subgames():
    w = productive_pair_game()
    for removed in ([2], [4], [2, 4], [3], [2, 3], [2, 3, 4]):
        sub = RSTAR.restrict_many(w, removed)
        assert mpw_value(sub)[1] == 0
    for i in partitions.members(N4):
        for pi in partitions.enumerate_partitions(N4 & ~(1 << i)):
            for B in pi:
                witness = null_player_witness(N4, i, pi, B)
                for j in partitions.members(N4):
                    if j == i:
                        continue
                    assert mpw_value(RSTAR.restrict(witness, j))[i] == 0


def lone_cell(w, i, S, pi):
    return w.worth(S, partitions.insert_player(pi, i, 0))


def doubled_cell(w, i, S, pi):
    n, s = w.n, S.bit_count()
    total = Fraction(2, n - s) * w.worth(S, partitions.insert_player(pi, i, 0))
    for B in pi:
        total += Fraction(2 * B.bit_count(), n - s) * w.worth(
            S, partitions.insert_player(pi, i, B)
        )
    return total


LONE = RestrictionOperator("lone", lone_cell)
DOUBLED = RestrictionOperator("doubled", doubled_cell)


def test_deviant_operators_lose_an_axiom_or_the_potential_identity():
    """Uniqueness spot checks: rules that differ from the probability-ratio
    operator on some Dirac game break path independence, null-game
    preservation, or the expected-accumulated-worth identity."""
    from pfgames.verify import check_restriction_axioms

    delta = dirac_game(prefix(3), [3], blocks([1, 2]))
    for op in (LONE, DOUBLED):
        # genuinely different from the CRP operator on a Dirac game
        assert op.restrict(delta, 1) != RSTAR.restrict(delta, 1)
        # still a well-behaved restriction concept
        assert check_restriction_axioms(op, 3).passed
        # but its potential is no expected accumulated worth
        mismatch = [
            d
            for _, d in dirac_basis(prefix(3))
            if op.potential(d) != expected_accumulated_worth(d, PSTAR)
        ]
        assert mismatch


def test_auxiliary_game_removes_players_in_ascending_order(rp_pstar):
    """Each coalition's auxiliary worth is what ``restrict_many`` leaves it,
    and the potential is the TU potential of that game, for the path
    dependent ``biased`` operator too."""
    ops = (RSTAR, rp_pstar, NULLIFY, removal_biased_restriction(), LONE, DOUBLED)
    for n in range(1, 6):
        for w in tux_corpus(2 if n < 5 else 1, n=n, seed=140 + n):
            N = w.players
            for op in ops:
                expected = tu_games.TuGame(
                    N,
                    {
                        S: rule_restrict_many(op, w, N & ~S).worth(S, ())
                        for S in partitions.subsets(N)
                    },
                )
                assert op.auxiliary_game(w) == expected
                assert op.potential(w) == tu_games.potential(expected)


@pytest.mark.parametrize("spec", ["rstar", "rp:pstar", "biased"])
@pytest.mark.parametrize("n", [3, 4])
def test_composed_removal_matrix_equals_two_restrictions_on_dirac_games(spec, n):
    op = cli.parse_operator(spec)
    N = prefix(n)
    at = partitions.embedded_index(N)
    for i, j in itertools.permutations(partitions.members(N), 2):
        rest = N & ~(1 << i) & ~(1 << j)
        both = op.removal_matrix(N & ~(1 << i), j).after(op.removal_matrix(N, i))
        # a composed row has scale 1
        columns = [dict(zip(positions, coefficients)) for positions, coefficients, _ in both.rows]
        for cell, delta in dirac_basis(N):
            expected = TuxGame._from_values(
                rest, [Fraction(col.get(at[cell], 0), both.den) for col in columns])
            assert rule_restrict(op, rule_restrict(op, delta, i), j) == expected, (i, j, cell)


def test_biased_operator_breaks_path_independence():
    biased = removal_biased_restriction()
    delta = dirac_game(prefix(3), [3], blocks([1, 2]))
    one_then_two = biased.restrict(biased.restrict(delta, 1), 2)
    two_then_one = biased.restrict(biased.restrict(delta, 2), 1)
    assert one_then_two != two_then_one


def test_probability_operator_rejects_non_generating_family():
    # the GEN verdict is kept on the family; a repeat gets the same message
    family = ewens_family(Fraction(1, 2))
    builds = [lambda: probability_restriction(family),
              lambda: cli.parse_operator("rp:ewens:1/2")]
    messages = []
    for build in builds * 2:
        with pytest.raises(ValueError) as err:
            build()
        messages.append(str(err.value))
    assert "witness" in messages[0]
    assert messages == messages[:1] * 4


def test_gen_check_runs_once_per_family_and_player_count(monkeypatch):
    check_gen = verify.check_gen
    calls = []

    def counting(family, n_max):
        calls.append(n_max)
        return check_gen(family, n_max)

    monkeypatch.setattr(verify, "check_gen", counting)
    family = ewens_family(Fraction(1))
    probability_restriction(family)
    assert calls == [5]
    probability_restriction(family)
    assert calls == [5]
    old = partitions.set_universe_bound(3)
    try:
        probability_restriction(family)
        probability_restriction(family)
    finally:
        partitions.set_universe_bound(old)
    assert calls == [5, 3]
    assert partitions.universe_bound() == old
    probability_restriction(family)
    probability_restriction(ewens_family(Fraction(1)))
    assert calls == [5, 3, 5]


def test_positivity_is_enforced_per_query():
    boundary = perturbed_family({4: Fraction(1, 8)})
    op = probability_restriction(boundary)
    # four-player removals never query a vanished denominator
    for (T, tau), delta in dirac_basis(N4):
        for i in partitions.members(N4):
            op.restrict(delta, i)
    # a five-player removal needs four-player probabilities that are zero
    N5 = prefix(5)
    delta5 = dirac_game(N5, [1, 2], blocks([3], [4], [5]))
    with pytest.raises(PositivityError) as err:
        op.restrict(delta5, 5)
    assert str(err.value) == ("family 'eps:4=1/8' assigns probability zero to "
                              "[[1], [2, 3], [4]] on [1, 2, 3, 4]")
    assert err.value.players == prefix(4)
    assert err.value.partition == blocks([1], [2, 3], [4])


def test_restrict_rejects_missing_player():
    with pytest.raises(ValueError):
        RSTAR.restrict(null_game(N4), 9)


def test_a_rule_that_reads_a_non_cell_is_refused_at_every_entry_point():
    """A rule that forgets to place the removed player reads (S, pi) with pi
    short of a player; each route names the cell, as ``TuxGame.worth`` does."""
    op = RestrictionOperator("stale", lambda w, i, S, pi: w.worth(S, pi))
    w = productive_pair_game()
    for solve in (lambda: op.restrict(w, 4), lambda: op.auxiliary_game(w),
                  lambda: op.potential(w), lambda: check_restriction_axioms(op, 3)):
        with pytest.raises(ValueError, match=r"is not an embedded coalition of this game"):
            solve()


@pytest.mark.parametrize("make", [crp_restriction, removal_biased_restriction,
                                  lambda: probability_restriction(PSTAR)],
                         ids=["rstar", "biased", "rp:pstar"])
def test_every_placement_rule_refuses_a_cell_outside_the_subgame(make):
    """Asked for the worth of a cell the subgame does not have, each rule
    that places the removed player names the cell, as ``TuxGame.worth``
    does; ``nullify`` reads no cell and gives 0."""
    w = null_game({1, 2, 3})
    for S, pi, shown in (({2}, blocks([4]), "([2], [[4]])"),
                         ({2}, blocks([2, 3]), "([2], [[2, 3]])")):
        with pytest.raises(ValueError) as got:
            make().restricted_worth(w, 1, S, pi)
        assert str(got.value) == f"{shown} is not an embedded coalition of this game"
    assert nullifying_restriction().restricted_worth(w, 1, {2}, blocks([4])) == 0


@pytest.mark.parametrize("spec", ["pstar", "eps:4=1/24", "eps:4=-1/48,5=1/200"])
def test_p_shapley_is_the_marginal_expected_accumulated_worth(spec):
    """The paper's induced solution: player i's p-Shapley payoff is the
    expected accumulated worth of the game minus that of the subgame which
    ``rp:f`` leaves once i is removed, both under the family f."""
    family = cli.parse_family(spec)
    op = probability_restriction(family)
    rng = random.Random(5)
    games = [delta for n in range(1, 5) for _, delta in dirac_basis(prefix(n))]
    games += [random_tux_game(prefix(5), rng) for _ in range(3)]
    for w in games:
        total = tux_games.expected_accumulated_worth(w, family)
        payoff = tux_games.p_shapley_vector(w, family)
        for i in w.member_ids():
            rest = tux_games.expected_accumulated_worth(op.restrict(w, i), family)
            assert payoff[i] == total - rest, (spec, w, i)
