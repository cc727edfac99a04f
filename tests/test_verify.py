import random
from fractions import Fraction

import pytest

from pfgames import formats, partitions, tux_games
from pfgames.random_partitions import PSTAR, ewens_family, perturbed_family
from pfgames.restriction_ops import (
    RestrictionOperator,
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from pfgames.tux_games import is_null_player, mpw_value, p_shapley_vector
from pfgames.verify import (
    check_ci,
    check_gen,
    check_monotonicity_conditions,
    check_null_player_axiom,
    check_pos,
    check_restriction_axioms,
    ci_instance,
    gen_block_probability,
    monotonicity_instance,
    null_player_witness,
)

from .corpus import prefix, random_tux_game

EWENS_HALF = ewens_family(Fraction(1, 2))
EWENS_TWO = ewens_family(2)
EPS_EIGHTH = perturbed_family({4: Fraction(1, 8)})
EPS_NEG = perturbed_family({4: Fraction(-1, 24)})
EPS_MID = perturbed_family({4: Fraction(1, 24)})


def replay_fracs(witness, *keys):
    return [Fraction(witness[key]) for key in keys]


def test_gen_passes_for_pstar_and_perturbed():
    assert check_gen(PSTAR, 5).passed
    for family in (EPS_NEG, perturbed_family({4: Fraction(1, 48)}), EPS_EIGHTH):
        assert check_gen(family, 4).passed


def test_gen_fails_for_ewens_half_with_two_player_witness():
    report = check_gen(EWENS_HALF, 3)
    assert not report.passed
    witness = report.witness
    assert witness["players"] == [1, 2]
    assert witness["coalition"] == [1, 2]
    assert (witness["lhs"], witness["rhs"]) == ("2/3", "1/2")
    # the witness replays through the public instance evaluator
    lhs, rhs = gen_block_probability(
        EWENS_HALF,
        formats.coalition_from_list(witness["players"]),
        formats.coalition_from_list(witness["coalition"]),
    )
    assert (lhs, rhs) == tuple(replay_fracs(witness, "lhs", "rhs"))


def test_gen_report_counts_and_invariant():
    report = check_gen(PSTAR, 3)
    assert report.passed and report.witness is None
    assert report.checked > 0


def test_ci_passes_for_ewens_family():
    for family in (PSTAR, EWENS_HALF, EWENS_TWO):
        assert check_ci(family, 4).passed


def test_ci_fails_for_perturbed_with_replayable_witness():
    report = check_ci(EPS_EIGHTH, 4)
    assert not report.passed
    witness = report.witness
    lhs, rhs = ci_instance(
        EPS_EIGHTH,
        formats.coalition_from_list(witness["players"]),
        formats.partition_from_lists(witness["partition"]),
        formats.coalition_from_list(witness["block"]),
    )
    assert (lhs, rhs) == tuple(replay_fracs(witness, "lhs", "rhs"))


def test_ci_footnote_counterexample_values():
    """One pair plus singletons has probability zero at the boundary, yet the
    factorization demands (1/2) * (1/12)."""
    N4 = prefix(4)
    pi = formats.partition_from_lists([[1, 2], [3], [4]])
    lhs, rhs = ci_instance(EPS_EIGHTH, N4, pi, partitions.mask_from([1, 2]))
    assert lhs == 0
    assert rhs == Fraction(1, 2) * Fraction(1, 12)
    assert rhs == Fraction(1, 24)


def test_pos_results():
    assert check_pos(PSTAR, 5).passed
    assert check_pos(perturbed_family({4: Fraction(1, 48)}), 4).passed
    report = check_pos(EPS_EIGHTH, 4)
    assert not report.passed
    pi = formats.partition_from_lists(report.witness["partition"])
    assert sorted(map(partitions.size, pi)) == [1, 1, 2]
    assert Fraction(report.witness["prob"]) == 0
    assert EPS_EIGHTH.prob(prefix(4), pi) == 0


def test_restriction_axioms_pass_for_builtins():
    assert check_restriction_axioms(crp_restriction(), 4).passed
    assert check_restriction_axioms(probability_restriction(PSTAR), 4).passed
    assert check_restriction_axioms(
        probability_restriction(perturbed_family({4: Fraction(1, 48)})), 4
    ).passed
    assert check_restriction_axioms(nullifying_restriction(), 4).passed


def test_biased_operator_fails_path_independence_with_replayable_witness():
    report = check_restriction_axioms(removal_biased_restriction(), 3)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "PI"
    op = removal_biased_restriction()
    delta = tux_games.dirac_game(
        formats.coalition_from_list(witness["players"]),
        formats.coalition_from_list(witness["coalition"]),
        formats.partition_from_lists(witness["outside"]),
    )
    i, j = witness["first_removed"], witness["second_removed"]
    cell_S = formats.coalition_from_list(witness["cell_coalition"])
    cell_pi = formats.partition_from_lists(witness["cell_partition"])
    lhs = op.restrict(op.restrict(delta, i), j).worth(cell_S, cell_pi)
    rhs = op.restrict(op.restrict(delta, j), i).worth(cell_S, cell_pi)
    assert (lhs, rhs) == tuple(replay_fracs(witness, "lhs", "rhs"))
    assert lhs != rhs


def test_null_player_axiom_mpw_passes():
    assert check_null_player_axiom(mpw_value, 4, "mpw").passed


def test_null_player_axiom_fails_for_perturbed_family():
    solution = lambda w: p_shapley_vector(w, EPS_MID)
    report = check_null_player_axiom(solution, 4, "p-shapley[eps:4=1/24]")
    assert not report.passed
    witness = report.witness
    assert witness["kind"] == "witness-family"
    game = null_player_witness(
        formats.coalition_from_list(witness["players"]),
        witness["player"],
        formats.partition_from_lists(witness["partition"]),
        formats.coalition_from_list(witness["block"]),
    )
    assert is_null_player(game, witness["player"])
    assert solution(game)[witness["player"]] == Fraction(witness["payoff"])


def test_null_player_axiom_fails_for_egalitarian_split():
    egalitarian = nullifying_restriction().shapley_value
    report = check_null_player_axiom(egalitarian, 3, "egalitarian")
    assert not report.passed
    assert Fraction(report.witness["payoff"]) != 0


def test_monotonicity_conditions():
    assert check_monotonicity_conditions(PSTAR, 5).passed
    report = check_monotonicity_conditions(EPS_MID, 4)
    assert not report.passed
    assert formats.coalition_from_list(report.witness["players"]) == prefix(4)
    report2 = check_monotonicity_conditions(EWENS_HALF, 3)
    assert not report2.passed
    assert formats.coalition_from_list(report2.witness["players"]) == prefix(2)
    lhs, rhs = monotonicity_instance(
        EWENS_HALF,
        formats.coalition_from_list(report2.witness["players"]),
        report2.witness["player"],
        formats.partition_from_lists(report2.witness["partition"]),
        formats.coalition_from_list(report2.witness["block"]),
    )
    assert (lhs, rhs) == tuple(replay_fracs(report2.witness, "lhs", "rhs"))


def test_only_pstar_generates_and_factorizes():
    """Instance-wise uniqueness: pstar alone passes both gen and ci."""
    suite = {
        "pstar": PSTAR,
        "ewens-half": EWENS_HALF,
        "ewens-two": EWENS_TWO,
        "eps-eighth": EPS_EIGHTH,
        "eps-neg": EPS_NEG,
    }
    survivors = {
        name
        for name, family in suite.items()
        if check_gen(family, 4).passed and check_ci(family, 4).passed
    }
    assert survivors == {"pstar"}


def test_only_pstar_generates_and_pays_null_players_nothing():
    suite = {
        "pstar": PSTAR,
        "ewens-half": EWENS_HALF,
        "ewens-two": EWENS_TWO,
        "eps-eighth": EPS_EIGHTH,
        "eps-neg": EPS_NEG,
    }
    survivors = set()
    for name, family in suite.items():
        if not check_gen(family, 4).passed:
            continue
        solution = lambda w, fam=family: p_shapley_vector(w, fam)
        if check_null_player_axiom(solution, 4, name).passed:
            survivors.add(name)
    assert survivors == {"pstar"}


def test_mpw_monotone_on_dominating_pairs():
    """Adding a nonnegative marginal perturbation never lowers the payoff."""
    rng = random.Random(321)
    N = prefix(4)
    for _ in range(20):
        z = random_tux_game(N, rng)
        i = rng.choice(partitions.members(N))
        bit = 1 << i

        def bump(S, pi):
            if S & bit:
                return Fraction(rng.randint(0, 4), rng.randint(1, 3))
            return Fraction(0)

        w = z + tux_games.TuxGame.from_function(N, bump)
        assert mpw_value(w)[i] >= mpw_value(z)[i]


def test_failing_reports_always_carry_witnesses():
    reports = [
        check_gen(EWENS_HALF, 3),
        check_ci(EPS_EIGHTH, 4),
        check_pos(EPS_EIGHTH, 4),
        check_monotonicity_conditions(EWENS_HALF, 3),
        check_restriction_axioms(removal_biased_restriction(), 3),
    ]
    for report in reports:
        assert not report.passed
        witness = report.witness
        assert witness is not None
        if "prob" not in witness:
            assert witness["lhs"] != witness["rhs"]


def test_report_json_shape():
    report = check_gen(PSTAR, 2)
    data = report.to_json()
    assert set(data) == {"subject", "passed", "checked", "witness"}
    assert data["passed"] is True


def test_nmax_respects_universe_bound():
    old = partitions.set_universe_bound(3)
    try:
        with pytest.raises(partitions.CapacityError):
            check_gen(PSTAR, 4)
    finally:
        partitions.set_universe_bound(old)


def test_pstar_passes_everything_at_six_players():
    assert check_gen(PSTAR, 6).passed
    assert check_ci(PSTAR, 6).passed
    assert check_pos(PSTAR, 6).passed
    assert check_monotonicity_conditions(PSTAR, 6).passed


def test_family_checks_at_the_eight_player_bound():
    counts = {check_gen: 2761, check_ci: 21146, check_pos: 5295,
              check_monotonicity_conditions: 31964}
    for check, checked in counts.items():
        report = check(PSTAR, 8)
        assert report.passed, report.witness
        assert report.checked == checked


def test_null_player_witness_validates_arguments():
    N = prefix(3)
    pi = formats.partition_from_lists([[2], [3]])
    with pytest.raises(ValueError):
        null_player_witness(N, 9, pi, partitions.mask_from([2]))
    with pytest.raises(ValueError):
        null_player_witness(N, 1, pi, partitions.mask_from([9]))


@pytest.mark.parametrize(
    "i, pi, block",
    [
        (9, [[2], [3]], [2]),  # player outside the player set
        (1, [[2], [3]], [9]),  # block not in the partition
        (2, [[2], [3]], [3]),  # player already placed
        (1, [[2]], [2]),  # partition misses player 3
        (40, [[2], [3]], [2]),  # player id out of range
    ],
)
def test_placement_instances_validate_arguments(i, pi, block):
    N = prefix(3)
    pi, block = formats.partition_from_lists(pi), partitions.mask_from(block)
    with pytest.raises(ValueError):
        null_player_witness(N, i, pi, block)
    with pytest.raises(ValueError):
        monotonicity_instance(PSTAR, N, i, pi, block)


def copy_grand_coalition(w, i, S, pi):
    # every subgame cell copies the grand coalition's worth: path independent
    # and null preserving, but it reads a cell no restricted worth may read
    return w.worth(w.players, ()) if S else 0


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_non_local_operator_fails_locality_with_replayable_witness(n_max):
    op = RestrictionOperator("copy-grand", copy_grand_coalition)
    report = check_restriction_axioms(op, n_max)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "RES"
    N = formats.coalition_from_list(witness["players"])
    i = witness["player"]
    S = formats.coalition_from_list(witness["cell_coalition"])
    pi = formats.partition_from_lists(witness["cell_partition"])
    probe = (
        formats.coalition_from_list(witness["probe_coalition"]),
        formats.partition_from_lists(witness["probe_outside"]),
    )
    assert probe != (S, partitions.insert_player(pi, i, 0))
    base = tux_games.dirac_game(N, S, partitions.insert_player(pi, i, 0))
    bumped = base + tux_games.dirac_game(N, *probe)
    lhs, rhs = op.restricted_worth(base, i, S, pi), op.restricted_worth(bumped, i, S, pi)
    assert (lhs, rhs) == tuple(replay_fracs(witness, "lhs", "rhs"))
    assert lhs != rhs


def clipped_cell(w, i, S, pi):
    return max(w.worth(S, partitions.insert_player(pi, i, 0)), 0)


@pytest.mark.parametrize(
    "cell", [clipped_cell, lambda w, i, S, pi: 1], ids=["compares-worths", "constant"]
)
def test_non_linear_rules_fail_linearity(cell):
    report = check_restriction_axioms(RestrictionOperator("non-linear", cell), 3)
    assert not report.passed
    assert report.witness["axiom"] == "LIN"
    assert report.witness["error"]


def test_rule_that_is_linear_only_symbolically_fails_linearity():
    """The removal map is checked against ``restrict`` on the dense game with
    worth 1/k at the k-th nonempty embedded coalition."""

    def cell(w, i, S, pi):
        worth = w.worth(S, partitions.insert_player(pi, i, 0))
        return worth if isinstance(w, tux_games.TuxGame) else 2 * worth

    op = RestrictionOperator("two-faced", cell)
    report = check_restriction_axioms(op, 3)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "LIN"
    N = formats.coalition_from_list(witness["players"])
    cells = [c for c in partitions.enumerate_embedded(N) if c[0]]
    dense = tux_games.TuxGame(N, {c: Fraction(1, k) for k, c in enumerate(cells, 1)})
    S = formats.coalition_from_list(witness["cell_coalition"])
    pi = formats.partition_from_lists(witness["cell_partition"])
    rhs = op.restricted_worth(dense, witness["player"], S, pi)
    assert Fraction(witness["rhs"]) == rhs
    assert Fraction(witness["lhs"]) == 2 * rhs


def test_rule_that_moves_only_the_null_game_fails_null_game_preservation():
    def cell(w, i, S, pi):
        worth = w.worth(S, partitions.insert_player(pi, i, 0))
        null = isinstance(w, tux_games.TuxGame) and w == tux_games.null_game(w.players)
        return worth + 1 if null else worth

    op = RestrictionOperator("null-mover", cell)
    report = check_restriction_axioms(op, 3)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "PNG"
    N = formats.coalition_from_list(witness["players"])
    S = formats.coalition_from_list(witness["cell_coalition"])
    pi = formats.partition_from_lists(witness["cell_partition"])
    restricted = op.restrict(tux_games.null_game(N), witness["player"])
    assert restricted.worth(S, pi) == Fraction(witness["lhs"]) != 0


def test_builtin_operators_pass_at_six_players():
    assert check_restriction_axioms(crp_restriction(), 6).passed
    assert check_restriction_axioms(probability_restriction(PSTAR), 6).passed
