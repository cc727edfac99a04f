import json
import math
import operator
import random
from fractions import Fraction

import pytest

from pfgames import cli, formats, partitions, tux_games, verify
from pfgames.random_partitions import (
    PSTAR,
    RandomPartitionFamily,
    ewens_family,
    perturbed_family,
)
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

from .corpus import (
    mixed_denominator_cell,
    numerator_rule,
    prefix,
    random_tux_game,
    rule_restrict,
)

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


def replay_path_independence(op, witness):
    """Both removal orders of a PI witness, through ``restrict``, on its Dirac game."""
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
    return lhs, rhs


def test_biased_operator_fails_path_independence_with_replayable_witness():
    op = removal_biased_restriction()
    report = check_restriction_axioms(op, 3)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "PI"
    lhs, rhs = replay_path_independence(op, witness)
    assert (lhs, rhs) == tuple(replay_fracs(witness, "lhs", "rhs"))
    assert lhs != rhs


def lone_weighted_cell(w, i, S, pi):
    # weight i + 1 on staying alone beside a nonempty outside partition, 1 on
    # every other placement: the two removal orders agree at the first cell a
    # composed row reads and differ at a later one
    total = 0
    for B, grown in partitions.placements(pi, i):
        x = w.worth(S, grown)
        total += (i + 1) * x if not B and pi else x
    return total


def test_path_dependence_past_the_first_cell_of_a_row_fails_path_independence():
    op = RestrictionOperator("lone-weighted", lone_weighted_cell)
    report = check_restriction_axioms(op, 3)
    assert not report.passed
    witness = report.witness
    pinned = {"axiom": "PI", "players": [1, 2, 3], "coalition": [3],
              "outside": [[1], [2]], "lhs": "2", "rhs": "3"}
    assert {key: witness[key] for key in pinned} == pinned
    assert replay_path_independence(op, witness) == tuple(replay_fracs(witness, "lhs", "rhs"))


def test_null_player_axiom_mpw_passes():
    assert check_null_player_axiom(mpw_value, 4, "mpw").passed


def test_null_player_witness_count_is_predicted_before_the_check():
    mpw, label = cli.parse_solution("mpw")  # decided on rows
    for n_max in range(1, 6):
        report = check_null_player_axiom(lambda w: dict.fromkeys(w.member_ids(), 0), n_max)
        assert verify._null_player_count(n_max) == report.checked
        assert check_null_player_axiom(mpw, n_max, label).checked == report.checked
    assert [verify._null_player_count(n) for n in (7, 8)] == [5861, 31965]
    assert verify.MAX_NULL_PLAYER_WITNESSES >= 31965


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


def test_null_player_check_flags_negative_payoffs_like_positive_ones():
    """A solution and its negation fail at the same witness, payoffs negated."""
    solution = removal_biased_restriction().shapley_value
    negated = lambda w: {i: -x for i, x in solution(w).items()}
    report = check_null_player_axiom(solution, 3, "r-shapley[biased]")
    mirror = check_null_player_axiom(negated, 3, "negated")
    assert not report.passed and not mirror.passed
    assert report.witness["payoff"] == "-1/3"
    assert mirror.witness == dict(report.witness, payoff="1/3")
    assert mirror.checked == report.checked


# a table on players 1..3 that is not the uniform CRP law, so its p-Shapley
# value pays a null player there
SKEWED_TABLE = {"n": 3, "entries": [
    {"partition": [[1], [2], [3]], "prob": "1/6"}, {"partition": [[1, 2], [3]], "prob": "1/3"},
    {"partition": [[1, 3], [2]], "prob": "1/6"}, {"partition": [[1], [2, 3]], "prob": "1/12"},
    {"partition": [[1, 2, 3]], "prob": "1/4"}]}
BUILT_IN_SOLUTIONS = ["mpw", "p-shapley:pstar", "p-shapley:ewens:1/2", "p-shapley:eps:4=1/24",
                      "p-shapley:table:", "r-shapley:rstar", "r-shapley:rp:pstar",
                      "r-shapley:nullify", "r-shapley:biased"]


def parse_built_in(spec, tmp_path):
    if spec.endswith("table:"):
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(SKEWED_TABLE))
        spec += str(path)
    return cli.parse_solution(spec)


@pytest.mark.parametrize("spec", BUILT_IN_SOLUTIONS)
def test_row_route_reports_equal_the_dense_route(spec, tmp_path):
    """A built-in solution carries its linear map, and the check decides it on
    rows; the same callable without the map runs every witness game."""
    solution, label = parse_built_in(spec, tmp_path)
    assert callable(solution.linear_map)
    dense = lambda w: solution(w)
    verdicts = []
    for n_max in range(1, 6):
        report = check_null_player_axiom(solution, n_max, label)
        assert report == check_null_player_axiom(dense, n_max, label), n_max
        verdicts.append(report.passed)
    expected = spec in ("mpw", "p-shapley:pstar", "r-shapley:rstar", "r-shapley:rp:pstar")
    assert verdicts[-1] == expected


@pytest.mark.parametrize("n", [1, 4, 6])
def test_the_map_a_solution_carries_is_the_cached_table_it_applies(n, tmp_path):
    """One map serves computing and checking: the null-player check reads the
    very table ``mpw``, ``p-shapley`` and ``r-shapley`` apply, not a copy."""
    N = prefix(n)
    solution, _ = cli.parse_solution("mpw")
    assert solution.linear_map(N) is PSTAR.outside_runs(N)
    for spec in ("p-shapley:pstar", "p-shapley:ewens:1/2", "p-shapley:eps:4=1/24",
                 "p-shapley:table:"):
        solution, _ = parse_built_in(spec, tmp_path)
        assert solution.func is p_shapley_vector
        family = solution.keywords["family"]  # the family whose value the solution is
        assert solution.linear_map(N) is family.block_runs(N), spec
    solution, _ = cli.parse_solution("r-shapley:rstar")
    op = solution.func.__self__  # the operator whose value the solution is
    assert solution.linear_map(N) is op.auxiliary_map(N)


def test_row_route_flags_a_first_witness_that_pays_a_negative_amount():
    solution, label = cli.parse_solution("r-shapley:biased")
    report = check_null_player_axiom(solution, 3, label)
    pinned = {"check": "null-player", "kind": "witness-family", "players": [1, 2, 3],
              "player": 1, "partition": [[2], [3]], "block": [2], "payoff": "-1/3"}
    assert (report.passed, report.checked, report.witness) == (False, 11, pinned)


def test_row_route_replays_its_witness_and_refuses_a_map_the_solution_disagrees_with():
    solution, label = cli.parse_solution("mpw")
    zero = lambda w: dict.fromkeys(w.member_ids(), 0)
    zero.linear_map = solution.linear_map
    assert check_null_player_axiom(zero, 4, "zero").passed
    zero.linear_map = cli.parse_solution("r-shapley:nullify")[0].linear_map
    with pytest.raises(RuntimeError, match="linear map of zero"):
        check_null_player_axiom(zero, 2, "zero")


def ci_game8():
    """The dense 8-player game of the CI workflow."""
    rng = random.Random(8)
    N = partitions.mask_from(range(1, 9))
    return tux_games.TuxGame(N, {cell: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                 for cell in partitions.enumerate_embedded(N) if cell[0]})


@pytest.mark.parametrize("spec", ["mpw", "p-shapley:pstar", "r-shapley:rstar"])
def test_each_row_times_the_worths_is_n_factorial_den_times_the_payoff(spec):
    solution, _ = cli.parse_solution(spec)
    rng = random.Random(26)
    games = [random_tux_game(prefix(n), rng) for n in range(1, 7) for _ in range(2)]
    games += [random_tux_game(partitions.mask_from([0, 3, 5, 9]), rng), ci_game8()]
    for w in games:
        den, _ = solution.linear_map(w.players)
        rows = verify._null_player_rows(solution.linear_map, w.players)
        payoff = solution(w)
        assert sorted(rows) == sorted(payoff)
        for i, row in rows.items():
            numerator = sum(map(operator.mul, row, w.nums))
            assert numerator == math.factorial(w.n) * den * w.den * payoff[i], (w.n, i)


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


def local_then_grand_coalition(w, i, S, pi):
    # an admissible cell read first, then the grand coalition's
    return w.worth(S, partitions.insert_player(pi, i, 0)) + w.worth(w.players, ())


def test_a_non_local_read_after_a_local_one_fails_locality():
    """RES judges every cell a row reads, not only the first."""
    report = check_restriction_axioms(
        RestrictionOperator("local-then-grand", local_then_grand_coalition), 3)
    assert not report.passed
    witness = report.witness
    assert witness["axiom"] == "RES"
    assert (witness["players"], witness["player"]) == ([1, 2], 1)
    assert (witness["probe_coalition"], witness["probe_outside"]) == ([1, 2], [])


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


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_lin_probe_equals_the_fraction_built_probe(n):
    """The LIN probe built in integers is the game with worth 1/k at the k-th
    nonempty cell, with the same reduced denominator and numerators."""
    N = prefix(n)
    cells = [c for c in partitions.enumerate_embedded(N) if c[0]]
    expected = tux_games.TuxGame(N, {c: Fraction(1, k) for k, c in enumerate(cells, 1)})
    probe = verify._lin_probe(N)
    assert (probe.players, probe.den, probe.nums) == (N, expected.den, expected.nums)
    assert probe == expected


def test_lcm_of_one_to_k_by_prime_powers_equals_math_lcm():
    """K = 17,007 is the nonempty cell count of eight players."""
    for K in [*range(1, 2001), 17_007]:
        assert verify._lcm_up_to(K) == math.lcm(*range(1, K + 1)), K


def test_rule_that_is_linear_only_symbolically_fails_linearity():
    """The removal map is checked against the rule, through ``restricted_worth``,
    on the dense game with worth 1/k at the k-th nonempty embedded coalition."""

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
    lhs = op.restricted_worth(tux_games.null_game(N), witness["player"], S, pi)
    assert lhs == Fraction(witness["lhs"]) != 0


def test_restriction_instances_are_predicted_before_the_check(tmp_path):
    # pstar's own law on a set that is not a prefix, named by the table
    players = [2, 4, 5, 7]
    entries = [{"partition": formats.partition_to_lists(pi), "prob": formats.format_rational(p)}
               for pi, p in PSTAR.distribution(players).items()]
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({"players": players, "entries": entries}))
    for spec in ("rstar", f"rp:table:{path}"):
        op = cli.parse_operator(spec)
        for n_max in range(1, 6):
            report = check_restriction_axioms(op, n_max)
            assert report.passed, (spec, n_max)
            sets = verify._player_sets(n_max, op.explicit_player_sets)
            assert verify._restriction_count(sets) == report.checked, (spec, n_max)
    assert partitions.mask_from(players) in op.explicit_player_sets
    counts = [verify._restriction_count(verify._player_sets(n)) for n in (3, 4, 8)]
    assert counts == [20, 82, 54719]
    assert verify.MAX_RESTRICTION_INSTANCES >= 54719


def test_builtin_operators_pass_at_six_players():
    assert check_restriction_axioms(crp_restriction(), 6).passed
    assert check_restriction_axioms(probability_restriction(PSTAR), 6).passed


def first_and_alone(w, i, S, pi):
    """The worths where ``i`` joins the first outside block (or stays alone
    when there is none) and where it stays alone."""
    grown = [g for _, g in partitions.placements(pi, i)]
    return w.worth(S, grown[0]), w.worth(S, grown[-1])


def truthy_cell(w, i, S, pi):
    first, alone = first_and_alone(w, i, S, pi)
    return alone if alone else first


def equal_cell(w, i, S, pi):
    first, alone = first_and_alone(w, i, S, pi)
    return first if alone == 0 else alone


@pytest.mark.parametrize("cell, error", [
    (truthy_cell, "the truth value of a worth depends on the game"),
    (equal_cell, "comparing worths is not linear"),
], ids=["truth-test", "equality"])
def test_rules_that_branch_on_a_worth_fail_linearity_at_once(cell, error):
    """Both rules agree with a linear rule on the dense probe, whose worths are
    all nonzero, so only the linear forms' refusals can catch them."""
    report = check_restriction_axioms(RestrictionOperator("branching", cell), 4)
    assert (report.passed, report.checked) == (False, 1)
    assert report.witness == {
        "check": "restriction-axioms", "axiom": "LIN", "players": [1, 2], "player": 1,
        "cell_coalition": [2], "cell_partition": [], "error": error}


def signed_crp_cell(w, i, S, pi):
    """The ``rstar`` rule spelled with ``0 - worth``, binary and unary minus
    and division by an integer, arranged so that no wrong sign in one of them
    cancels a wrong sign in another."""
    total = 0
    for B, grown in partitions.placements(pi, i):
        total = total - (0 - w.worth(S, grown)) * (B.bit_count() or 1)
    return -total / -(w.n - S.bit_count())


def test_a_linear_rule_written_with_subtraction_and_division_passes():
    op = RestrictionOperator("signed", signed_crp_cell)
    assert check_restriction_axioms(op, 4).passed
    w = random_tux_game(prefix(4), random.Random(31))
    for i in partitions.members(w.players):
        assert op.restrict(w, i) == rule_restrict(op, w, i) == crp_restriction().restrict(w, i)


@pytest.mark.parametrize("cell", [mixed_denominator_cell, numerator_rule()],
                         ids=["mixed-denominators", "numerators"])
def test_rules_over_several_denominators_or_on_numerators_pass(cell):
    """Forms over several dens added over their lcm, and numerators read over
    ``den``, match the rule on the LIN probe, whose den is lcm(1..K)."""
    report = check_restriction_axioms(RestrictionOperator("custom", cell), 4)
    assert (report.passed, report.checked) == (True, 82)


def test_a_rule_on_numerators_without_den_fails_linearity():
    """Numerators read without their den agree with the forms, whose den is
    1, and not with the rule on the probe, whose den at two players is 6."""
    op = RestrictionOperator("den-dropped", numerator_rule(with_den=False))
    assert check_restriction_axioms(op, 1).passed
    report = check_restriction_axioms(op, 2)
    assert not report.passed
    witness = report.witness
    assert (witness["axiom"], witness["players"]) == ("LIN", [1, 2])
    probe = verify._lin_probe(prefix(2))
    assert probe.den == 6
    S = formats.coalition_from_list(witness["cell_coalition"])
    pi = formats.partition_from_lists(witness["cell_partition"])
    rhs = op.restricted_worth(probe, witness["player"], S, pi)
    assert Fraction(witness["rhs"]) == rhs == Fraction(witness["lhs"]) * probe.den


def test_gen_notes_routes_that_disagree_while_block_probability_holds():
    """pstar except on {2, 3}, where the two singletons have probability 1:
    every block probability on the prefixes holds, the reduction to {2, 3}
    does not."""
    two_three = formats.coalition_from_list([2, 3])
    singletons = partitions.partition_position(formats.partition_from_lists([[2], [3]]))

    def rule(mask):
        if mask != two_three:
            return PSTAR.integer_distribution(mask)
        return 1, tuple(int(k == singletons) for k in range(2))

    report = check_gen(RandomPartitionFamily("split-pair", rule), 3)
    assert not report.passed and report.checked == 33
    assert report.witness == {
        "check": "gen", "route": "one-player-reduction", "players": [1, 2, 3], "player": 1,
        "coalition": [2, 3], "lhs": "0", "rhs": "1/2",
        "note": "routes disagree with block-probability"}


def test_null_player_check_flags_the_showcase_game_either_sign():
    """A solution that pays player 1 only on the showcase game, where player
    1 is null, passes the witness family and fails the showcase check."""
    showcase = tux_games.productive_pair_game()

    def showcase_only(w):
        return {i: int(i == 1 and w == showcase) for i in partitions.members(w.players)}

    negated = lambda w: {i: -x for i, x in showcase_only(w).items()}
    report = check_null_player_axiom(showcase_only, 4, "showcase-only")
    mirror = check_null_player_axiom(negated, 4, "negated")
    pinned = {"check": "null-player", "kind": "showcase-game", "players": [1, 2, 3, 4],
              "player": 1}
    assert (report.passed, report.checked, report.witness) == (False, 52, dict(pinned, payoff="1"))
    assert (mirror.passed, mirror.checked, mirror.witness) == (False, 52, dict(pinned, payoff="-1"))
