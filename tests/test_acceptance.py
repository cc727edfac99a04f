"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single pass/fail line (visible with ``pytest -s`` or in
the failure report) and then asserts. Exact criteria tolerate no error at
all; the sampling criterion states its tolerance in standard errors.
"""

import math
import time
from fractions import Fraction

from pfgames import formats, partitions, tu_games, tux_games, verify
from pfgames.random_partitions import PSTAR, ewens_family, perturbed_family
from pfgames.restriction_ops import (
    crp_restriction,
    nullifying_restriction,
    probability_restriction,
    removal_biased_restriction,
)
from pfgames.sampling import estimate_payoff, sample_crp
from pfgames.tux_games import (
    dirac_basis,
    expected_accumulated_worth,
    is_null_player,
    lift_tu_game,
    mpw_value,
    p_shapley_vector,
    productive_pair_game,
)

from .corpus import prefix, random_tu_game, random_tux_game, tu_corpus, tux_corpus

EWENS_HALF = ewens_family(Fraction(1, 2))
EWENS_TWO = ewens_family(2)
EPS_NEG = perturbed_family({4: Fraction(-1, 24)})
EPS_INTERIOR = perturbed_family({4: Fraction(1, 48)})
EPS_BOUNDARY = perturbed_family({4: Fraction(1, 8)})
EPS_MID = perturbed_family({4: Fraction(1, 24)})


class Collector:
    def __init__(self):
        self.failures = []

    def check(self, condition, label):
        if not condition:
            self.failures.append(label)


def conclude(number, name, collector):
    status = "PASS" if not collector.failures else "FAIL"
    print(f"criterion {number:02d} [{name}]: {status}")
    assert not collector.failures, f"criterion {number} ({name}): " + "; ".join(
        collector.failures
    )


with_block = partitions.with_block


def test_criterion_01_shapley_is_contribution_to_potential():
    c = Collector()
    started = time.perf_counter()
    for v in tu_corpus(50, max_n=5, seed=101):
        pot = tu_games.potential(v)
        payoff = tu_games.shapley_value(v)
        for i in v.member_ids():
            c.check(
                payoff[i] == pot - tu_games.potential(tu_games.subgame(v, [i])),
                f"payoff mismatch for player {i}",
            )
    elapsed = time.perf_counter() - started
    c.check(elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s")
    conclude(1, "Shapley equals potential contribution", c)


def test_criterion_02_potential_routes():
    c = Collector()
    for v in tu_corpus(50, max_n=5, seed=101):
        pot = tu_games.potential(v)
        c.check(
            tu_games.potential_via_random_partition(v) == pot,
            "expected accumulated worth route differs",
        )
        c.check(
            expected_accumulated_worth(lift_tu_game(v), PSTAR) == pot,
            "lifted-game route differs",
        )
        c.check(
            tu_games.potential_via_size_weights(v) == pot,
            "per-capita route differs",
        )
    conclude(2, "potential equals expected accumulated worth", c)


def test_criterion_03_crp_route_equals_direct_shapley():
    c = Collector()
    for v in tu_corpus(50, max_n=5, seed=101):
        c.check(
            tu_games.shapley_via_crp(v) == tu_games.shapley_value(v),
            "restaurant route differs",
        )
    conclude(3, "both Shapley routes agree", c)


def test_criterion_04_potential_generation_characterization():
    c = Collector()
    for family in (PSTAR, EPS_NEG, EPS_INTERIOR, EPS_BOUNDARY):
        c.check(verify.check_gen(family, 5).passed, f"{family.label} should generate")
    report = verify.check_gen(EWENS_HALF, 5)
    c.check(not report.passed, "ewens(1/2) should not generate")
    c.check(
        report.witness is not None
        and report.witness["players"] == [1, 2]
        and report.witness["lhs"] == "2/3"
        and report.witness["rhs"] == "1/2",
        f"unexpected witness {report.witness}",
    )
    # the three equivalent conditions agree, family by family, over the
    # Dirac basis of every prefix player set up to five players
    for family in (PSTAR, EPS_NEG, EPS_INTERIOR, EPS_BOUNDARY, EWENS_HALF):
        block_ok = expected_ok = reduction_ok = True
        for n in range(1, 6):
            N = prefix(n)
            for T in partitions.subsets(N):
                if not T:
                    continue
                lhs, rhs = verify.gen_block_probability(family, N, T)
                block_ok &= lhs == rhs
                dirac = tu_games.dirac_game(N, T)
                expected_ok &= expected_accumulated_worth(
                    lift_tu_game(dirac), family
                ) == tu_games.potential(dirac)
            for i in partitions.members(N):
                for S in partitions.subsets(N & ~(1 << i)):
                    if not S:
                        continue
                    lhs, rhs = verify.reduction_identity(family, N, i, S)
                    reduction_ok &= lhs == rhs
        c.check(
            block_ok == expected_ok == reduction_ok,
            f"routes disagree for {family.label}",
        )
    conclude(4, "potential generation equivalences", c)


def test_criterion_05_generating_families_share_small_probabilities():
    c = Collector()
    suite = (PSTAR, EPS_NEG, EPS_INTERIOR, EPS_BOUNDARY)
    for family in suite:
        for n in range(1, 6):
            N = prefix(n)
            c.check(
                family.prob(N, (N,)) == Fraction(1, n),
                f"{family.label}: grand coalition at n={n}",
            )
            for i in partitions.members(N):
                if n == 1:
                    continue
                pi = with_block((partitions.singleton(i),), N & ~(1 << i))
                c.check(
                    family.prob(N, pi) == Fraction(1, n * (n - 1)),
                    f"{family.label}: near-grand at n={n}",
                )
        for n in range(1, 4):
            c.check(
                family.distribution(prefix(n)) == PSTAR.distribution(prefix(n)),
                f"{family.label} deviates below four players",
            )
    conclude(5, "generating families pinned on small sets", c)


def test_criterion_06_operator_potential_is_expected_worth():
    c = Collector()
    for family in (PSTAR, EPS_INTERIOR):
        c.check(verify.check_pos(family, 4).passed, f"{family.label} not positive")
        op = probability_restriction(family)
        for n in range(1, 5):
            N = prefix(n)
            for (T, tau), delta in dirac_basis(N):
                c.check(
                    op.potential(delta) == family.prob(N, with_block(tau, T)),
                    f"{op.label}: Dirac potential at n={n}",
                )
        for w in tux_corpus(20, n=4, seed=606):
            c.check(
                op.potential(w) == expected_accumulated_worth(w, family),
                f"{op.label}: seeded game potential",
            )
    conclude(6, "operator potential equals expected accumulated worth", c)


def test_criterion_07_restriction_axioms():
    c = Collector()
    operators = (
        crp_restriction(),
        probability_restriction(PSTAR),
        probability_restriction(EPS_INTERIOR),
        nullifying_restriction(),
    )
    for op in operators:
        report = verify.check_restriction_axioms(op, 5)
        c.check(report.passed, f"{op.label} fails axioms: {report.witness}")
    report = verify.check_restriction_axioms(removal_biased_restriction(), 4)
    c.check(not report.passed, "biased operator should fail")
    witness = report.witness
    c.check(witness is not None and witness["axiom"] == "PI", "expected a PI witness")
    if witness is not None and witness["axiom"] == "PI":
        op = removal_biased_restriction()
        delta = tux_games.dirac_game(
            formats.coalition_from_list(witness["players"]),
            formats.coalition_from_list(witness["coalition"]),
            formats.partition_from_lists(witness["outside"]),
        )
        i, j = witness["first_removed"], witness["second_removed"]
        S = formats.coalition_from_list(witness["cell_coalition"])
        pi = formats.partition_from_lists(witness["cell_partition"])
        lhs = op.restrict(op.restrict(delta, i), j).worth(S, pi)
        rhs = op.restrict(op.restrict(delta, j), i).worth(S, pi)
        c.check(
            (str(lhs), str(rhs)) == (witness["lhs"], witness["rhs"]) and lhs != rhs,
            "witness does not replay",
        )
    conclude(7, "restriction operator axioms", c)


def test_criterion_08_three_solutions_coincide():
    c = Collector()
    rstar = crp_restriction()
    for n in range(1, 5):
        for _, delta in dirac_basis(prefix(n)):
            a = rstar.shapley_value(delta)
            b = mpw_value(delta)
            d = p_shapley_vector(delta, PSTAR)
            c.check(a == b == d, f"solutions differ on a Dirac game at n={n}")
    conclude(8, "operator value = MPW = p-Shapley at the CRP law", c)


def test_criterion_09_null_player_selects_the_crp_law():
    c = Collector()
    report = verify.check_null_player_axiom(
        lambda w: p_shapley_vector(w, EPS_MID), 4, "p-shapley[eps:4=1/24]"
    )
    c.check(not report.passed, "perturbed family should fail the null player check")
    witness = report.witness
    c.check(
        witness is not None and witness["kind"] == "witness-family",
        "expected a witness-family game",
    )
    if witness is not None and witness["kind"] == "witness-family":
        game = verify.null_player_witness(
            formats.coalition_from_list(witness["players"]),
            witness["player"],
            formats.partition_from_lists(witness["partition"]),
            formats.coalition_from_list(witness["block"]),
        )
        payoff = p_shapley_vector(game, EPS_MID)[witness["player"]]
        c.check(
            is_null_player(game, witness["player"])
            and payoff == Fraction(witness["payoff"])
            and payoff != 0,
            "witness game does not replay",
        )
    c.check(
        verify.check_null_player_axiom(mpw_value, 4, "mpw").passed,
        "MPW should pass the null player check",
    )
    suite = {
        "pstar": PSTAR,
        "ewens:1/2": EWENS_HALF,
        "ewens:2": EWENS_TWO,
        "eps:1/8": EPS_BOUNDARY,
        "eps:-1/24": EPS_NEG,
        "eps:1/24": EPS_MID,
    }
    monotone = {
        name
        for name, family in suite.items()
        if verify.check_monotonicity_conditions(family, 4).passed
    }
    c.check(monotone == {"pstar"}, f"monotonicity survivors: {monotone}")
    conclude(9, "only the CRP law pays null players nothing", c)


def test_criterion_10_showcase_game():
    c = Collector()
    w = productive_pair_game()
    rstar = crp_restriction()
    sub = rstar.restrict(w, 4)
    lhs = sub.worth([1, 3], formats.partition_from_lists([[2]]))
    rhs = sub.worth([3], formats.partition_from_lists([[1, 2]]))
    c.check(lhs == Fraction(1, 2), f"cell ({{1,3}},{{{{2}}}}) = {lhs}")
    c.check(rhs == Fraction(1, 3), f"cell ({{3}},{{{{1,2}}}}) = {rhs}")
    c.check(lhs - rhs == Fraction(1, 6), "marginal contribution is not 1/6")
    c.check(is_null_player(w, 1), "player 1 should be null before removal")
    c.check(not is_null_player(sub, 1), "player 1 should stop being null")
    c.check(mpw_value(sub)[1] == 0, "player 1 should still be paid nothing")
    for game in [w] + tux_corpus(20, n=4, seed=1010):
        avg = tux_games.average_game(game, PSTAR)
        for i in partitions.members(game.players):
            c.check(
                tux_games.average_game(rstar.restrict(game, i), PSTAR)
                == tu_games.subgame(avg, [i]),
                "averaging and restriction do not commute",
            )
    conclude(10, "showcase externality game", c)


def test_criterion_11_generation_plus_factorization_pin_down_the_law():
    c = Collector()
    suite = {
        "pstar": PSTAR,
        "ewens:1/2": EWENS_HALF,
        "ewens:2": EWENS_TWO,
        "eps:1/8": EPS_BOUNDARY,
        "eps:-1/24": EPS_NEG,
    }
    survivors = {
        name
        for name, family in suite.items()
        if verify.check_gen(family, 4).passed and verify.check_ci(family, 4).passed
    }
    c.check(survivors == {"pstar"}, f"survivors: {survivors}")
    lhs, rhs = verify.ci_instance(
        EPS_BOUNDARY,
        prefix(4),
        formats.partition_from_lists([[1, 2], [3], [4]]),
        partitions.mask_from([1, 2]),
    )
    c.check(lhs == 0, f"boundary one-pair probability is {lhs}")
    c.check(
        rhs == Fraction(1, 2) * Fraction(1, 12),
        f"factorized side is {rhs}, not (1/2)*(1/12)",
    )
    conclude(11, "unique family with generation and factorization", c)


def test_criterion_12_nullifying_operator_gives_equal_split():
    c = Collector()
    nullify = nullifying_restriction()
    for w in tux_corpus(20, n=4, seed=1212):
        share = w.worth(w.players, ()) / 4
        payoff = nullify.shapley_value(w)
        c.check(all(x == share for x in payoff.values()), "equal split violated")
    report = verify.check_null_player_axiom(nullify.shapley_value, 3, "egalitarian")
    c.check(not report.passed, "equal split should fail the null player check")
    witness = report.witness
    c.check(
        witness is not None
        and len(witness["players"]) > 1
        and Fraction(witness["payoff"]) != 0,
        "expected a multi-player witness with a nonzero payoff",
    )
    conclude(12, "nullifying operator induces the equal split", c)


def test_criterion_13_sampling():
    c = Collector()
    draws = sample_crp(prefix(4), seed=404, count=100_000)
    freq = sum(1 for pi in draws if len(pi) == 1) / len(draws)
    se = math.sqrt(0.25 * 0.75 / len(draws))
    c.check(abs(freq - 0.25) <= 4 * se, f"grand coalition frequency {freq:.4f}")
    c.check(
        draws[:100] == sample_crp(prefix(4), seed=404, count=100_000)[:100],
        "draws not reproducible",
    )
    import random

    rng = random.Random(1313)
    for k in range(5):
        v = random_tu_game(prefix(rng.randint(2, 4)), rng)
        i = rng.choice(v.member_ids())
        exact = float(tu_games.shapley_value(v)[i])
        est = estimate_payoff(v, i, "shapley", n_samples=6000, seed=500 + k)
        c.check(
            abs(est.mean - exact) <= 4 * est.std_error + 1e-9,
            f"shapley estimate off for seeded game {k}",
        )
        c.check(
            est == estimate_payoff(v, i, "shapley", n_samples=6000, seed=500 + k),
            "shapley estimate not reproducible",
        )
    for k in range(5):
        w = random_tux_game(prefix(4), rng)
        i = rng.choice(w.member_ids())
        exact = float(mpw_value(w)[i])
        est = estimate_payoff(w, i, "mpw", n_samples=6000, seed=700 + k)
        c.check(
            abs(est.mean - exact) <= 4 * est.std_error + 1e-9,
            f"mpw estimate off for seeded game {k}",
        )
        c.check(
            est == estimate_payoff(w, i, "mpw", n_samples=6000, seed=700 + k),
            "mpw estimate not reproducible",
        )
    conclude(13, "Monte Carlo layer", c)
