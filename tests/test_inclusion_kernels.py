"""The family checks on integer inclusion masses against the Fraction loops
they replaced.

Each reference below is the Fraction body a family check or helper had
before it read ``RandomPartitionFamily.inclusion`` and the integer
distributions. Reports must be equal field for field, witnesses included,
and each integer verdict must agree with the public helper that replays it.
The families include zero table entries, a table on one partition and a
table on a non-prefix player set.
"""

import math
from fractions import Fraction

import pytest

from pfgames import formats, partitions, tu_games, tux_games, verify
from pfgames.random_partitions import (
    PSTAR,
    _validate_distribution,
    ewens_family,
    family_from_distributions,
    over_common_denominator,
    perturbed_family,
)
from pfgames.verify import Report, _nonempty_subsets_large_first, _player_sets, _witness

from .corpus import prefix, refuse_fraction_tables, skewed_table_family

ZERO = Fraction(0)
blocks = formats.partition_from_lists


def one_partition_family():
    """All mass on {1, 2}, {3, 4}; every other partition of 1..4 has zero."""
    N = prefix(4)
    target = blocks([[1, 2], [3, 4]])
    return family_from_distributions(
        "one-partition", {N: {pi: int(pi == target) for pi in partitions.enumerate_partitions(N)}}
    )


def non_prefix_family():
    """A table on players 2, 3, 5, listed against enumeration order, with a zero."""
    table = {
        blocks([[2, 3, 5]]): Fraction(1, 3),
        blocks([[2], [3, 5]]): Fraction(1, 6),
        blocks([[2, 5], [3]]): 0,
        blocks([[2, 3], [5]]): Fraction(1, 3),
        blocks([[2], [3], [5]]): Fraction(1, 6),
    }
    return family_from_distributions("non-prefix", {partitions.mask_from([2, 3, 5]): table})


FAMILIES = {
    "pstar": lambda: PSTAR,
    "ewens:1/2": lambda: ewens_family(Fraction(1, 2)),
    "ewens:2": lambda: ewens_family(2),
    "eps:4=1/24": lambda: perturbed_family({4: Fraction(1, 24)}),
    "eps:4=1/8": lambda: perturbed_family({4: Fraction(1, 8)}),
    "skewed": skewed_table_family,
    "one-partition": one_partition_family,
    "non-prefix": non_prefix_family,
}


# --- the Fraction references --------------------------------------------------


def ref_coalition_inclusion_prob(family, players, coalition):
    mask = partitions.as_mask(players)
    block = partitions.as_mask(coalition)
    return sum((p for pi, p in family.distribution(mask).items() if block in pi), ZERO)


def ref_gen_block_probability(family, N, T):
    n, t = partitions.size(N), partitions.size(T)
    rhs = Fraction(math.factorial(n - t) * math.factorial(t - 1), math.factorial(n))
    return ref_coalition_inclusion_prob(family, N, T), rhs


def ref_reduction_identity(family, N, i, S):
    bit = partitions.singleton(i)
    rest = N & ~bit
    n, s = partitions.size(N), partitions.size(S)
    lhs = rhs = ZERO
    dist, rest_dist = family.distribution(N), family.distribution(rest)
    for pi in partitions.enumerate_partitions(rest & ~S):
        lhs += rest_dist[partitions.with_block(pi, S)]
        for _, grown in partitions.placements(pi, i):
            rhs += dist[partitions.with_block(grown, S)]
    return lhs, Fraction(n, n - s) * rhs


def ref_check_gen(family, n_max):
    checked = 0
    w_block = w_expected = w_reduction = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for T in _nonempty_subsets_large_first(N):
            lhs, rhs = ref_gen_block_probability(family, N, T)
            checked += 1
            if lhs != rhs and w_block is None:
                w_block = _witness("gen", route="block-probability", players=N,
                                   coalition=T, lhs=lhs, rhs=rhs)
            dirac = tu_games.dirac_game(N, T)
            expected = tux_games.expected_accumulated_worth(
                tux_games.lift_tu_game(dirac), family
            )
            pot = tu_games.potential(dirac)
            checked += 1
            if expected != pot and w_expected is None:
                w_expected = _witness("gen", route="expected-accumulated-worth",
                                      players=N, coalition=T, lhs=expected, rhs=pot)
        for i in partitions.members(N):
            for S in _nonempty_subsets_large_first(N & ~(1 << i)):
                lhs, rhs = ref_reduction_identity(family, N, i, S)
                checked += 1
                if lhs != rhs and w_reduction is None:
                    w_reduction = _witness("gen", route="one-player-reduction",
                                           players=N, player=i, coalition=S, lhs=lhs,
                                           rhs=rhs)
    witness = w_block or w_expected or w_reduction
    if w_block is None and witness is not None:
        witness = dict(witness, note="routes disagree with block-probability")
    return Report(f"gen[{family.label}]", witness is None, checked, witness)


def ref_ci_instance(family, N, pi, B):
    remainder = tuple(C for C in pi if C != B)
    rhs = family.prob(N & ~B, remainder) * ref_coalition_inclusion_prob(family, N, B)
    return family.prob(N, pi), rhs


def ref_check_ci(family, n_max):
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for pi in partitions.enumerate_partitions(N):
            for B in sorted(pi, key=lambda b: (-b.bit_count(), partitions.least_member(b))):
                lhs, rhs = ref_ci_instance(family, N, pi, B)
                checked += 1
                if lhs != rhs and witness is None:
                    witness = _witness("ci", players=N, partition=pi, block=B,
                                       lhs=lhs, rhs=rhs)
    return Report(f"ci[{family.label}]", witness is None, checked, witness)


def ref_check_pos(family, n_max):
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for pi, p in family.distribution(N).items():
            checked += 1
            if p <= 0 and witness is None:
                witness = _witness("pos", players=N, partition=pi, prob=p)
    return Report(f"pos[{family.label}]", witness is None, checked, witness)


def ref_check_monotonicity_conditions(family, n_max):
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for i in partitions.members(N):
            for pi in partitions.enumerate_partitions(N & ~(1 << i)):
                for B in pi:
                    lhs, rhs = verify.monotonicity_instance(family, N, i, pi, B)
                    checked += 1
                    if lhs != rhs and witness is None:
                        witness = _witness("monotonicity-conditions", players=N,
                                           player=i, partition=pi, block=B, lhs=lhs,
                                           rhs=rhs)
    return Report(
        f"monotonicity-conditions[{family.label}]", witness is None, checked, witness
    )


def ref_validate_distribution(mask, dist, label):
    expected = partitions.enumerate_partitions(mask)
    if set(dist) != set(expected):
        raise ValueError(
            f"family {label!r} does not assign a probability to every partition "
            f"of {sorted(partitions.members(mask))}"
        )
    total = ZERO
    for pi, p in dist.items():
        if p < 0:
            raise ValueError(f"family {label!r} assigns a negative probability to {pi}")
        total += p
    if total != 1:
        raise ValueError(
            f"family {label!r} sums to {total} != 1 on {sorted(partitions.members(mask))}"
        )


def ref_ewens_probability(theta, pi, n):
    rising = math.prod((theta + j for j in range(n)), start=Fraction(1))
    return theta ** len(pi) * math.prod(math.factorial(b.bit_count() - 1) for b in pi) / rising


# --- reports ------------------------------------------------------------------

CHECKS = [
    (verify.check_gen, ref_check_gen),
    (verify.check_ci, ref_check_ci),
    (verify.check_pos, ref_check_pos),
    (verify.check_monotonicity_conditions, ref_check_monotonicity_conditions),
]


@pytest.mark.parametrize("check, reference", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", FAMILIES)
def test_family_check_reports_equal_the_fraction_references(name, check, reference):
    for n_max in range(1, 6):
        # fresh families, so each report starts from empty caches
        expected = reference(FAMILIES[name](), n_max).to_json()
        assert check(FAMILIES[name](), n_max).to_json() == expected


def test_the_references_see_both_verdicts():
    verdicts = {(check.__name__, reference(FAMILIES[name](), 5).passed)
                for name in FAMILIES for check, reference in CHECKS}
    assert verdicts == {(check.__name__, passed) for check, _ in CHECKS
                        for passed in (True, False)}


# --- instances ----------------------------------------------------------------


def _instances_up_to_five(family):
    for N in _player_sets(5, family.explicit_player_sets):
        for route, i, T, holds in verify._gen_instances(family, N):
            if route == "block-probability":
                sides = verify.gen_block_probability(family, N, T)
                assert sides == ref_gen_block_probability(family, N, T)
            elif route == "expected-accumulated-worth":
                dirac = tu_games.dirac_game(N, T)
                sides = (tux_games.expected_accumulated_worth(tux_games.lift_tu_game(dirac),
                                                              family),
                         tu_games.potential(dirac))
            else:
                sides = verify.reduction_identity(family, N, i, T)
                assert sides == ref_reduction_identity(family, N, i, T)
            yield route, holds, sides
        for pi, B, holds in verify._ci_instances(family, N):
            sides = verify.ci_instance(family, N, pi, B)
            assert sides == ref_ci_instance(family, N, pi, B)
            yield "ci", holds, sides
        for i, pi, B, holds in verify._monotonicity_instances(family, N):
            yield "monotonicity", holds, verify.monotonicity_instance(family, N, i, pi, B)


def test_integer_verdicts_equal_the_public_helpers():
    seen = set()
    for name, make in FAMILIES.items():
        for kind, holds, (lhs, rhs) in _instances_up_to_five(make()):
            assert holds == (lhs == rhs), (name, kind, lhs, rhs)
            seen.add((kind, holds))
    # every instance kind is seen both holding and failing
    kinds = (*verify.GEN_ROUTES, "ci", "monotonicity")
    assert seen == {(kind, holds) for kind in kinds for holds in (True, False)}


def test_instances_run_in_the_reference_order():
    """Witnesses are the first failing instance, so the order is part of the
    report: blocks large first, then by least member."""
    N = prefix(5)
    gen = []
    for T in _nonempty_subsets_large_first(N):
        gen += [("block-probability", None, T), ("expected-accumulated-worth", None, T)]
    for i in partitions.members(N):
        gen += [("one-player-reduction", i, S)
                for S in _nonempty_subsets_large_first(N & ~(1 << i))]
    assert [instance[:3] for instance in verify._gen_instances(PSTAR, N)] == gen
    ci = [(pi, B) for pi in partitions.enumerate_partitions(N)
          for B in sorted(pi, key=lambda b: (-b.bit_count(), partitions.least_member(b)))]
    assert [instance[:2] for instance in verify._ci_instances(PSTAR, N)] == ci
    monotonicity = [(i, pi, B) for i in partitions.members(N)
                    for pi in partitions.enumerate_partitions(N & ~(1 << i)) for B in pi]
    assert [instance[:3] for instance in verify._monotonicity_instances(PSTAR, N)] == (
        monotonicity)


@pytest.mark.parametrize("name", FAMILIES)
def test_expected_worth_route_reads_the_lifted_dirac_games(name):
    family = FAMILIES[name]()
    for N in _player_sets(5, family.explicit_player_sets):
        ones, n = verify._all_ones_game(family, N), partitions.size(N)
        for T in _nonempty_subsets_large_first(N):
            dirac = tux_games.lift_tu_game(tu_games.dirac_game(N, T))
            t = T.bit_count()
            assert ones.worth(T) / (t * math.comb(n, t)) == (
                tux_games.expected_accumulated_worth(dirac, family))


# --- the cached views ---------------------------------------------------------


@pytest.mark.parametrize("name", FAMILIES)
def test_inclusion_masses_equal_the_fraction_sums(name):
    family = FAMILIES[name]()
    for N in partitions.subsets(prefix(5) | partitions.mask_from([2, 3, 5])):
        den, mass = family.inclusion(N)
        assert family.inclusion(N) is family.inclusion(N)
        assert den == family.integer_distribution(N)[0]
        for B in partitions.subsets(N):
            if B:
                expected = ref_coalition_inclusion_prob(family, N, B)
                assert Fraction(mass.get(B, 0), den) == expected
                assert family.coalition_inclusion_prob(N, B) == expected


@pytest.mark.parametrize("name", FAMILIES)
def test_validation_keeps_the_integer_view(name):
    family = FAMILIES[name]()
    for n in range(6):
        N = prefix(n)
        dist = family.distribution(N)
        view = over_common_denominator(dist[pi] for pi in partitions.enumerate_partitions(N))
        assert family._int_cache[N] == view
        assert family.integer_distribution(N) is family._int_cache[N]


def _message(validate, mask, dist):
    with pytest.raises(ValueError) as info:
        validate(mask, dist, "bad")
    return str(info.value)


def test_validation_messages_are_unchanged():
    N = prefix(3)
    pis = partitions.enumerate_partitions(N)
    uniform = {pi: Fraction(1, 5) for pi in pis}
    # negatives listed against enumeration order: the first in the table is named
    negatives = dict(reversed(list(uniform.items())))
    negatives[pis[1]] = Fraction(-1, 5)
    negatives[pis[3]] = Fraction(-1, 5)
    bad = [
        {pi: p for pi, p in uniform.items() if pi != pis[2]},
        {**uniform, blocks([[1], [2], [3], [4]]): ZERO},
        negatives,
        {**uniform, pis[0]: Fraction(2, 5)},
        {**uniform, pis[0]: 0},
    ]
    for dist in bad:
        assert _message(_validate_distribution, N, dist) == _message(
            ref_validate_distribution, N, dist)
    assert "negative probability to " + str(pis[3]) in _message(
        _validate_distribution, N, negatives)


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(2), Fraction(3, 7)])
def test_ewens_probabilities_equal_the_per_partition_formula(theta):
    family = ewens_family(theta)
    for n in range(9):
        N = prefix(n)
        expected = [ref_ewens_probability(theta, pi, n) for pi in partitions.enumerate_partitions(N)]
        den, nums = family.integer_distribution(N)
        assert den == math.lcm(*(p.denominator for p in expected))
        assert [Fraction(x, den) for x in nums] == expected
        assert list(family.distribution(N).values()) == expected


@pytest.mark.parametrize("check, reference", CHECKS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", ["ewens:1/2", "eps:4=1/24"])
def test_family_checks_build_fraction_tables_only_for_witnesses(
        monkeypatch, name, check, reference):
    """A check reads integer views alone, passing or failing: a witness
    builds Fractions for the entries it reports, never a whole table."""
    expected = reference(FAMILIES[name](), 5).to_json()
    refuse_fraction_tables(monkeypatch)
    assert check(FAMILIES[name](), 5).to_json() == expected
