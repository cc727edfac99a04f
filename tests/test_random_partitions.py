import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfgames import formats, partitions
from pfgames.random_partitions import (
    PSTAR,
    EpsilonProfile,
    RandomPartitionFamily,
    _pstar_rule,
    _validate_distribution,
    ewens_family,
    family_from_distributions,
    perturbed_family,
)

from .corpus import prefix


def blocks(*ids_lists):
    return formats.partition_from_lists(ids_lists)


N3 = prefix(3)
N4 = prefix(4)


def test_pstar_three_players_merged():
    assert PSTAR.prob(N3, blocks([1, 2, 3])) == Fraction(1, 3)


def test_pstar_three_players_atomistic():
    assert PSTAR.prob(N3, blocks([1], [2], [3])) == Fraction(1, 6)


def test_pstar_pair():
    assert PSTAR.prob([1, 2], blocks([1, 2])) == Fraction(1, 2)


def test_pstar_single_player():
    assert PSTAR.prob([1], blocks([1])) == 1


def test_pstar_two_pairs():
    assert PSTAR.prob(N4, blocks([1, 2], [3, 4])) == Fraction(1, 24)


def test_prob_rejects_non_partition():
    with pytest.raises(ValueError):
        PSTAR.prob(N3, blocks([1, 2]))


@pytest.mark.parametrize("n", range(6))
def test_pstar_distribution_sums_to_one(n):
    dist = PSTAR.distribution(prefix(n))
    assert sum(dist.values()) == 1
    assert all(p > 0 for p in dist.values())


def test_ewens_rate_one_is_pstar():
    one = ewens_family(1)
    for n in range(6):
        assert one.distribution(prefix(n)) == PSTAR.distribution(prefix(n))


def test_ewens_half_merges_pair_more_often():
    assert ewens_family(Fraction(1, 2)).prob([1, 2], blocks([1, 2])) == Fraction(2, 3)


@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ewens_same_block_probability(theta, n):
    """Two fixed players share a block with probability 1/(1+theta)."""
    family = ewens_family(theta)
    together = sum(
        p
        for pi, p in family.distribution(prefix(n)).items()
        if partitions.block_of(pi, 1) == partitions.block_of(pi, 2)
    )
    assert together == Fraction(1, 1 + theta)


def test_ewens_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        ewens_family(0)
    with pytest.raises(ValueError):
        ewens_family(Fraction(-1, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_crp_one_player_recurrence(n):
    """Adding a player as a singleton scales by 1/n, into a block by b/n."""
    N = prefix(n)
    i = n
    rest = N & ~partitions.singleton(i)
    for pi in partitions.enumerate_partitions(rest):
        base = PSTAR.prob(rest, pi)
        assert PSTAR.prob(N, partitions.insert_player(pi, i, 0)) == base / n
        for B in pi:
            grown = partitions.insert_player(pi, i, B)
            assert PSTAR.prob(N, grown) == Fraction(B.bit_count(), n) * base


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pstar_insertion_identity(n):
    """Merging i into a coalition T relates to i placed anywhere outside:
    p(T+i joined) = t/(n-t) * sum over placements of i outside T."""
    N = prefix(n)
    dist = PSTAR.distribution(N)
    for i in partitions.members(N):
        rest = N & ~partitions.singleton(i)
        for T, tau in partitions.enumerate_embedded(rest):
            if T == 0 or T == rest:
                continue
            t = T.bit_count()
            lhs = dist[partitions.with_block(tau, T | partitions.singleton(i))]
            rhs = sum(
                dist[partitions.with_block(partitions.insert_player(tau, i, B), T)]
                for B in tau + (0,)
            )
            assert lhs == Fraction(t, n - t) * rhs
        # T = rest: the only placement of i outside is the singleton
        lhs = dist[partitions.with_block((), rest | partitions.singleton(i))]
        rhs = dist[partitions.with_block((rest,), partitions.singleton(i))]
        assert lhs == Fraction(n - 1, 1) * rhs


@pytest.mark.parametrize(
    "family",
    [PSTAR, ewens_family(Fraction(1, 2)), ewens_family(2), perturbed_family({4: Fraction(1, 8)})],
    ids=["pstar", "ewens-half", "ewens-two", "eps-eighth"],
)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_builtin_families_are_exchangeable(family, n):
    dist = family.distribution(prefix(n))
    by_type = {}
    for pi, p in dist.items():
        by_type.setdefault(tuple(sorted(map(partitions.size, pi))), set()).add(p)
    assert all(len(values) == 1 for values in by_type.values())


def test_perturbed_one_pair_hits_zero_at_upper_bound():
    family = perturbed_family({4: Fraction(1, 8)})
    assert family.prob(N4, blocks([1, 2], [3], [4])) == 0


def test_perturbed_atomistic_at_upper_bound():
    family = perturbed_family({4: Fraction(1, 8)})
    assert family.prob(N4, blocks([1], [2], [3], [4])) == Fraction(1, 6)


def test_perturbed_zero_profile_is_pstar():
    family = perturbed_family({})
    for n in range(6):
        assert family.distribution(prefix(n)) == PSTAR.distribution(prefix(n))


@pytest.mark.parametrize("c", [Fraction(-1, 24), Fraction(1, 48), Fraction(1, 8)])
def test_perturbed_matches_four_player_case_analysis(c):
    """On four players the family adds c/3 on two-pair partitions, subtracts
    c/3 on one-pair partitions, and adds c on the atomistic one."""
    family = perturbed_family({4: c})
    for pi, p in family.distribution(N4).items():
        sizes = tuple(sorted(map(partitions.size, pi)))
        base = PSTAR.prob(N4, pi)
        if sizes == (2, 2):
            assert p == base + c / 3
        elif sizes == (1, 1, 2):
            assert p == base - c / 3
        elif sizes == (1, 1, 1, 1):
            assert p == base + c
        else:
            assert p == base


@pytest.mark.parametrize("n", [4, 5, 6])
def test_perturbed_distribution_valid_on_larger_sets(n):
    family = perturbed_family({4: Fraction(1, 24), 5: Fraction(1, 240), 6: Fraction(-1, 720)})
    dist = family.distribution(prefix(n))
    assert sum(dist.values()) == 1
    assert all(p >= 0 for p in dist.values())


def test_epsilon_profile_range_enforced():
    EpsilonProfile({4: Fraction(-1, 24)})
    EpsilonProfile({4: Fraction(1, 8)})
    with pytest.raises(ValueError):
        EpsilonProfile({4: Fraction(1, 7)})
    with pytest.raises(ValueError):
        EpsilonProfile({4: Fraction(-1, 23)})
    with pytest.raises(ValueError):
        EpsilonProfile({3: Fraction(1, 100)})


def test_epsilon_profile_is_immutable_and_copies_as_a_value():
    profile = EpsilonProfile({4: "1/24"})
    with pytest.raises(AttributeError, match="cannot assign to field 'values'"):
        profile.values = {}
    with pytest.raises(AttributeError, match="cannot delete field 'values'"):
        del profile.values
    for twin in (copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
        assert twin == profile and twin.values == {4: Fraction(1, 24)}
    assert repr(profile) == "EpsilonProfile(values={4: Fraction(1, 24)})"


@pytest.mark.parametrize("k", [33, 10**6, 10**20])
def test_epsilon_profile_refuses_k_past_the_largest_player_set(k, monkeypatch):
    def refuse(k):
        raise AssertionError("k! must not be computed for a refused k")

    monkeypatch.setattr(math, "factorial", refuse)
    with pytest.raises(ValueError, match=f"4 to 32 players, not {k}"):
        EpsilonProfile({k: 0})


def test_inclusion_probability_pair_of_four():
    assert PSTAR.coalition_inclusion_prob(N4, [1, 2]) == Fraction(1, 12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inclusion_probability_grand_and_almost_grand(n):
    N = prefix(n)
    assert PSTAR.coalition_inclusion_prob(N, N) == Fraction(1, n)
    if n > 1:
        i = partitions.singleton(1)
        assert PSTAR.coalition_inclusion_prob(N, N & ~i) == Fraction(1, n * (n - 1))


def test_inclusion_probability_rejects_empty_coalition():
    with pytest.raises(ValueError):
        PSTAR.coalition_inclusion_prob(N3, 0)
    with pytest.raises(ValueError):
        PSTAR.coalition_inclusion_prob(N3, [4])


def test_prob_rejects_uncanonical_block_order():
    merged = partitions.mask_from([2, 3])
    lone = partitions.mask_from([1])
    assert PSTAR.prob(N3, (lone, merged)) == Fraction(1, 6)
    with pytest.raises(ValueError):
        PSTAR.prob(N3, (merged, lone))


def test_table_family_overrides_one_set_and_falls_back():
    override = {
        pi: (Fraction(1, 2) if len(pi) == 1 else Fraction(1, 2))
        for pi in partitions.enumerate_partitions([1, 2])
    }
    family = family_from_distributions("table-test", {partitions.mask_from([1, 2]): override})
    assert family.prob([1, 2], blocks([1], [2])) == Fraction(1, 2)
    assert family.explicit_player_sets == frozenset({partitions.mask_from([1, 2])})
    # other player sets come from pstar
    assert family.distribution(N3) == PSTAR.distribution(N3)


def test_table_family_is_validated_at_load_time():
    bad = {pi: Fraction(1, 3) for pi in partitions.enumerate_partitions([1, 2])}
    with pytest.raises(ValueError, match="sums"):
        family_from_distributions("bad-sum", {partitions.mask_from([1, 2]): bad})
    missing = {blocks([1, 2]): Fraction(1)}
    with pytest.raises(ValueError, match="every partition"):
        family_from_distributions("missing", {partitions.mask_from([1, 2]): missing})


def test_distribution_is_built_from_the_integer_view_on_each_call():
    family = ewens_family(3)
    first = family.distribution(N3)
    den, nums = family.integer_distribution(N3)
    assert list(first) == list(partitions.enumerate_partitions(N3))
    assert list(first.values()) == [Fraction(x, den) for x in nums]
    assert family.distribution(N3) == first and family.distribution(N3) is not first


@given(
    st.lists(st.integers(min_value=1, max_value=50), min_size=5, max_size=5),
    st.integers(min_value=0, max_value=4),
)
def test_table_families_accept_any_exact_distribution(weights, moved):
    """Any nonnegative exact weights, normalized, make a valid table."""
    N = prefix(3)
    pis = partitions.enumerate_partitions(N)
    weights = weights + [1] * (len(pis) - len(weights))
    weights[moved] += 1
    total = sum(weights)
    table = {pi: Fraction(wt, total) for pi, wt in zip(pis, weights)}
    family = family_from_distributions("fuzz", {N: table})
    dist = family.distribution(N)
    assert sum(dist.values()) == 1
    assert dist == table


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=9))
def test_ewens_sums_to_one(n, theta_num):
    theta = Fraction(theta_num, 3)
    family = ewens_family(theta)
    dist = family.distribution(prefix(n))
    assert sum(dist.values()) == 1
    assert all(p > 0 for p in dist.values())


# --- the integer laws against their per-partition Fraction formulas ----------
# (the Ewens law is checked the same way in test_inclusion_kernels.py)


def pstar_formula(pi, n):
    return Fraction(math.prod(math.factorial(b.bit_count() - 1) for b in pi), math.factorial(n))


def eps_formula(eps_n, pi, n):
    """The closed form of ``perturbed_family``'s docstring."""
    sizes = tuple(sorted(map(partitions.size, pi)))
    shift = 0
    if sizes == (1,) * n:
        shift = eps_n
    elif sizes == (1,) * (n - 2) + (2,):
        shift = -2 * eps_n / math.comb(n, 2)
    elif sizes == (1,) * (n - 4) + (2, 2):
        shift = 2 * eps_n / (math.comb(n - 2, 2) * math.comb(n, 2))
    return pstar_formula(pi, n) + shift


def assert_law(family, n, formula):
    """The family's integer view and Fraction table on 1..n equal the formula."""
    N = prefix(n)
    expected = {pi: formula(pi, n) for pi in partitions.enumerate_partitions(N)}
    den, nums = family.integer_distribution(N)
    assert den == math.lcm(*(p.denominator for p in expected.values()))
    assert [Fraction(x, den) for x in nums] == list(expected.values())
    assert family.distribution(N) == expected


EPS_PROFILE = {4: Fraction(1, 24), 5: Fraction(1, 240), 6: Fraction(-1, 720),
               7: Fraction(1, 5040), 8: Fraction(-1, 40320)}


@pytest.mark.parametrize("n", range(9))
def test_pstar_law_equals_its_formula(n):
    assert_law(PSTAR, n, pstar_formula)


@pytest.mark.parametrize("n", range(9))
def test_pstar_keeps_its_rule_view_unreduced(n):
    """The all-singletons numerator is 1, so the validated pstar law is the
    rule's own view, which the Ewens and eps rules read from ``PSTAR``."""
    assert PSTAR.integer_distribution(prefix(n)) == _pstar_rule(prefix(n))


def test_eps_law_equals_its_docstring_closed_form():
    family = perturbed_family(EPS_PROFILE)
    for n in range(4, 9):
        assert_law(family, n, lambda pi, n: eps_formula(EPS_PROFILE[n], pi, n))


def _message(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("bad", ["short", "negative", "sum"])
def test_a_custom_rule_is_validated_like_a_table(bad):
    """A rule's integer view is refused with the table validator's messages."""
    N = prefix(3)
    pis = partitions.enumerate_partitions(N)
    nums = {"short": [1, 1, 1, 1], "negative": [3, -1, 1, 1, 1], "sum": [2, 1, 1, 1, 1]}[bad]
    table = dict(zip(pis, (Fraction(x, 5) for x in nums)))
    family = RandomPartitionFamily("bad", lambda mask: (5, tuple(nums)))
    expected = _message(lambda: _validate_distribution(N, table, "bad"))
    assert _message(lambda: family.integer_distribution(N)) == expected
    assert _message(lambda: family.distribution(N)) == expected
    assert not family._int_cache


def test_a_custom_rule_view_is_reduced_to_the_lcm_form():
    family = RandomPartitionFamily("scaled", lambda mask: (12, (4, 2, 2, 2, 2)))
    assert family.integer_distribution(prefix(3)) == (6, (2, 1, 1, 1, 1))
    assert family.distribution(prefix(3))[blocks([1, 2, 3])] == Fraction(1, 3)
    with pytest.raises(ValueError, match="denominator 0"):
        RandomPartitionFamily("zero", lambda mask: (0, (0,))).integer_distribution(0)
