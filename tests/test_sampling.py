import math
import random
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from pfgames import partitions, sampling, tu_games, tux_games
from pfgames.random_partitions import PSTAR
from pfgames.sampling import GENERATOR_ID, SampleEstimate, estimate_payoff, sample_crp
from pfgames.tux_games import lift_tu_game, mpw_value, null_game, productive_pair_game
from pfgames.verify import null_player_witness

from .corpus import prefix, random_tu_game, random_tux_game


def test_single_player_draws():
    one = partitions.mask_from([1])
    draws = sample_crp([1], seed=1, count=50)
    assert draws == [(one,)] * 50


def test_draws_are_valid_partitions():
    mask = prefix(4)
    for pi in sample_crp(mask, seed=2, count=500):
        assert partitions.is_partition_of(pi, mask)


def test_sample_crp_is_deterministic():
    a = sample_crp(prefix(4), seed=33, count=2000)
    b = sample_crp(prefix(4), seed=33, count=2000)
    assert a == b
    assert sample_crp(prefix(4), seed=34, count=2000) != a


def test_pair_merge_frequency():
    count = 10_000
    draws = sample_crp(prefix(2), seed=7, count=count)
    merged = sum(1 for pi in draws if len(pi) == 1)
    p = 0.5
    se = math.sqrt(p * (1 - p) / count)
    assert abs(merged / count - p) <= 4 * se


def test_grand_coalition_frequency_four_players():
    count = 20_000
    draws = sample_crp(prefix(4), seed=11, count=count)
    grand = sum(1 for pi in draws if len(pi) == 1)
    p = 0.25
    se = math.sqrt(p * (1 - p) / count)
    assert abs(grand / count - p) <= 4 * se


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_crp_marginals_chi_square(n):
    """Empirical partition counts match the exact law at significance 0.001."""
    count = 100_000
    draws = sample_crp(prefix(n), seed=n, count=count)
    tally = Counter(draws)
    dist = PSTAR.distribution(prefix(n))
    observed = [tally.get(pi, 0) for pi in dist]
    expected = [float(p) * count for p in dist.values()]
    result = stats.chisquare(observed, expected)
    assert result.pvalue >= 0.001


def test_estimates_are_reproducible():
    w = productive_pair_game()
    a = estimate_payoff(w, 2, "mpw", n_samples=3000, seed=5)
    b = estimate_payoff(w, 2, "mpw", n_samples=3000, seed=5)
    assert a == b
    assert a.generator == GENERATOR_ID
    assert isinstance(a, SampleEstimate)


def test_shapley_estimate_on_two_player_dirac():
    v = tu_games.dirac_game([1, 2], [1])
    est = estimate_payoff(v, 1, "shapley", n_samples=4000, seed=3)
    # every seating gives the same marginal here, so the estimate is exact
    assert est.mean == 0.5
    assert est.std_error == 0.0


def test_mpw_estimate_on_null_game_is_exactly_zero():
    est = estimate_payoff(null_game(prefix(4)), 1, "mpw", n_samples=2000, seed=9)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_mpw_estimate_showcase_null_player_near_zero():
    est = estimate_payoff(productive_pair_game(), 1, "mpw", n_samples=20_000, seed=17)
    assert est.mean == 0.0
    assert est.std_error == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mpw_estimate_on_null_player_witnesses_is_exactly_zero(n):
    """Both outside partitions are cut from one seating, so a null player's
    every draw is 0, not just its mean in expectation."""
    N = prefix(n)
    for i in partitions.members(N):
        for pi in partitions.enumerate_partitions(N & ~(1 << i)):
            for B in pi:
                w = null_player_witness(N, i, pi, B)
                est = estimate_payoff(w, i, "mpw", n_samples=300, seed=n + i)
                assert (est.mean, est.std_error) == (0.0, 0.0)


def test_estimates_track_exact_values():
    """Seeded runs stay within four standard errors of the exact payoffs."""
    rng = random.Random(2024)
    runs = 0
    hits = 0
    for k in range(25):
        v = random_tu_game(prefix(rng.randint(2, 4)), rng)
        i = rng.choice(v.member_ids())
        exact = float(tu_games.shapley_value(v)[i])
        est = estimate_payoff(v, i, "shapley", n_samples=4000, seed=1000 + k)
        runs += 1
        hits += abs(est.mean - exact) <= 4 * est.std_error + 1e-9
    for k in range(25):
        w = random_tux_game(prefix(3), rng)
        i = rng.choice(w.member_ids())
        exact = float(mpw_value(w)[i])
        est = estimate_payoff(w, i, "mpw", n_samples=4000, seed=2000 + k)
        runs += 1
        hits += abs(est.mean - exact) <= 4 * est.std_error + 1e-9
    assert hits >= runs - 1


def test_mpw_target_accepts_tu_games():
    v = tu_games.dirac_game([1, 2], [1])
    est = estimate_payoff(v, 1, "mpw", n_samples=3000, seed=21)
    exact = float(tu_games.shapley_value(v)[1])
    assert abs(est.mean - exact) <= 4 * est.std_error + 1e-9


def test_shapley_target_accepts_externality_free_tux():
    v = tu_games.unanimity_game([1, 2, 3], [1, 2])
    est = estimate_payoff(lift_tu_game(v), 1, "shapley", n_samples=3000, seed=23)
    assert abs(est.mean - 0.5) <= 4 * est.std_error + 1e-9


def test_shapley_target_rejects_externalities():
    with pytest.raises(ValueError):
        estimate_payoff(productive_pair_game(), 1, "shapley", n_samples=10, seed=1)


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        estimate_payoff(null_game(prefix(2)), 1, "banzhaf", n_samples=10, seed=1)


@pytest.mark.parametrize("target", ["shapley", "mpw"])
def test_one_draw_is_refused_since_it_has_no_standard_error(target):
    with pytest.raises(ValueError, match="n_samples must be at least 2, not 1"):
        estimate_payoff(null_game(prefix(2)), 1, target, n_samples=1, seed=1)


def test_two_draws_give_a_standard_error_exact_zero_only_for_a_null_player():
    null = estimate_payoff(productive_pair_game(), 1, "mpw", n_samples=2, seed=7)
    assert (null.mean, null.std_error, null.n_samples) == (0.0, 0.0, 2)
    spread = [estimate_payoff(productive_pair_game(), 2, "mpw", n_samples=2, seed=s)
              for s in range(20)]
    assert any(est.std_error > 0 for est in spread)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        estimate_payoff(null_game(prefix(2)), 9, "mpw", n_samples=10, seed=1)
    with pytest.raises(ValueError):
        estimate_payoff(null_game(prefix(2)), 1, "mpw", n_samples=0, seed=1)
    with pytest.raises(ValueError):
        sample_crp(prefix(2), seed=1, count=0)


@pytest.mark.parametrize("player, named", [(-2, "player id -2 outside"),
                                           (40, "player id 40 outside"),
                                           (3, "player 3 is not in the game")])
@pytest.mark.parametrize("target", ["shapley", "mpw"])
def test_a_player_outside_the_game_is_named(target, player, named):
    with pytest.raises(ValueError, match=named):
        estimate_payoff(null_game(prefix(2)), player, target, n_samples=10, seed=1)


def seat_reference(choice, ids):
    """The seating rule one arrival at a time: arrival t founds a table when
    choice[t] < 0, else joins the table of earlier arrival choice[t]."""
    tables, table_of = [], []
    for t, p in enumerate(ids):
        j = int(choice[t])
        if j < 0:
            table_of.append(len(tables))
            tables.append(1 << p)
        else:
            table_of.append(table_of[j])
            tables[table_of[j]] |= 1 << p
    return tuple(tables)


def digits(u, radices):
    """The mixed-radix digits of u, least significant first."""
    out = []
    for r in radices:
        u, d = divmod(u, r)
        out.append(d)
    return out


def choices(rng, m, k):
    """The (m, k) arrival choices of one seating: the first c are the digits
    of one draw u < c!, arrival t's in base t + 1, less one; the rest are
    drawn column by column."""
    c = min(k, sampling._TABLED)
    u = rng.integers(0, math.factorial(c), size=m).tolist()
    j = np.empty((m, k), dtype=np.int64)
    j[:, :c] = [[d - 1 for d in digits(x, range(1, c + 1))] for x in u]
    for t in range(c, k):
        j[:, t] = rng.integers(-1, t, size=m)
    return j


def restricted(pi, mask):
    return partitions.canonical_partition(B & mask for B in pi if B & mask)


@pytest.mark.parametrize("tabled", [3, sampling._TABLED])
def test_sample_crp_matches_the_one_draw_reference(monkeypatch, tabled):
    monkeypatch.setattr(sampling, "_TABLED", tabled)
    monkeypatch.setattr(sampling, "_SHARD", 7)
    ids = (0, 3, 4, 9, 31)
    rng = np.random.Generator(np.random.Philox(5))
    j = np.concatenate([choices(rng, 7, 5), choices(rng, 7, 5), choices(rng, 2, 5)])
    assert sample_crp(ids, seed=5, count=16) == [seat_reference(row, ids) for row in j]


def predecessors(rng, m, ids, me):
    """The (m,) predecessor masks of ids[me]: the other players, in order,
    join a queue holding it at a uniform one of the k + 1 places, ahead of
    it when the place is at most the number already ahead. The k-th draws
    d from 0..k and takes place k - d: the first c draws are the digits of
    one draw u < (c + 1)!, the k-th in base k + 1."""
    S, ahead = [0] * m, [0] * m
    others = [p for q, p in enumerate(ids) if q != me]
    c = min(len(others), sampling._TABLED - 1)
    u = rng.integers(0, math.factorial(c + 1), size=m).tolist()
    drawn = [digits(x, range(2, c + 2)) for x in u]
    for k, p in enumerate(others, 1):
        if k <= c:
            place = [k - row[k - 1] for row in drawn]
        else:
            place = [k - d for d in rng.integers(0, k + 1, size=m).tolist()]
        for d in range(m):
            if place[d] <= ahead[d]:
                S[d] |= 1 << p
                ahead[d] += 1
    return S


@pytest.mark.parametrize("tabled", [3, sampling._TABLED])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_mpw_samples_match_the_one_draw_reference(monkeypatch, n, tabled):
    monkeypatch.setattr(sampling, "_TABLED", tabled)
    w = random_tux_game(prefix(n), random.Random(n))
    ids = w.member_ids()
    for me, i in enumerate(ids):
        m = 300
        got = sampling._mpw_samples(w, i)(np.random.Generator(np.random.Philox(n)), m)
        rng = np.random.Generator(np.random.Philox(n))
        S = predecessors(rng, m, ids, me)
        j = choices(rng, m, n)
        for d in range(m):
            # one seating, cut to the players outside S + i and outside S
            seating = seat_reference(j[d], ids)
            with_i = restricted(seating, w.players & ~(S[d] | 1 << i))
            without_i = restricted(seating, w.players & ~S[d])
            expected = float(w.worth(S[d] | 1 << i, with_i)) - float(w.worth(S[d], without_i))
            assert got[d] == expected


@pytest.mark.parametrize("tabled", [3, sampling._TABLED])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 10])
def test_shapley_samples_match_the_one_draw_reference(monkeypatch, n, tabled):
    monkeypatch.setattr(sampling, "_TABLED", tabled)
    v = random_tu_game(prefix(n), random.Random(n))
    ids = v.member_ids()
    for i in ids:
        m = 300
        got = sampling._crp_shapley_samples(v, i)(np.random.Generator(np.random.Philox(n)), m)
        j = choices(np.random.Generator(np.random.Philox(n)), m, n - 1)
        others = tuple(p for p in ids if p != i)
        for d in range(m):
            expected = float(v.worth(1 << i)) / n + sum(
                B.bit_count() / n * (float(v.worth(B | 1 << i)) - float(v.worth(B)))
                for B in seat_reference(j[d], others)
            )
            assert got[d] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_estimates_track_exact_values_on_larger_games(n):
    """Every player of a seeded game at n = 6..8 lands within 4 standard errors."""
    rng = random.Random(600 + n)
    v = random_tu_game(prefix(n), rng)
    w = random_tux_game(prefix(n), rng)
    shapley, mpw = tu_games.shapley_value(v), mpw_value(w)
    for i in v.member_ids():
        est = estimate_payoff(v, i, "shapley", n_samples=20_000, seed=3000 + 10 * n + i)
        assert abs(est.mean - float(shapley[i])) <= 4 * est.std_error + 1e-9
        est = estimate_payoff(w, i, "mpw", n_samples=20_000, seed=4000 + 10 * n + i)
        assert abs(est.mean - float(mpw[i])) <= 4 * est.std_error + 1e-9


def relabelled(mask, ids_from, ids_to):
    return sum(1 << q for p, q in zip(ids_from, ids_to) if mask >> p & 1)


@pytest.mark.parametrize("target", ["shapley", "mpw"])
def test_estimates_ignore_player_labels(target):
    """Same game under ids {1, 2, 3, 4} and {0, 5, 17, 31}: identical estimates."""
    small, spread = (1, 2, 3, 4), (0, 5, 17, 31)
    if target == "shapley":
        v = random_tu_game(prefix(4), random.Random(44))
        moved = tu_games.TuGame(
            partitions.mask_from(spread),
            {relabelled(S, small, spread): v.worth(S) for S in partitions.subsets(v.players)},
        )
    else:
        v = random_tux_game(prefix(4), random.Random(44))
        moved = tux_games.TuxGame(
            partitions.mask_from(spread),
            {
                (relabelled(S, small, spread),
                 partitions.canonical_partition(relabelled(B, small, spread) for B in pi)): x
                for (S, pi), x in v.cells()
            },
        )
    for i, j in zip(small, spread):
        assert estimate_payoff(v, i, target, 5000, seed=8) == estimate_payoff(
            moved, j, target, 5000, seed=8
        )


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("seed", [3, 19])
def test_mpw_estimate_on_a_tu_game_reads_it_without_the_lift(monkeypatch, n, seed):
    v = random_tu_game(prefix(n), random.Random(60 + n))
    lifted = lift_tu_game(v)

    def refuse(game):
        raise AssertionError("the mpw target must not lift a TU game")

    monkeypatch.setattr(tux_games, "lift_tu_game", refuse)
    for i in partitions.members(v.players):
        assert estimate_payoff(v, i, "mpw", 2000, seed) == estimate_payoff(
            lifted, i, "mpw", 2000, seed
        )


def test_shards_are_seeded_lazily_from_spawned_children(monkeypatch):
    """Three full shards and a remainder pool the per-shard results of the
    children SeedSequence(seed).spawn would give."""
    monkeypatch.setattr(sampling, "_SHARD", 50)
    w = random_tux_game(prefix(4), random.Random(50))
    est = estimate_payoff(w, 2, "mpw", n_samples=170, seed=12)
    draw = sampling._mpw_samples(w, 2)
    children = np.random.SeedSequence(12).spawn(4)
    stats = [
        sampling._moments(draw(np.random.Generator(np.random.Philox(child)), m))
        for child, m in zip(children, [50, 50, 50, 20])
    ]
    count, mean, m2 = sampling._pool(stats)
    assert est == SampleEstimate(mean, math.sqrt(m2 / (count - 1) / count), 170, 12)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_bad_seed_rejected_naming_the_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        estimate_payoff(null_game(prefix(2)), 1, "mpw", n_samples=10, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        sample_crp(prefix(2), seed=seed, count=10)


def test_mpw_estimate_on_a_tu_game_past_the_universe_bound():
    """A TU game's mpw draw reads v at the local mask of the predecessors, so
    it needs no embedded coalitions; local masks of 17 players fit the draw."""
    N = partitions.mask_from(range(17))
    v = tu_games.unanimity_game(N, [0, 16])
    for i in (0, 16):
        est = estimate_payoff(v, i, "mpw", n_samples=4000, seed=70 + i)
        assert abs(est.mean - 0.5) <= 4 * est.std_error
    assert estimate_payoff(v, 8, "mpw", n_samples=500, seed=1).mean == 0


@pytest.mark.parametrize(
    "players",
    [prefix(n) for n in range(9)] + [partitions.mask_from((0, 3, 4, 9, 17))],
    ids=lambda mask: str(partitions.members(mask)),
)
def test_cell_lookup_finds_every_embedded_coalition(players):
    """The digits the mpw draw reads lead every cell to its own position.

    Each position p reads ``lt`` at its block (0 in S) as a local mask, as
    the draw does; the lookup is built from whole blocks instead. The tables
    hold at most four entries per cell."""
    lt, split, low, at = sampling._cell_lookup(players)
    ids = partitions.members(players)
    n = len(ids)
    cells = partitions.enumerate_embedded(players)
    assert lt.size + low.size + at.size <= 4 * partitions.embedded_count(n)
    own = np.zeros((n, len(cells)), dtype=np.intp)
    for c, (_, pi) in enumerate(cells):
        for B in pi:
            local = [q for q, p in enumerate(ids) if B >> p & 1]
            own[local, c] = sum(1 << q for q in local)
    code = lt[np.arange(n)[:, None], own]
    found = at[low[code[:split].sum(axis=0)] + code[split:].sum(axis=0)]
    assert found.tolist() == list(range(len(cells)))
