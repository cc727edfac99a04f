"""Witness-producing checks of the axioms behind the random-partition
solutions, exercised exhaustively on small player sets.

Each check returns a Report: what was checked, how many instances, and on
failure a structured witness whose numbers can be recomputed with the public
operations of the corresponding module. Exact arithmetic throughout, so a
check passes only when the identity holds with zero tolerance.

Player sets are the prefixes {1}, {1,2}, ..., up to the requested size,
with any a table-backed family (or an ``rp:`` operator on one) names; the
null-player check runs on the prefixes alone. No other player set is
checked, so a rule that reads player ids is judged on the prefixes only;
of the built-in families and operators only ``biased`` reads them.

The family checks (gen, ci, pos, monotonicity) decide each instance on the
integers a family caches per player set: its distribution numerators and
its block inclusion masses (``RandomPartitionFamily.inclusion``), with
partitions found through ``partitions.partition_position``. Fractions are
built only for a witness, by the public helper that replays it
(``gen_block_probability``, ``reduction_identity``, ``ci_instance``,
``monotonicity_instance``).

The restriction check judges the integer removal matrices each operator
assembles from its cached rows and applies (``random_partitions.LinearMap``):
rows against the rule run by ``restricted_worth`` on concrete worths (LIN)
and by the cells they read (RES), and two composed in either order (PI); PNG
runs the rule there on the null game. RES and the null-player witness games
read ``partitions.placement_positions``, the table the class table of
``tux_games.is_null_player`` comes from: a row may read only its placement
positions, and a witness game is 1 at the positions of one row. The empty
coalition's rows are empty, and the rule gives it 0, so every check passes it.

The null-player check decides a solution that carries its exact linear map
(a ``LinearMap`` per player set, attached by ``cli.parse_solution``: the
very table the solution applies) on one integer row per player,
``tu_games.shapley_rows``: only a witness game that the row pays, summed
over its placement row, runs through the solution. Other callables run on
each game. Both it and the restriction check refuse, before they start, a
range past a fixed budget.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping

from . import formats, partitions, tu_games, tux_games
from .partitions import Coalition, Partition
from .random_partitions import ZERO, LinearMap, RandomPartitionFamily
from .tux_games import TuxGame


@dataclasses.dataclass(frozen=True)
class Report:
    """Outcome of one check: pass/fail, instance count, optional witness."""

    subject: str
    passed: bool
    checked: int
    witness: dict | None = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# Budgets, checked before a check starts; past them it is refused (exit 2).
# Times are CLI wall times on 2 cores, Python 3.11. --nmax 8 runs 31,965
# null-player witness games: a built-in solution reads them in about 0.4 s
# (mpw) to 0.5-0.7 s (r-shapley:rstar, rp:pstar, whose auxiliary maps, built
# from the removal rows their chains read, take 0.15-0.2 s of it), a callable
# without a map runs each (mpw about 14 s); --nmax 9 would run 185,028.
MAX_NULL_PLAYER_WITNESSES = 50_000
# --nmax 8 checks 54,719 restriction instances (rstar 3.9-4.4 s, rp:pstar
# 5.2-6.4 s); --nmax 9 would check 325,259.
MAX_RESTRICTION_INSTANCES = 100_000


def _player_sets(n_max: int, explicit=frozenset()) -> list[Coalition]:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > partitions.universe_bound():
        raise partitions.CapacityError(
            f"n_max {n_max} exceeds the universe bound {partitions.universe_bound()}"
        )
    sets = {partitions.mask_from(range(1, k + 1)) for k in range(1, n_max + 1)}
    sets.update(N for N in explicit if 0 < partitions.size(N) <= n_max)
    return sorted(sets, key=lambda N: (partitions.size(N), N))


def _nonempty_subsets_large_first(mask: Coalition) -> list[Coalition]:
    # the grand coalition is the most informative probe, so it goes first;
    # the empty set sorts last and is dropped
    return sorted(partitions.subsets(mask), key=lambda S: (-S.bit_count(), S))[:-1]


def _witness(check: str, **fields) -> dict:
    """Witness dict for JSON: coalitions, partitions and rationals are
    formatted by field name, other fields pass through."""
    witness = {"check": check}
    for name, value in fields.items():
        if name in ("players", "block") or name.endswith("coalition"):
            value = formats.coalition_to_list(value)
        elif name.endswith(("partition", "outside")):
            value = formats.partition_to_lists(value)
        elif name in ("lhs", "rhs", "prob", "payoff"):
            value = formats.format_rational(value)
        witness[name] = value
    return witness


# --- potential generation -------------------------------------------------


def gen_block_probability(
    family: RandomPartitionFamily, players, coalition
) -> tuple[Fraction, Fraction]:
    """(observed, required) probability that the coalition forms a block."""
    N = partitions.as_mask(players)
    T = partitions.as_mask(coalition)
    n, t = partitions.size(N), partitions.size(T)
    lhs = family.coalition_inclusion_prob(N, T)
    rhs = Fraction(
        math.factorial(n - t) * math.factorial(t - 1), math.factorial(n)
    )
    return lhs, rhs


def reduction_identity(
    family: RandomPartitionFamily, players, i: int, coalition
) -> tuple[Fraction, Fraction]:
    """Both sides of the one-player reduction identity for block S.

    Left: probability that S is a block among the players without i. Right:
    n/(n-s) times the probability that S is a block of the full set. Placing
    i bijects the partitions of N with block S onto the partitions of N
    without S and i, so the right side splits by where i sits.
    """
    N = partitions.as_mask(players)
    S = partitions.as_mask(coalition)
    bit = partitions.singleton(i)
    if not N & bit:
        raise ValueError(f"player {i} is not in the player set")
    n, s = partitions.size(N), partitions.size(S)
    lhs = family.coalition_inclusion_prob(N & ~bit, S)
    return lhs, Fraction(n, n - s) * family.coalition_inclusion_prob(N, S)


def _all_ones_game(family: RandomPartitionFamily, N: Coalition) -> tu_games.TuGame:
    """The p-Shapley game of the lifted TU game with worth 1 on every
    coalition. By linearity, the p-Shapley game of the lifted Dirac game of
    T is this game's worth at T on T alone, so the expected accumulated
    worth of that Dirac game, the block mass at T, is the worth at T over
    the scale s C(n, s) of T's row of ``block_runs``."""
    ones = tu_games.TuGame._from_numerators(N, 1, [0] + [1] * ((1 << partitions.size(N)) - 1))
    return tux_games.p_shapley_game(tux_games.lift_tu_game(ones), family)


GEN_ROUTES = ("block-probability", "expected-accumulated-worth", "one-player-reduction")


def _gen_instances(family: RandomPartitionFamily, N: Coalition):
    """(route, player, coalition, holds) for every GEN instance on N, in check
    order, each decided on integer masses."""
    block, expected, reduction = GEN_ROUTES
    n = partitions.size(N)
    den, mass = family.inclusion(N)
    ones, rows = _all_ones_game(family, N), family.block_runs(N).rows
    # by symmetry the potential of a Dirac game depends on (n, t) alone
    potentials = {}
    for T in _nonempty_subsets_large_first(N):
        t = partitions.size(T)
        required = math.factorial(n - t) * math.factorial(t - 1) * den
        yield block, None, T, mass.get(T, 0) * math.factorial(n) == required
        if t not in potentials:
            potentials[t] = tu_games.potential(tu_games.dirac_game(N, T))
        pot, k = potentials[t], partitions.subset_position(N, T)
        # ones(T) is the lifted Dirac game's expected worth times its row's scale
        yield expected, None, T, (ones.nums[k] * pot.denominator
                                  == pot.numerator * rows[k][2] * ones.den)
    for i in partitions.members(N):
        rest_den, rest_mass = family.inclusion(N & ~(1 << i))
        for S in _nonempty_subsets_large_first(N & ~(1 << i)):
            s = partitions.size(S)
            yield reduction, i, S, (rest_mass.get(S, 0) * (n - s) * den
                                    == n * mass.get(S, 0) * rest_den)


def _gen_witness(family: RandomPartitionFamily, route: str, N: Coalition, i, T) -> dict:
    """The witness of a failed GEN instance, both sides replayed in Fractions."""
    if route == "block-probability":
        lhs, rhs = gen_block_probability(family, N, T)
        return _witness("gen", route=route, players=N, coalition=T, lhs=lhs, rhs=rhs)
    if route == "expected-accumulated-worth":
        dirac = tu_games.dirac_game(N, T)
        lhs = tux_games.expected_accumulated_worth(tux_games.lift_tu_game(dirac), family)
        return _witness("gen", route=route, players=N, coalition=T, lhs=lhs,
                        rhs=tu_games.potential(dirac))
    lhs, rhs = reduction_identity(family, N, i, T)
    return _witness("gen", route=route, players=N, player=i, coalition=T, lhs=lhs, rhs=rhs)


def check_gen(family: RandomPartitionFamily, n_max: int) -> Report:
    """Does the family's expected accumulated worth equal the TU potential?

    Verifies the block-probability condition for every nonempty coalition
    of the prefixes {1, ..., k}, k <= n_max, and the sets the family names,
    and that the two equivalent routes (expected accumulated worth on the
    Dirac TU basis, one-player reduction identity) agree with it. The block and
    reduction routes read the family's inclusion masses; the expected-worth
    route reads the p-Shapley game of one lifted game per player set
    (``_all_ones_game``) against the potential of each Dirac game, scaled
    by s C(n, s) as read from the row of ``block_runs``.
    """
    checked = 0
    first: dict[str, dict] = {}
    for N in _player_sets(n_max, family.explicit_player_sets):
        for route, i, T, holds in _gen_instances(family, N):
            checked += 1
            if not holds and route not in first:
                first[route] = _gen_witness(family, route, N, i, T)
    witness = next((first[route] for route in GEN_ROUTES if route in first), None)
    if witness is not None and "block-probability" not in first:
        witness = dict(witness, note="routes disagree with block-probability")
    return Report(f"gen[{family.label}]", witness is None, checked, witness)


# --- conditional independence ---------------------------------------------


def ci_instance(
    family: RandomPartitionFamily, players, pi: Partition, block
) -> tuple[Fraction, Fraction]:
    """Both sides of the factorization over one block of a partition."""
    N = partitions.as_mask(players)
    B = partitions.as_mask(block)
    if B not in pi:
        raise ValueError("block is not part of the partition")
    lhs = family.prob(N, pi)
    remainder = tuple(C for C in pi if C != B)
    rhs = family.prob(N & ~B, remainder) * family.coalition_inclusion_prob(N, B)
    return lhs, rhs


def _ci_instances(family: RandomPartitionFamily, N: Coalition):
    """(partition, block, holds) for every CI instance on N, in check order:
    p_N(pi) against p_{N-B}(pi - B) times the inclusion mass of B, all as
    integer numerators."""
    _, nums = family.integer_distribution(N)
    _, mass = family.inclusion(N)
    for pi, p in zip(partitions.enumerate_partitions(N), nums):
        # large blocks first; the sort is stable, so ties keep pi's order
        for B in sorted(pi, key=int.bit_count, reverse=True):
            rest_den, rest_nums = family.integer_distribution(N & ~B)
            q = rest_nums[partitions.partition_position(tuple(C for C in pi if C != B))]
            yield pi, B, p * rest_den == q * mass.get(B, 0)


def check_ci(family: RandomPartitionFamily, n_max: int) -> Report:
    """Does the family factor over blocks (conditional independence)? On
    the prefixes {1, ..., k} for k <= n_max and the sets the family names."""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for pi, B, holds in _ci_instances(family, N):
            checked += 1
            if not holds and witness is None:
                lhs, rhs = ci_instance(family, N, pi, B)
                witness = _witness("ci", players=N, partition=pi, block=B,
                                   lhs=lhs, rhs=rhs)
    return Report(f"ci[{family.label}]", witness is None, checked, witness)


# --- positivity -------------------------------------------------------------


def check_pos(family: RandomPartitionFamily, n_max: int) -> Report:
    """Is every partition probability strictly positive? On the prefixes
    {1, ..., k} for k <= n_max and the sets the family names."""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        den, nums = family.integer_distribution(N)
        checked += len(nums)
        if witness is None and min(nums) <= 0:
            # the first one in the rule's own order
            k = next(k for k, x in enumerate(nums) if x <= 0)
            witness = _witness("pos", players=N, partition=partitions.enumerate_partitions(N)[k],
                               prob=Fraction(nums[k], den))
    return Report(f"pos[{family.label}]", witness is None, checked, witness)


# --- restriction operator axioms -------------------------------------------


class _Violation(Exception):
    """Carries the witness of the first failed restriction axiom."""

    def __init__(self, **fields):
        super().__init__(_witness("restriction-axioms", **fields))


def _judge_removal(op, probe: TuxGame, i: int) -> LinearMap:
    """The operator's exact matrix of removing ``i`` from the probe's players,
    judged row by row: LIN against the rule on the probe, then RES."""
    N = probe.players
    matrix = op.removal_matrix(N, i)
    den = matrix.den * probe.den
    cells = partitions.enumerate_embedded(N)
    for (S, pi), (_, grown), (positions, _, _), num in zip(
            partitions.enumerate_embedded(N & ~(1 << i)), partitions.placement_positions(N, i),
            matrix.rows, matrix.apply(probe.nums)):
        rhs = op.restricted_worth(probe, i, S, pi)
        if num * rhs.denominator != rhs.numerator * den:
            raise _Violation(axiom="LIN", players=N, player=i, cell_coalition=S,
                             cell_partition=pi, lhs=Fraction(num, den), rhs=Fraction(rhs))
        for k in positions:
            if k not in grown:
                # the last placement leaves i alone
                base = tux_games.dirac_game(N, *cells[grown[-1]])
                T, tau = cells[k]
                bumped = base + tux_games.dirac_game(N, T, tau)
                raise _Violation(
                    axiom="RES", players=N, player=i, cell_coalition=S, cell_partition=pi,
                    probe_coalition=T, probe_outside=tau,
                    lhs=op.restricted_worth(base, i, S, pi),
                    rhs=op.restricted_worth(bumped, i, S, pi))
    return matrix


def _lin_probe(N: Coalition) -> TuxGame:
    """The LIN probe: the game on N with worth 1/k at the k-th nonempty cell
    of ``enumerate_embedded(N)``, built in integers. Over den = lcm(1..K),
    cell k's numerator is den // k; cell 1's is den itself, so the view is
    already reduced and no gcd is taken."""
    empty = partitions.bell_number(partitions.size(N))  # the empty coalition's cells lead
    K = len(partitions.enumerate_embedded(N)) - empty
    den = _lcm_up_to(K)
    return TuxGame._from_reduced(N, den, [0] * empty + [den // k for k in range(1, K + 1)])


@functools.cache
def _lcm_up_to(K: int) -> int:
    """lcm(1, ..., K): the product, over the primes p <= K of an integer
    sieve, of the largest power of p that is at most K; a prime above the
    square root of K enters once. Cached per K: every check on k players
    probes the same K, and at --nmax 3 the sieves are a few % of a check."""
    root, prime = math.isqrt(K), bytearray([1]) * (K + 1)
    prime[:2] = bytes(min(2, K + 1))
    lcm = 1
    for p in range(2, root + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, K + 1, p)))
            power = p * p
            while power * p <= K:
                power *= p
            lcm *= power
    return lcm * math.prod(itertools.compress(range(root + 1, K + 1), prime[root + 1:]))


def _nonempty_cells(m: int) -> int:
    """Embedded coalitions of m players with a nonempty coalition: the
    Bell(m + 1) cells less the Bell(m) of the empty coalition."""
    return partitions.bell_number(m + 1) - partitions.bell_number(m)


def _restriction_count(player_sets) -> int:
    """Instances of ``check_restriction_axioms`` on these player sets: on k
    players, k removals, each with the Bell(k) - Bell(k - 1) nonempty cells
    of its subgame plus one PNG instance, and C(k, 2) pairs of removals with
    the Bell(k - 1) - Bell(k - 2) nonempty cells of theirs."""
    count = 0
    for N in player_sets:
        k = partitions.size(N)
        count += k * (_nonempty_cells(k - 1) + 1)
        if k >= 2:
            count += math.comb(k, 2) * _nonempty_cells(k - 2)
    return count


def check_restriction_axioms(op, n_max: int) -> Report:
    """Linearity, cell locality, null-game preservation and path independence,
    on the prefixes {1, ..., k} for k <= n_max and the sets an ``rp:``
    operator's family names.

    Judges ``op.removal_matrix``: the exact matrix of each removal, built
    from the removal rows that ``restrict`` and the auxiliary game, potential
    and value read too. LIN: the rule evaluates on forms (no truth tests,
    comparisons, products of worths or constant terms) and each row of its
    matrix matches the rule (``restricted_worth``) on the game with worth 1/k
    at the k-th nonempty cell of ``enumerate_embedded(N)``. RES: each row
    reads only the cells where the removed player joins an outside block or
    stays alone. PNG: the rule maps the null game to the null game. PI: the
    matrices of both removal orders (as judged, where judged on a smaller
    player set), composed with ``LinearMap.after``, agree column by column,
    so the orders agree on every game at once; the witness names a Dirac
    game (``coalition``, ``outside``) and a cell where they differ. Refuses,
    before judging any, more instances than ``MAX_RESTRICTION_INSTANCES``.
    """
    from . import restriction_ops  # the family checks never load it

    player_sets = _player_sets(n_max, op.explicit_player_sets)
    count = _restriction_count(player_sets)
    if count > MAX_RESTRICTION_INSTANCES:
        raise ValueError(f"the restriction check at --nmax {n_max} would check {count} "
                         f"instances, over the budget of {MAX_RESTRICTION_INSTANCES}")
    checked, witness, judged = 0, None, {}
    try:
        for N in player_sets:
            ids = partitions.members(N)
            cells = partitions.enumerate_embedded(N)
            probe = _lin_probe(N)
            judged.update({(N, i): _judge_removal(op, probe, i) for i in ids})
            null = tux_games.null_game(N)
            for i in ids:
                checked += _nonempty_cells(len(ids) - 1) + 1
                for S, pi in partitions.enumerate_embedded(N & ~(1 << i)):
                    if x := op.restricted_worth(null, i, S, pi):
                        raise _Violation(axiom="PNG", players=N, player=i, lhs=Fraction(x),
                                         rhs=ZERO, cell_coalition=S, cell_partition=pi)
            for i, j in itertools.combinations(ids, 2):
                rest = N & ~(1 << i) & ~(1 << j)
                first = judged.get((N & ~(1 << i), j)) or op.removal_matrix(N & ~(1 << i), j)
                second = judged.get((N & ~(1 << j), i)) or op.removal_matrix(N & ~(1 << j), i)
                first, second = first.after(judged[N, i]), second.after(judged[N, j])
                checked += _nonempty_cells(len(ids) - 2)
                # composed rows have scale 1
                for (S, pi), (lhs_at, lhs_row, _), (rhs_at, rhs_row, _) in zip(
                        partitions.enumerate_embedded(rest), first.rows, second.rows):
                    lhs_row, rhs_row = dict(zip(lhs_at, lhs_row)), dict(zip(rhs_at, rhs_row))
                    for k in sorted(lhs_row.keys() | rhs_row.keys()):
                        lhs, rhs = lhs_row.get(k, 0), rhs_row.get(k, 0)
                        if lhs * second.den != rhs * first.den:
                            raise _Violation(
                                axiom="PI", players=N, coalition=cells[k][0],
                                outside=cells[k][1], first_removed=i, second_removed=j,
                                cell_coalition=S, cell_partition=pi,
                                lhs=Fraction(lhs, first.den), rhs=Fraction(rhs, second.den))
    except restriction_ops.NonLinearRuleError as exc:
        witness = _witness("restriction-axioms", axiom="LIN", players=exc.players,
                           player=exc.player, cell_coalition=exc.cell[0],
                           cell_partition=exc.cell[1], error=exc.error)
    except _Violation as violation:
        (witness,) = violation.args
    return Report(f"restriction-axioms[{op.label}]", witness is None, checked, witness)


# --- null player ------------------------------------------------------------


def _placement_args(players, i: int, pi: Partition, block) -> tuple[Coalition, Coalition]:
    """The masks of ``players`` and ``block``, once ``pi`` is known to
    partition the players other than ``i`` and to contain the block."""
    N = partitions.as_mask(players)
    B = partitions.as_mask(block)
    bit = partitions.singleton(i)
    if not N & bit:
        raise ValueError(f"player {i} is not in the player set")
    if not partitions.is_partition_of(pi, N & ~bit) or B not in pi:
        raise ValueError("pi must partition the other players and contain the block")
    return N, B


def _witness_game(N: Coalition, inside: int, grown) -> TuxGame:
    """The game on N that is 1 at the positions of one row of
    ``placement_positions``, ``inside`` and ``grown``, and 0 elsewhere."""
    nums = [0] * partitions.embedded_count(partitions.size(N))
    for k in (inside, *grown):
        nums[k] = 1
    return TuxGame._from_numerators(N, 1, nums)


def null_player_witness(players, i: int, pi: Partition, block) -> TuxGame:
    """Game in which player ``i`` is null by construction.

    Puts worth 1 on the embedded coalition where i joined the given block,
    and worth 1 on every way of placing i outside the block. A solution with
    the null player property must pay i nothing here.
    """
    N, B = _placement_args(players, i, pi, block)
    row = partitions.embedded_index(N & ~(1 << i))[(B, tuple(C for C in pi if C != B))]
    return _witness_game(N, *partitions.placement_positions(N, i)[row])


Solution = Callable[[TuxGame], Mapping[int, Fraction]]

def _null_player_count(n_max: int) -> int:
    """Witness games of ``check_null_player_axiom``: on k players, k choices of
    i times the Bell(k) - Bell(k - 1) blocks of the partitions of the other
    k - 1 players, plus the showcase game from four players on."""
    bell = partitions.bell_number
    return sum(k * (bell(k) - bell(k - 1)) for k in range(1, n_max + 1)) + (n_max >= 4)


def check_null_player_axiom(
    solution: Solution, n_max: int, label: str | None = None
) -> Report:
    """Does the solution pay zero to players that never affect any worth?

    Checks the constructed witness family on the prefixes {1, ..., k},
    k <= n_max, for every player, outside partition, and target block, plus
    the four-player showcase game whose player 1 is null. Refuses, before
    running any, more witness games than ``MAX_NULL_PLAYER_WITNESSES``.

    A solution that carries a ``linear_map`` (a ``LinearMap`` per player
    set, as ``cli.parse_solution`` attaches) is the Shapley value of that
    map, so a witness game's payoff is first read from one integer row per
    player (``tu_games.shapley_rows``), summed over the game's placement
    row; only a game the row pays runs through the solution, whose payoff
    the report gives (a RuntimeError if it is 0). Any other callable runs
    on each game; the reports are alike.
    """
    if label is None:
        label = getattr(solution, "__name__", "solution")
    player_sets = _player_sets(n_max)
    count = _null_player_count(n_max)
    if count > MAX_NULL_PLAYER_WITNESSES:
        raise ValueError(f"the null-player check at --nmax {n_max} would run {count} "
                         f"witness games, over the budget of {MAX_NULL_PLAYER_WITNESSES}")
    linear_map = getattr(solution, "linear_map", None)
    checked, witness = 0, None
    for N in player_sets:
        rows = None if linear_map is None else tu_games.shapley_rows(linear_map(N), N)
        for i in partitions.members(N):
            rest, row = N & ~(1 << i), None if rows is None else rows[i]
            at, placed = partitions.embedded_index(rest), partitions.placement_positions(N, i)
            for pi in partitions.enumerate_partitions(rest):
                for B in pi:
                    checked += 1
                    if witness is not None:
                        continue
                    # the witness game is 1 at the cells of the row of (B, pi - B)
                    inside, grown = placed[at[B, tuple(C for C in pi if C != B)]]
                    if row is None or row[inside] + sum(map(row.__getitem__, grown)) != 0:
                        payoff = solution(_witness_game(N, inside, grown))[i]
                        if payoff != 0:
                            witness = _witness("null-player", kind="witness-family",
                                               players=N, player=i, partition=pi, block=B,
                                               payoff=payoff)
                        elif row is not None:
                            raise RuntimeError(f"the linear map of {label} pays player {i} "
                                               "on a witness game that the solution does not")
    if n_max >= 4:
        showcase = tux_games.productive_pair_game()
        payoff = solution(showcase)[1]
        checked += 1
        if payoff != 0 and witness is None:
            witness = _witness("null-player", kind="showcase-game",
                               players=showcase.players, player=1, payoff=payoff)
    return Report(f"null-player[{label}]", witness is None, checked, witness)


# --- monotonicity -----------------------------------------------------------


def monotonicity_instance(
    family: RandomPartitionFamily, players, i: int, pi: Partition, block
) -> tuple[Fraction, Fraction]:
    """Both sides of the linear identity forced by monotone payoffs.

    Compares the probability of i landing in the given block against b/(n-b)
    times the total probability of i landing anywhere else. All instances
    hold exactly for the uniform CRP law and pin the family down to it.
    """
    N, B = _placement_args(players, i, pi, block)
    n, b = partitions.size(N), partitions.size(B)
    den, nums = family.integer_distribution(N)
    prob = {C: nums[partitions.partition_position(grown)]
            for C, grown in partitions.placements(pi, i)}
    lhs = prob.pop(B)
    return Fraction(lhs, den), Fraction(b * sum(prob.values()), (n - b) * den)


def _monotonicity_instances(family: RandomPartitionFamily, N: Coalition):
    """(player, partition, block, holds) for every monotonicity instance on N,
    in check order: the numerator of i joining B against b/(n-b) times the
    sum of the numerators of i landing anywhere else."""
    n = partitions.size(N)
    _, nums = family.integer_distribution(N)
    for i in partitions.members(N):
        for pi in partitions.enumerate_partitions(N & ~(1 << i)):
            probs = [nums[partitions.partition_position(grown)]
                     for _, grown in partitions.placements(pi, i)]
            total = sum(probs)
            for B, p in zip(pi, probs):
                b = partitions.size(B)
                yield i, pi, B, p * (n - b) == b * (total - p)


def check_monotonicity_conditions(family: RandomPartitionFamily, n_max: int) -> Report:
    """Do the linear conditions behind monotone p-Shapley payoffs all hold?
    On the prefixes {1, ..., k} for k <= n_max and the sets the family names."""
    checked = 0
    witness = None
    for N in _player_sets(n_max, family.explicit_player_sets):
        for i, pi, B, holds in _monotonicity_instances(family, N):
            checked += 1
            if not holds and witness is None:
                lhs, rhs = monotonicity_instance(family, N, i, pi, B)
                witness = _witness("monotonicity-conditions", players=N, player=i,
                                   partition=pi, block=B, lhs=lhs, rhs=rhs)
    return Report(
        f"monotonicity-conditions[{family.label}]", witness is None, checked, witness
    )
