"""Restriction operators: how a partition-function game loses a player.

A restriction operator turns a game on N into a subgame on N minus one
player; each subgame cell may only depend on the original worths where the
removed player joins an outside block or stays alone. The operators here are
the probability-ratio operator built from a potential-generating random
partition, its closed form for the uniform CRP law, the nullifying operator,
and a deliberately order-biased operator used to exercise the axiom checks.

The cell rule runs in one place, ``restricted_worth``, and never on the empty
coalition, which is worth 0. Run at one subgame cell on a game whose
numerators ``nums`` are unit linear forms, it gives one integer row of a
removal (N, i) over its own denominator; ``_removal_rows``, the one method
that fills and reads the row cache, builds each row once per removal and
cell and caches it with its zeros. The built-in rules read ``nums`` and scale
once per cell, by one Fraction that folds in ``den``. A removal's matrix, a
``random_partitions.LinearMap`` with one integer row per subgame cell over
the lcm of their denominators, is assembled from them, zeros dropped;
``restrict`` applies it, and the axiom check judges it against the rule run
on concrete worths, composing two with ``LinearMap.after`` for PI. Chaining
the removals down the lattice of removed sets gives the auxiliary game as one
more map per player set, with a row per coalition, pulled back from the
removal rows its chains read: the rule runs on a small part of the lattice's
rows (395 of 2,386 at 6 players), and a matrix taken afterwards builds only
the rest. A row reading just its coalition's run, as ``rstar``'s do, is that
run, sliced as a family's run tables are. The map is cached too, so the
auxiliary game, hence its potential and value, is one pass over the worths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import partitions, tu_games
from .errors import PositivityError
from .partitions import Coalition, Partition
from .random_partitions import ZERO, LinearMap, RandomPartitionFamily, pull_back
from .tu_games import PayoffVector, TuGame
from .tux_games import TuxGame, cell_index

CellRule = Callable[[TuxGame, int, Coalition, Partition], Fraction]


class _LinearForm:
    """Exact linear form in a game's worths: integer coefficients {cell
    position: coefficient} over one positive integer ``den``.

    Only sums and differences of forms, and products and quotients by exact
    scalars, are defined: an int scales the coefficients, a Fraction p/q
    scales them by p and ``den`` by q, and forms over two dens add over their
    lcm. Truth tests, comparisons, products of worths and nonzero constant
    terms raise TypeError.
    """

    __slots__ = ("coef", "den")

    def __init__(self, coef, den=1):
        self.coef, self.den = coef, den

    def __add__(self, other):
        if not isinstance(other, _LinearForm):
            if isinstance(other, (int, Fraction)) and other == 0:
                return self
            raise TypeError(f"constant term {other!r}")
        big, small, den = self.coef, other.coef, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            big = {cell: x * (den // self.den) for cell, x in big.items()}
            small = {cell: x * (den // other.den) for cell, x in small.items()}
        if len(big) < len(small):
            big, small = small, big
        total = dict(big)
        for cell, x in small.items():
            total[cell] = total[cell] + x if cell in total else x
        return _LinearForm(total, den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        p, q = k.as_integer_ratio()
        return _LinearForm(self.coef if p == 1 else {cell: x * p for cell, x in self.coef.items()},
                           self.den * q)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * Fraction(1, k)

    def __bool__(self):
        raise TypeError("the truth value of a worth depends on the game")

    def __eq__(self, other):
        raise TypeError("comparing worths is not linear")


_NO_CELL = _LinearForm({})


class _SymbolicGame:
    """Stands in for the TuxGame a cell rule reads: over ``den`` 1, it is its
    own numerators ``nums``, whose item k is the unit form of the k-th cell
    in ``enumerate_embedded`` order, built when read, or the empty form at an
    empty coalition's cell; ``worth`` reads through them."""

    den = 1

    def __init__(self, players: Coalition):
        self.players, self.n, self.nums = players, partitions.size(players), self
        # the cells of the empty coalition come first, one per partition
        self.empty = partitions.bell_number(self.n)

    def __getitem__(self, k: int) -> _LinearForm:
        return _LinearForm({k: 1}) if k >= self.empty else _NO_CELL

    def worth(self, coalition, pi: Partition) -> _LinearForm:
        return self[cell_index(self.players, coalition, pi)]


class NonLinearRuleError(ValueError):
    """A cell rule failed on linear forms, so it is no linear map of the worths.

    Carries the player set, the removed player, the subgame cell and the
    rule's error message.
    """

    def __init__(self, label: str, players: Coalition, player: int, cell, error: str):
        S, pi = cell
        super().__init__(
            f"restriction operator {label!r} is not linear: removing player {player} "
            f"from {list(partitions.members(players))}, its rule at "
            f"({list(partitions.members(S))}, {[list(partitions.members(B)) for B in pi]}) "
            f"failed on linear forms: {error}"
        )
        self.players, self.player, self.cell, self.error = players, player, cell, error


class RestrictionOperator:
    """A rule producing subgames, plus the potential and value it induces:
    the TU potential and the Shapley value of its auxiliary game. For path
    dependent operators (``biased``) both follow ``restrict_many``'s order.

    The rule reads the game only through ``worth``, ``players``, ``n``, and
    the numerators ``nums`` over ``den``; the subgames, potential and value
    need it to be linear in the worths.
    """

    def __init__(
        self,
        label: str,
        cell_rule: CellRule,
        explicit_player_sets: frozenset[Coalition] = frozenset(),
    ):
        self.label = label
        self._cell_rule = cell_rule
        self.explicit_player_sets = explicit_player_sets
        # per removal, its rows built so far: {cell position: (positions, coefficients, den)}
        self._rows: dict[tuple[Coalition, int], dict[int, tuple]] = {}
        self._auxiliary_maps: dict[Coalition, LinearMap] = {}

    def __repr__(self):
        return f"RestrictionOperator({self.label!r})"

    def restricted_worth(self, w: TuxGame, i: int, S, pi: Partition) -> Fraction:
        """Worth of one embedded coalition of the subgame without player ``i``,
        the only call of the cell rule; the empty coalition is 0 without it.
        A rule that looks up a cell outside the subgame gets the ValueError
        naming it, as ``cell_index`` refuses it; a rule that reads no cell,
        like ``nullify``'s, refuses none."""
        if type(S) is not int or S < 0:
            S = partitions.as_mask(S)
        try:
            return self._cell_rule(w, i, S, pi) if S else ZERO
        except KeyError:
            cell_index(w.players & ~(1 << i), S, pi)
            raise

    def restrict(self, w: TuxGame, i: int) -> TuxGame:
        """The subgame without player ``i``: its ``removal_matrix`` applied to
        the worths. A non-linear rule raises NonLinearRuleError (a ValueError)."""
        if not w.players & partitions.singleton(i):
            raise ValueError(f"player {i} is not in the game")
        m = self.removal_matrix(w.players, i)
        return TuxGame._from_numerators(w.players & ~(1 << i), m.den * w.den, m.apply(w.nums))

    def restrict_many(self, w: TuxGame, removed) -> TuxGame:
        """Remove several players, in ascending id order.

        For path independent operators any removal order gives the same
        subgame; the fixed order just makes runs deterministic.
        """
        gone = partitions.as_mask(removed)
        if gone & ~w.players:
            raise ValueError("cannot remove players that are not in the game")
        for i in partitions.members(gone):
            w = self.restrict(w, i)
        return w

    def removal_matrix(self, players: Coalition, i: int) -> LinearMap:
        """The exact matrix of removing ``i`` from ``players``, one row per cell
        of the subgame in ``enumerate_embedded`` order (empty for an empty
        coalition): its ``_removal_rows``, each over its own reduced
        denominator, put over the lcm of their denominators, zeros dropped.
        Raises NonLinearRuleError when the rule fails on linear forms."""
        if not players & partitions.singleton(i):
            raise ValueError(f"player {i} is not in the player set")
        rows = self._removal_rows(players, i, range(len(
            partitions.enumerate_embedded(players & ~(1 << i)))))
        den = math.lcm(*{d for _, _, d in rows})
        table = []
        for positions, coefficients, d in rows:
            if d != den or 0 in coefficients:
                row = {q: x * (den // d) for q, x in zip(positions, coefficients) if x}
                positions, coefficients = tuple(row), tuple(row.values())
            table.append((positions, coefficients, 1))
        return LinearMap(den, tuple(table))

    def _removal_rows(self, players: Coalition, i: int, positions) -> list[tuple]:
        """Rows ``positions`` of removing ``i`` from ``players``, each as
        (positions read, coefficients, den), zeros kept: the cached ones, and
        the rest, the one writer of the cache, built in order in one pass of
        the cell rule on unit linear forms, each reduced by its gcd. Raises
        NonLinearRuleError at the first cell where the rule fails on forms."""
        rows = self._rows.setdefault((players, i), {})
        missing = [p for p in positions if p not in rows] if rows else positions
        if missing:
            cells, game = partitions.enumerate_embedded(players & ~(1 << i)), _SymbolicGame(players)
            for p in missing:
                S, pi = cells[p]
                try:
                    worth = self.restricted_worth(game, i, S, pi)
                    if type(worth) is not _LinearForm:  # ZERO, the empty coalition's, reads no cell
                        worth = _NO_CELL if worth is ZERO else _NO_CELL + worth
                except TypeError as exc:
                    raise NonLinearRuleError(self.label, players, i, (S, pi), str(exc)) from None
                coef, den = worth.coef, worth.den
                g = math.gcd(den, *coef.values())
                if g != 1:
                    coef, den = {k: x // g for k, x in coef.items()}, den // g
                rows[p] = tuple(coef), tuple(coef.values()), den
        return list(map(rows.__getitem__, positions))

    def auxiliary_map(self, players: Coalition) -> LinearMap:
        """The auxiliary game as a matrix, built once per player set and cached:
        one row per coalition S in ``subsets`` order, over one common
        denominator, reading the worths that give what S keeps once the players
        outside S are removed in ascending order.

        Each row is the unit row at S's grand-coalition cell pulled back
        through its chain of removals, last removal first. Each step reads
        the removal rows its row names, zeros included, in one
        ``_removal_rows`` call, whatever the operator built before, and folds
        in the lcm of their denominators. Rows, each reduced by its own gcd,
        go over the lcm of the reduced denominators, zeros dropped: as their
        coalition's run (``partitions.runs``) in run order when they read
        exactly it, else in read order. Chains go depth first down the lattice
        of removed sets; the first cell read whose rule fails raises
        NonLinearRuleError, or the rule's own error, such as PositivityError,
        and a rule that fails only on cells no chain reads gives a map, though
        ``restrict`` refuses it.
        """
        aux = self._auxiliary_maps.get(players)
        if aux is None:
            rows = {}
            for S, chain in self._removal_chains(players, -1, ()):
                row, den = {cell_index(S, S, ()): 1} if S else {}, 1
                for M, h in reversed(chain):
                    read = dict(zip(row, self._removal_rows(M, h, row)))
                    step = math.lcm(*{d for _, _, d in read.values()})
                    row = pull_back(row, {p: (positions, coefficients, step // d)
                                          for p, (positions, coefficients, d) in read.items()})
                    den *= step
                rows[S] = row, den
            lcm = math.lcm(*(den // math.gcd(den, *row.values()) for row, den in rows.values()))
            table = []
            for S, run in partitions.runs(players).items():
                row, den = rows[S]
                row, run = {q: x * lcm // den for q, x in row.items() if x}, range(*run)
                table.append((run, tuple(map(row.get, run)), 1) if row.keys() == set(run)
                             else (tuple(row), tuple(row.values()), 1))
            aux = self._auxiliary_maps[players] = LinearMap(lcm, tuple(table))
        return aux

    def _removal_chains(self, players: Coalition, last: int, chain: tuple):
        """Each subgame reached by removing players above ``last`` in ascending
        order, with the removals (player set, player) that lead to it, depth
        first."""
        yield players, chain
        for h in partitions.members(players):
            if h > last:
                yield from self._removal_chains(players & ~(1 << h), h, chain + ((players, h),))

    def auxiliary_game(self, w: TuxGame) -> TuGame:
        """TU game whose worth of S is what S earns once everyone else is removed.

        One pass over the worth table with the cached ``auxiliary_map``; the
        players outside S leave in the ascending order of ``restrict_many``. A
        rule that fails on linear forms at a cell the map reads raises
        NonLinearRuleError, a ValueError naming the operator.
        """
        aux = self.auxiliary_map(w.players)
        return TuGame._from_numerators(w.players, aux.den * w.den, aux.apply(w.nums))

    def potential(self, w: TuxGame) -> Fraction:
        """TU potential of the auxiliary game: for path independent operators,
        the efficiency recursion over one-player removals."""
        return tu_games.potential(self.auxiliary_game(w))

    def shapley_value(self, w: TuxGame) -> PayoffVector:
        """Shapley value of the auxiliary TU game; equals the per-player
        contribution to the operator's potential."""
        return tu_games.shapley_value(self.auxiliary_game(w))


def crp_restriction() -> RestrictionOperator:
    """Uniform-CRP restriction: the removed player joins each outside player
    with equal weight or stays alone.

    The subgame worth at (S, pi) is the weighted average of the original
    worths where the removed player is merged into a block B with weight
    b/(n-s) or kept as a singleton with weight 1/(n-s).
    """

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        at, total = partitions.embedded_index(w.players), 0
        for B, grown in partitions.placements(pi, i):
            # alone (B = 0) weighs like a block of one
            total += w.nums[at[S, grown]] * (B.bit_count() or 1)
        return total * Fraction(1, (w.n - S.bit_count()) * w.den)

    return RestrictionOperator("rstar", cell)


def probability_restriction(family: RandomPartitionFamily) -> RestrictionOperator:
    """Restriction operator weighting original worths by probability ratios.

    The subgame worth at (S, pi) is n/(n-s) times the sum over target blocks
    B of p_N({S} + pi with the removed player in B) / p_{N-i}({S} + pi) times
    the original worth. The family must generate the TU potential; this is
    checked at construction time on up to 5 players (fewer when the universe
    bound is lower), once per family and player count. Probabilities
    appearing in denominators must be nonzero and are checked per query.

    The rule reads both probabilities from the coefficients of the family's
    cached run tables (``block_runs``, whose rows' scale it leaves aside),
    at the positions of the cells it concerns: p_N at (S, pi with the
    removed player placed) in the table of N, p_{N-i} at (S, pi) in the
    table of N - i.
    """
    from . import verify

    n_max = min(5, partitions.universe_bound())
    report = family._gen_reports.get(n_max)
    if report is None:
        report = family._gen_reports[n_max] = verify.check_gen(family, n_max)
    if not report.passed:
        raise ValueError(
            f"family {family.label!r} does not generate the TU potential; "
            f"witness: {report.witness}"
        )

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        rest = w.players & ~(1 << i)
        rest_den, rows = family.block_runs(rest)
        cells, weights, _ = rows[partitions.subset_position(rest, S)]
        at = cell_index(rest, S, pi) - cells.start  # where pi sits in the run of S
        q = weights[at]
        if q == 0:
            base = partitions.with_block(pi, S)
            raise PositivityError(
                f"family {family.label!r} assigns probability zero to "
                f"{[sorted(partitions.members(b)) for b in base]} on "
                f"{sorted(partitions.members(rest))}",
                players=rest,
                partition=base,
            )
        den, rows = family.block_runs(w.players)
        cells, weights, _ = rows[partitions.subset_position(w.players, S)]
        index, total = partitions.embedded_index(w.players), 0
        for _, grown in partitions.placements(pi, i):
            k = index[S, grown]
            total += w.nums[k] * weights[k - cells.start]
        n, s = w.n, S.bit_count()
        # n/(n-s) over p_{N-i}(base), both probabilities' and the worths' denominators cleared
        return total * Fraction(n * rest_den, (n - s) * den * q * w.den)

    return RestrictionOperator(
        f"rp:{family.label}", cell, explicit_player_sets=family.explicit_player_sets
    )


def nullifying_restriction() -> RestrictionOperator:
    """Every subgame is the null game; induces the egalitarian split."""

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        return ZERO

    return RestrictionOperator("nullify", cell)


def removal_biased_restriction() -> RestrictionOperator:
    """Operator whose merge weights depend on the removed player's id.

    Still local to the admissible cells and maps null games to null games,
    but removing i before j need not equal removing j before i, so it fails
    path independence. Exists to give the axiom checker a true negative.
    """

    def cell(w: TuxGame, i: int, S: Coalition, pi: Partition) -> Fraction:
        at, total = partitions.embedded_index(w.players), 0
        for B, grown in partitions.placements(pi, i):
            total += w.nums[at[S, grown]] * (i + 1 if B else 1)
        return total * Fraction(1, w.den)

    return RestrictionOperator("biased", cell)
