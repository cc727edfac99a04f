"""The four benchmark workloads: seeded inputs, operations and exact oracles.

A workload is a fixed round of operations built from the workload seed. The
benchmark repeats the round (in a seeded order) until its time is up. Each
operation is one public pfgames call, or one CLI invocation for ``cli``.
After a round, every result is checked against an exact oracle; the checks
are not timed.

pfgames receives only the generated games and spec strings. Library
functions are looked up at call time (``tux_games.mpw_value``, not a bound
name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from pfgames import (
    cli,
    formats,
    partitions,
    random_partitions,
    restriction_ops,
    sampling,
    tu_games,
    tux_games,
    verify,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation and the oracle that judges its result.

    ``check(result, round_results)`` returns None when the result is right,
    else a reason; without a check, only repeatability across rounds is
    judged. ``known_defect`` names a defect of the program that makes this
    operation fail at present; such failures are reported apart.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None] | None
    inputs: str = ""
    known_defect: str | None = None
    trace_call: Callable[..., object] | None = None


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes


# --- seeded inputs, generated the way tests/corpus.py does -----------------


def prefix(n: int) -> int:
    return partitions.mask_from(range(1, n + 1))


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_tu_game(n: int, rng: random.Random) -> tu_games.TuGame:
    mask = prefix(n)
    return tu_games.TuGame(
        mask, {S: random_fraction(rng) for S in partitions.subsets(mask) if S}
    )


def random_tux_game(n: int, rng: random.Random) -> tux_games.TuxGame:
    mask = prefix(n)
    worth = {
        cell: random_fraction(rng)
        for cell in partitions.enumerate_embedded(mask)
        if cell[0]
    }
    return tux_games.TuxGame(mask, worth)


def fingerprint(game) -> str:
    text = json.dumps(formats.game_to_json(game), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def warm_caches(n_max: int, families=()) -> None:
    """Fill the partition caches and family memos for every subset of 1..n_max."""
    for sub in partitions.subsets(prefix(n_max)):
        partitions.enumerate_embedded(sub)
        for family in families:
            family.distribution(sub)


# --- oracle helpers ----------------------------------------------------------


def _efficient(payoff, game) -> str | None:
    total = sum(payoff.values(), Fraction(0))
    grand = game.worth(game.players, ())
    if total != grand:
        return f"payoffs sum to {total}, grand coalition worth is {grand}"
    return None


def _equal(result, expected, what: str) -> str | None:
    if result != expected:
        return f"differs from {what}"
    return None


def _first_error(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


class Workload:
    """Base class: subclasses fill ``self.ops`` in ``__init__``."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list[Op] = []

    def order(self, round_index: int) -> list[Op]:
        """The round's operations in an order drawn from the seed."""
        ops = list(self.ops)
        random.Random(f"{self.name}:{self.seed}:{round_index}").shuffle(ops)
        return ops

    def describe(self) -> list[tuple[str, str]]:
        return [(op.label, op.inputs) for op in self.ops]

    def close(self) -> None:
        pass


# --- solve ---------------------------------------------------------------------


class Solve(Workload):
    """Exact solutions on dense random partition-function games, warm caches."""

    name = "solve"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        rng = random.Random(seed)
        counts = {4: 2, 5: 1} if smoke else {4: 3, 5: 3, 6: 1, 7: 1, 8: 1}
        tu_sizes = [4, 5] if smoke else [4, 5, 6, 7, 8]
        games = []
        for n, count in counts.items():
            games.extend(random_tux_game(n, rng) for _ in range(count))
        tu = [random_tu_game(n, rng) for n in tu_sizes]
        null_games = []
        for n in tu_sizes + ([] if smoke else [5, 6]):
            N = prefix(n)
            i = rng.choice(partitions.members(N))
            pi = rng.choice(partitions.enumerate_partitions(N & ~(1 << i)))
            block = rng.choice(pi)
            null_games.append((verify.null_player_witness(N, i, pi, block), i))

        families = {spec: cli.parse_family(spec) for spec in ("pstar", "ewens:1/2", "eps:4=1/24")}
        operators = {spec: cli.parse_operator(spec) for spec in ("rstar", "rp:pstar")}
        warm_caches(max(counts), families.values())

        for k, g in enumerate(games):
            tag = f"n={g.n} #{k}"
            fp = fingerprint(g)
            self._add(f"mpw {tag}", fp, lambda g=g: tux_games.mpw_value(g),
                      lambda r, res, g=g: _efficient(r, g))
            if g.n <= 7:
                for spec, family in families.items():
                    self._add(
                        f"p-shapley {spec} {tag}", fp,
                        lambda g=g, f=family: tux_games.p_shapley_vector(g, f),
                        self._p_shapley_check(spec, g, tag),
                    )
            if g.n <= 6:
                for spec, op in operators.items():
                    aux = f"aux-game {spec} {tag}"
                    self._add(aux, fp, lambda g=g, op=op: op.auxiliary_game(g),
                              lambda r, res, g=g: _equal(
                                  r.worth(g.players), g.worth(g.players, ()),
                                  "the grand coalition worth"))
                    self._add(f"r-shapley {spec} {tag}", fp,
                              lambda g=g, op=op: op.shapley_value(g),
                              lambda r, res, g=g, aux=aux: _first_error(
                                  _efficient(r, g),
                                  _equal(r, tu_games.shapley_value(res[aux]),
                                         "the Shapley value of its auxiliary game")))
                    if g.n <= 5:
                        self._add(f"r-potential {spec} {tag}", fp,
                                  lambda g=g, op=op: op.potential(g),
                                  lambda r, res, aux=aux: _equal(
                                      r, tu_games.potential(res[aux]),
                                      "the TU potential of its auxiliary game"))
        for v in tu:
            tag = f"n={v.n}"
            fp = fingerprint(v)
            routes = [f"potential {tag}", f"potential-size-weights {tag}",
                      f"potential-random-partition {tag}"]
            calls = [lambda v=v: tu_games.potential(v),
                     lambda v=v: tu_games.potential_via_size_weights(v),
                     lambda v=v: tu_games.potential_via_random_partition(v)]
            for label, call in zip(routes, calls):
                self._add(label, fp, call,
                          lambda r, res, routes=routes: _first_error(
                              *(_equal(r, res[other], other) for other in routes)))
            shapleys = [f"shapley {tag}", f"shapley-crp {tag}"]
            calls = [lambda v=v: tu_games.shapley_value(v),
                     lambda v=v: tu_games.shapley_via_crp(v)]
            for label, call in zip(shapleys, calls):
                self._add(label, fp, call,
                          lambda r, res, v=v, shapleys=shapleys: _first_error(
                              _equal(sum(r.values(), Fraction(0)), v.worth(v.players),
                                     "the grand coalition worth"),
                              *(_equal(r, res[other], other) for other in shapleys)))
        for k, (g, i) in enumerate(null_games):
            self._add(f"null-player n={g.n} i={i} #{k}", fingerprint(g),
                      lambda g=g, i=i: tux_games.is_null_player(g, i),
                      lambda r, res: None if r is True else "witness player not null")

    def _add(self, label, inputs, call, check):
        self.ops.append(Op(label, call, check, inputs))

    @staticmethod
    def _p_shapley_check(spec, g, tag):
        if spec == "pstar":
            return lambda r, res: _first_error(
                _efficient(r, g), _equal(r, res[f"mpw {tag}"], "the MPW value"))
        if spec.startswith("eps:"):
            # a potential-generating family, so the value is efficient
            return lambda r, res: _efficient(r, g)
        return None  # no exact oracle: judged by repeatability across rounds


# --- verify --------------------------------------------------------------------

RES_REPRODUCER = "res-reproducer"


def res_reproducer() -> restriction_ops.RestrictionOperator:
    """Non-local operator: every subgame cell copies the grand-coalition worth."""
    return restriction_ops.RestrictionOperator(
        RES_REPRODUCER, lambda w, i, S, pi: w.worth(w.players, ()) if S else 0
    )


def expected_family_verdict(spec: str, check: str, nmax: int) -> bool:
    """Known verdicts; the eps family only deviates from pstar on 4+ players."""
    if spec == "ewens:1/2":
        return check in ("ci", "pos")
    if spec.startswith("eps:"):
        return check in ("gen", "pos") or nmax < 4
    return True


def _check_null_player(spec: str, nmax: int):
    solution, label = cli.parse_solution(spec)
    return verify.check_null_player_axiom(solution, nmax, label)


class Verify(Workload):
    """Axiom checks as a user runs them, each building its subject from a spec."""

    name = "verify"

    FAMILY_CHECKS = {
        "gen": "check_gen",
        "ci": "check_ci",
        "pos": "check_pos",
        "monotonicity": "check_monotonicity_conditions",
    }

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        family_n = (3,) if smoke else (3, 4, 5)
        small_n = (2, 3) if smoke else (2, 3, 4)
        warm_caches(max(family_n), [random_partitions.PSTAR])
        for spec in ("pstar", "ewens:1/2", "eps:4=1/24"):
            for check, fn_name in self.FAMILY_CHECKS.items():
                for nmax in family_n:
                    self._add(
                        f"{check} {spec} nmax={nmax}",
                        lambda s=spec, f=fn_name, n=nmax: getattr(verify, f)(cli.parse_family(s), n),
                        expected_family_verdict(spec, check, nmax),
                    )
        for spec in ("rstar", "rp:pstar", "nullify", "biased"):
            for nmax in (1,) * (spec in ("rstar", "rp:pstar")) + small_n:
                # biased is path dependent, which shows once two players can leave
                expected = not (spec == "biased" and nmax >= 3)
                self._add(
                    f"restriction {spec} nmax={nmax}",
                    lambda s=spec, n=nmax: verify.check_restriction_axioms(
                        cli.parse_operator(s), n),
                    expected,
                )
        for nmax in small_n:
            self._add(
                f"restriction {RES_REPRODUCER} nmax={nmax}",
                lambda n=nmax: verify.check_restriction_axioms(res_reproducer(), n),
                False,
                known_defect="RES locality check perturbs one cell only (ROADMAP item 2)",
            )
        for spec in ("mpw", "p-shapley:pstar", "r-shapley:rstar"):
            for nmax in (1, *small_n):
                self._add(
                    f"null-player {spec} nmax={nmax}",
                    lambda s=spec, n=nmax: _check_null_player(s, n),
                    True,
                )

    def _add(self, label, call, expected: bool, known_defect=None):
        def check(report, res):
            if report.passed != expected:
                return f"verdict {'pass' if report.passed else 'fail'}, expected " + (
                    "pass" if expected else "fail")
            return None

        self.ops.append(Op(label, call, check, f"expect={'pass' if expected else 'fail'}",
                           known_defect))


# --- sample --------------------------------------------------------------------

SAMPLES_PER_OP = 2000
STD_ERRORS = 4
# About as long as `verify --check restriction --op rp:pstar --nmax 4`, so the
# three slowest cli ops form one block and p90 falls inside it.
CLI_SAMPLES = 20000


class Sample(Workload):
    """Monte Carlo payoff estimates, judged against exact values from setup."""

    name = "sample"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        rng = random.Random(seed)
        sizes = (5,) if smoke else (6, 7, 8)
        samples = 200 if smoke else SAMPLES_PER_OP
        showcase = tux_games.productive_pair_game()
        targets = [("mpw", "showcase", showcase, i) for i in showcase.member_ids()]
        for n in sizes:
            g = random_tux_game(n, rng)
            targets.extend(("mpw", f"n={n}", g, i) for i in rng.sample(g.member_ids(), 3))
        for n in sizes:
            v = random_tu_game(n, rng)
            targets.extend(("shapley", f"n={n}", v, i) for i in rng.sample(v.member_ids(), 4))
        exact = {}
        for target, tag, game, i in targets:
            key = (target, id(game))
            if key not in exact:
                solve = tux_games.mpw_value if target == "mpw" else tu_games.shapley_value
                exact[key] = solve(game)
            value = exact[key][i]
            op_seed = rng.getrandbits(32)
            self.ops.append(Op(
                f"{target} {tag} player={i} seed={op_seed}",
                lambda g=game, i=i, t=target, s=op_seed: sampling.estimate_payoff(
                    g, i, t, samples, s),
                lambda r, res, value=value: self._check(r, value),
                fingerprint(game),
            ))

    @staticmethod
    def _check(estimate, exact: Fraction) -> str | None:
        gap = abs(estimate.mean - float(exact))
        if gap > STD_ERRORS * estimate.std_error:
            return (f"mean {estimate.mean} is {gap / max(estimate.std_error, 1e-300):.1f} "
                    f"standard errors from the exact {exact}")
        return None


# --- cli -----------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(cli.ENV_UNIVERSE_BOUND, None)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child with this checkout's src/ on its path, to completion."""
    return subprocess.run(argv, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def _emitted(obj) -> bytes:
    """What the CLI prints for a JSON answer: indented, sorted keys, newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


class Cli(Workload):
    """The README's commands, each as ``python -m pfgames.cli`` in a subprocess."""

    name = "cli"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        rng = random.Random(seed)
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        games = [("showcase", tux_games.productive_pair_game())]
        if not smoke:
            games += [(f"game5-{k}", random_tux_game(5, rng)) for k in range(3)]
        rstar = cli.parse_operator("rstar")
        eps = cli.parse_family("eps:4=1/24")
        paths = {}
        for k, (name, g) in enumerate(games):
            path = self.dir / f"{name}.json"
            path.write_text(json.dumps(formats.tux_game_to_json(g)))
            paths[name] = path
            fp = fingerprint(g)
            gone = rng.choice(g.member_ids())
            # The last game skips mpw and restrict, so a round has 25 ops and
            # its 5 slowest (the rp:pstar check and the samples) hold p90.
            if k < 3:
                self._add(["mpw", "--game", path], fp,
                          _emitted({"payoffs": formats.payoff_to_json(tux_games.mpw_value(g))}))
                self._add(["restrict", "--op", "rstar", "--remove", str(gone), "--game", path],
                          fp, _emitted(formats.tux_game_to_json(rstar.restrict_many(g, 1 << gone))))
            self._add(["p-shapley", "--game", path, "--family", "eps:4=1/24"], fp,
                      _emitted({"family": eps.label,
                                "payoffs": formats.payoff_to_json(
                                    tux_games.p_shapley_vector(g, eps))}))
            self._add(["aux-game", "--op", "rstar", "--game", path], fp,
                      _emitted(formats.tu_game_to_json(rstar.auxiliary_game(g))))
            self._add(["potential", "--op", "rstar", "--game", path], fp,
                      _emitted({"potential": formats.format_rational(rstar.potential(g))}))
        verify_runs = [
            (["--check", "gen", "--family", "ewens:1/2", "--nmax", "3"],
             verify.check_gen(cli.parse_family("ewens:1/2"), 3), 1),
        ]
        if not smoke:
            verify_runs.append((
                ["--check", "restriction", "--op", "rp:pstar", "--nmax", "4"],
                verify.check_restriction_axioms(cli.parse_operator("rp:pstar"), 4), 0))
        for args, report, code in verify_runs:
            self._add(["verify", *args], "",
                      (json.dumps(report.to_json(), sort_keys=True) + "\n").encode(), code)
        for name, g in games:
            player = rng.choice(g.member_ids())
            sample_seed = rng.getrandbits(32)
            count = 200 if smoke else CLI_SAMPLES
            estimate = sampling.estimate_payoff(g, player, "mpw", count, sample_seed)
            self._add(["sample", "--game", paths[name], "--target", "mpw", "--player",
                       str(player), "--samples", str(count), "--seed", str(sample_seed)],
                      fingerprint(g),
                      _emitted({"mean": estimate.mean, "std_error": estimate.std_error,
                                "samples": estimate.n_samples, "seed": estimate.seed,
                                "generator": estimate.generator}),
                      reason=Sample._check(estimate, tux_games.mpw_value(g)[player]))
        players = "1,2,3"
        mask = partitions.mask_from(int(x) for x in players.split(","))
        self._add(["enumerate", "--players", players, "--embedded"], players,
                  _emitted({"embedded": [
                      {"S": formats.coalition_to_list(S), "pi": formats.partition_to_lists(pi)}
                      for S, pi in partitions.enumerate_embedded(mask)]}))
        # one untimed invocation so the bytecode caches exist before timing
        run_child([sys.executable, "-m", "pfgames.cli", "enumerate", "--players", "1"])

    def _add(self, args, inputs: str, stdout: bytes, returncode: int = 0, reason=None):
        """Add one command; ``reason`` is a failure the in-process answer already has."""
        argv = [str(a) for a in args]
        label = " ".join(Path(a).stem if isinstance(a, Path) else a for a in args)
        expected = CliResult(returncode, stdout)

        def call():
            proc = run_child([sys.executable, "-m", "pfgames.cli", *argv])
            return CliResult(proc.returncode, proc.stdout)

        def trace_call(tracer, spans_path, origin):
            totals = self.dir / "child-totals.json"
            proc = run_child([sys.executable, str(ROOT / "perfbench" / "cli_child.py"),
                              str(totals), str(spans_path), origin, *argv])
            tracer.merge(json.loads(totals.read_text()))
            totals.unlink()
            return CliResult(proc.returncode, proc.stdout)

        def check(result, res):
            if reason is not None:
                return f"in-process answer: {reason}"
            if result.returncode != expected.returncode:
                return f"exit code {result.returncode}, expected {expected.returncode}"
            if result.stdout != expected.stdout:
                return "stdout differs from the in-process answer"
            return None

        self.ops.append(Op(label, call, check, f"{inputs} exit={returncode}",
                           trace_call=trace_call))

    def close(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


WORKLOADS = {w.name: w for w in (Solve, Verify, Sample, Cli)}

