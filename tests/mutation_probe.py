"""Hand mutants of the checkers, each run against the tier-1 suite.

A mutant replaces one exact snippet of a file by another. For each mutant the
probe copies the repository (without ``.git`` and caches) to a temporary
directory, applies the mutant there, and runs the tier-1 suite on the copy
with ``-x``. A mutant is killed when the suite fails. Every mutant not marked
equivalent must be killed: a survivor is a comparison or branch that no test
pins. An equivalent mutant changes no result, so it is expected to survive.

The suite takes about 30 s per survivor on two cores; killed mutants stop at
the first failing test. Run from the repository root, for every mutant or
for the named ones:

    python tests/mutation_probe.py
    python tests/mutation_probe.py V5 V6

It prints one line per mutant and a summary, and exits 1 when a mutant that
is not equivalent survives. pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
VERIFY = "src/pfgames/verify.py"
OPS = "src/pfgames/restriction_ops.py"
CLI = "src/pfgames/cli.py"
FORMATS = "src/pfgames/formats.py"
TUX = "src/pfgames/tux_games.py"
LAWS = "src/pfgames/random_partitions.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    pinned_by: str  # the test that kills it, or why it changes no result
    equivalent: bool = False


MUTANTS = [
    Mutant("V5", VERIFY,
           "for k in sorted(lhs_row.keys() | rhs_row.keys()):",
           "for k in sorted(lhs_row.keys() | rhs_row.keys())[:1]:",
           "test_path_dependence_past_the_first_cell_of_a_row_fails_path_independence"),
    Mutant("V6", VERIFY,
           "                    if payoff != 0 and witness is None:",
           "                    if payoff > 0 and witness is None:",
           "test_null_player_check_flags_negative_payoffs_like_positive_ones"),
    Mutant("showcase-sign", VERIFY,
           "        checked += 1\n        if payoff != 0 and witness is None:",
           "        checked += 1\n        if payoff > 0 and witness is None:",
           "test_null_player_check_flags_the_showcase_game_either_sign"),
    Mutant("gen-note", VERIFY,
           '        witness = dict(witness, note="routes disagree with block-probability")\n',
           "        pass\n",
           "test_gen_notes_routes_that_disagree_while_block_probability_holds"),
    Mutant("bool", OPS,
           "    def __bool__(self):\n"
           '        raise TypeError("the truth value of a worth depends on the game")\n',
           "",
           "test_rules_that_branch_on_a_worth_fail_linearity_at_once[truth-test]"),
    Mutant("eq", OPS,
           "    def __eq__(self, other):\n"
           '        raise TypeError("comparing worths is not linear")\n',
           "",
           "test_rules_that_branch_on_a_worth_fail_linearity_at_once[equality]"),
    Mutant("neg", OPS,
           "        return self * -1", "        return self * 1",
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("sub", OPS,
           "        return self + -other", "        return self + other",
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("rsub", OPS,
           "        return -self + other", "        return self + other",
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("truediv", OPS,
           "        return self * Fraction(1, k)", "        return self * k",
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("unknown-op", CLI,
           '    raise ValueError(f"unknown operator spec {spec!r}")',
           "    return None",
           "test_spec_errors_exit_two_naming_the_spec_or_option"),
    Mutant("unknown-solution", CLI,
           '    raise ValueError(f"unknown solution spec {spec!r}")',
           "    return None, spec",
           "test_spec_errors_exit_two_naming_the_spec_or_option"),
    Mutant("float", CLI,
           "    return float(x) if as_float else formats.format_rational(x)",
           "    return formats.format_rational(x)",
           "test_float_prints_decimals"),
    Mutant("entries-array", FORMATS,
           '        if not isinstance(table.get("entries", []), list):\n'
           "            raise ValueError(f\"table #{pos}: 'entries' must be an array\")\n",
           "",
           "test_family_table_whose_entries_is_not_an_array_is_refused"),
    Mutant("null-player-sign", TUX,
           "            if nums[k] != x:",
           "            if nums[k] > x:",
           "test_null_player_kernel_equals_its_fraction_reference"),
    Mutant("run-sums-first-cell", TUX,
           "scale * sum(map(operator.mul, weights, run))",
           "scale * sum(map(operator.mul, weights[1:], run[1:]))",
           "tests/test_integer_kernels.py fails to collect (its rp:pstar fails GEN), "
           "then test_criterion_02_potential_routes"),
    Mutant("run-sums-first-cell-skip", TUX,
           "run)) if any(run) else 0)",
           "run)) if run[0] else 0)",
           "test_criterion_06_operator_potential_is_expected_worth"),
    Mutant("block-runs-first-block", LAWS,
           "                for k, B in enumerate(pi):",
           "                for k, B in enumerate(pi[:1]):",
           "tests/test_integer_kernels.py fails to collect (its rp:pstar fails GEN), "
           "then test_criterion_02_potential_routes"),
    Mutant("externality-free-ends", TUX,
           "        if run.count(run[0]) != len(run):",
           "        if run[-1] != run[0]:",
           "test_one_changed_cell_in_a_coalitions_run_has_externalities[prefix]"),
    Mutant("ci-largest-block", VERIFY,
           "        for B in sorted(pi, key=int.bit_count, reverse=True):",
           "        for B in sorted(pi, key=int.bit_count, reverse=True)[:1]:",
           "test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("ci-one-sided", VERIFY,
           "            yield pi, B, p * rest_den == q * mass.get(B, 0)",
           "            yield pi, B, p * rest_den <= q * mass.get(B, 0)",
           "test_integer_verdicts_equal_the_public_helpers"),
    Mutant("pos-zero", VERIFY,
           "        if witness is None and min(nums) <= 0:",
           "        if witness is None and min(nums) < 0:",
           "test_family_check_reports_equal_the_fraction_references"
           "[eps:4=1/8-check_pos-ref_check_pos]"),
    Mutant("monotonicity-first-block", VERIFY,
           "            for B, p in zip(pi, probs):",
           "            for B, p in zip(pi[:1], probs):",
           "test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("monotonicity-one-sided", VERIFY,
           "                yield i, pi, B, p * (n - b) == b * (total - p)",
           "                yield i, pi, B, p * (n - b) >= b * (total - p)",
           "test_criterion_09_null_player_selects_the_crp_law"),
    Mutant("res-first-read", VERIFY,
           "        for k in positions:",
           "        for k in positions[:1]:",
           "test_a_non_local_read_after_a_local_one_fails_locality"),
    Mutant("res-past-first-read", VERIFY,
           "        for k in positions:",
           "        for k in positions[1:]:",
           "test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("eager-verify", CLI,
           "from . import formats, partitions, random_partitions, tu_games, tux_games\n",
           "from . import formats, partitions, random_partitions, tu_games, tux_games, verify\n",
           "test_command_loads_only_the_modules_it_runs[enumerate --players 1,2,3 --embedded]"),
    Mutant("run-sums-skip", TUX,
           "run)) if any(run) else 0)",
           "run)))",
           "an all-zero run adds 0 to its sum, so skipping it only saves time",
           equivalent=True),
    Mutant("after-zeros", OPS,
           "inner.rows).items() if x}",
           "inner.rows).items()}",
           "a zero coefficient in a composed row changes no comparison of the PI check",
           equivalent=True),
]


def _ignore(directory, names):
    return {name for name in names
            if name in (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")}


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds): the tier-1 suite run on a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"mutant {mutant.name}: the snippet to replace occurs "
                             f"{text.count(mutant.old)} times in {mutant.path}, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return result.returncode != 0, time.perf_counter() - start


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    killed = survived = gaps = 0
    for mutant in chosen:
        dead, seconds = run(mutant)
        killed += dead
        survived += not dead
        gaps += not dead and not mutant.equivalent
        verdict = "killed" if dead else "survived"
        kind = " (equivalent)" if mutant.equivalent else ""
        print(f"{verdict:8} {mutant.name:28} {mutant.path}  {seconds:5.1f} s{kind}  "
              f"{mutant.pinned_by}", flush=True)
    print(f"{len(chosen)} mutants: {killed} killed, {survived} survived, "
          f"{gaps} of them not equivalent")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
