"""Hand mutants of the checkers, each run against the tier-1 suite.

A mutant replaces one exact snippet of a file by another. For each mutant the
probe copies the repository (without ``.git`` and caches) to a temporary
directory and applies the mutant there. It runs the test that pins the
mutant first; only when that test passes does it run the whole tier-1 suite
on the copy with ``-x``. A mutant is killed when either run fails. Every
mutant not marked equivalent must be killed: a survivor is a comparison or
branch that no test pins. An equivalent mutant changes no result, so it is
expected to survive; its ``pinned_by`` says why, and it goes straight to the
suite. Before any mutant, the pinned tests run once on an unmutated copy and
must pass, so a pinned test that fails was failed by its mutant.

A pinned test that kills its mutant takes a few seconds; the suite takes
about 35 s per survivor on two cores. Run from the repository root, for
every mutant or for the named ones:

    python tests/mutation_probe.py
    python tests/mutation_probe.py V5 V6

It prints one line per mutant, with the run that killed it, and a summary,
and exits 1 when a mutant that is not equivalent survives. pytest does not
collect this file.
"""

import contextlib
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
PARTS = "src/pfgames/partitions.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    pinned_by: str  # the node id of the test that kills it, or why it changes no result
    equivalent: bool = False


MUTANTS = [
    Mutant("V5", VERIFY,
           "for k in sorted(lhs_row.keys() | rhs_row.keys()):",
           "for k in sorted(lhs_row.keys() | rhs_row.keys())[:1]:",
           "tests/test_verify.py::"
           "test_path_dependence_past_the_first_cell_of_a_row_fails_path_independence"),
    Mutant("V6", VERIFY,
           "        return solution(null_player_witness(N, i, pi, B))[i] != 0",
           "        return solution(null_player_witness(N, i, pi, B))[i] > 0",
           "tests/test_verify.py::"
           "test_null_player_check_flags_negative_payoffs_like_positive_ones"),
    Mutant("showcase-sign", VERIFY,
           "        checked += 1\n        if payoff != 0 and witness is None:",
           "        checked += 1\n        if payoff > 0 and witness is None:",
           "tests/test_verify.py::test_null_player_check_flags_the_showcase_game_either_sign"),
    Mutant("gen-note", VERIFY,
           '        witness = dict(witness, note="routes disagree with block-probability")\n',
           "        pass\n",
           "tests/test_verify.py::"
           "test_gen_notes_routes_that_disagree_while_block_probability_holds"),
    Mutant("bool", OPS,
           "    def __bool__(self):\n"
           '        raise TypeError("the truth value of a worth depends on the game")\n',
           "",
           "tests/test_verify.py::"
           "test_rules_that_branch_on_a_worth_fail_linearity_at_once[truth-test]"),
    Mutant("eq", OPS,
           "    def __eq__(self, other):\n"
           '        raise TypeError("comparing worths is not linear")\n',
           "",
           "tests/test_verify.py::"
           "test_rules_that_branch_on_a_worth_fail_linearity_at_once[equality]"),
    Mutant("neg", OPS,
           "        return self * -1", "        return self * 1",
           "tests/test_verify.py::"
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("sub", OPS,
           "        return self + -other", "        return self + other",
           "tests/test_verify.py::"
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("rsub", OPS,
           "        return -self + other", "        return self + other",
           "tests/test_verify.py::"
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("truediv", OPS,
           "        return self * Fraction(1, k)", "        return self * k",
           "tests/test_verify.py::"
           "test_a_linear_rule_written_with_subtraction_and_division_passes"),
    Mutant("unknown-op", CLI,
           '    raise ValueError(f"unknown operator spec {spec!r}")',
           "    return None",
           "tests/test_cli.py::test_spec_errors_exit_two_naming_the_spec_or_option"),
    Mutant("unknown-solution", CLI,
           '    raise ValueError(f"unknown solution spec {spec!r}")',
           "    return None, spec",
           "tests/test_cli.py::test_spec_errors_exit_two_naming_the_spec_or_option"),
    Mutant("float", CLI,
           "    return float(x) if as_float else formats.format_rational(x)",
           "    return formats.format_rational(x)",
           "tests/test_cli.py::test_float_prints_decimals"),
    Mutant("entries-array", FORMATS,
           '        if not isinstance(table.get("entries", []), list):\n'
           "            raise ValueError(f\"table #{pos}: 'entries' must be an array\")\n",
           "",
           "tests/test_formats.py::test_family_table_whose_entries_is_not_an_array_is_refused"),
    Mutant("null-player-sign", PARTS,
           "    return tuple(classes)\n",
           "    (k,) = _placement_positions(mask, i)[-1][1]  # the cell (N - i, ({i},))\n"
           "    classes[k] = k\n"
           "    return tuple(classes)\n",
           "tests/test_integer_kernels.py::"
           "test_null_player_kernel_equals_the_placement_loop_on_games_null_but_at_one_cell"),
    Mutant("run-sums-first-cell", LAWS,
           "coefficients, nums[p.start:p.stop]",
           "coefficients[1:], nums[p.start + 1:p.stop]",
           "tests/test_integer_kernels.py::test_partition_function_kernels_equal_their_"
           "fraction_references[pstar]"),
    Mutant("apply-scale-dropped", LAWS,
           "[scale * sum(map(operator.mul, coefficients",
           "[sum(map(operator.mul, coefficients",
           "tests/test_integer_kernels.py::test_partition_function_kernels_equal_their_"
           "fraction_references[pstar]"),
    Mutant("apply-range-offset", LAWS,
           "nums[p.start:p.stop]",
           "nums[p.start + 1:p.stop]",
           "tests/test_integer_kernels.py::test_slicing_a_range_row_equals_gathering_it[pstar]"),
    Mutant("block-runs-first-block", LAWS,
           "                    for C in rho:",
           "                    for C in rho[:1]:",
           "tests/test_integer_kernels.py::test_block_run_weights_are_the_law_at_the_"
           "partitions_with_the_block[pstar]"),
    Mutant("block-runs-scale", LAWS,
           "tuple(weights), s * math.comb(n, s)))",
           "tuple(weights), 1))",
           "tests/test_integer_kernels.py::test_partition_function_kernels_equal_their_"
           "fraction_references[pstar]"),
    Mutant("externality-free-ends", TUX,
           "        if run.count(run[0]) != len(run):",
           "        if run[-1] != run[0]:",
           "tests/test_tux_games.py::"
           "test_one_changed_cell_in_a_coalitions_run_has_externalities[prefix]"),
    Mutant("ci-largest-block", VERIFY,
           "        for B in sorted(pi, key=int.bit_count, reverse=True):",
           "        for B in sorted(pi, key=int.bit_count, reverse=True)[:1]:",
           "tests/test_exact_outputs.py::test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("ci-one-sided", VERIFY,
           "            yield pi, B, p * rest_den == q * mass.get(B, 0)",
           "            yield pi, B, p * rest_den <= q * mass.get(B, 0)",
           "tests/test_inclusion_kernels.py::test_integer_verdicts_equal_the_public_helpers"),
    Mutant("pos-zero", VERIFY,
           "        if witness is None and min(nums) <= 0:",
           "        if witness is None and min(nums) < 0:",
           "tests/test_inclusion_kernels.py::"
           "test_family_check_reports_equal_the_fraction_references"
           "[eps:4=1/8-check_pos-ref_check_pos]"),
    Mutant("monotonicity-first-block", VERIFY,
           "            for B, p in zip(pi, probs):",
           "            for B, p in zip(pi[:1], probs):",
           "tests/test_exact_outputs.py::test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("monotonicity-one-sided", VERIFY,
           "                yield i, pi, B, p * (n - b) == b * (total - p)",
           "                yield i, pi, B, p * (n - b) >= b * (total - p)",
           "tests/test_acceptance.py::test_criterion_09_null_player_selects_the_crp_law"),
    Mutant("res-first-read", VERIFY,
           "        for k in positions:",
           "        for k in positions[:1]:",
           "tests/test_verify.py::test_a_non_local_read_after_a_local_one_fails_locality"),
    Mutant("res-past-first-read", VERIFY,
           "        for k in positions:",
           "        for k in positions[1:]:",
           "tests/test_exact_outputs.py::test_exact_outputs_match_the_fixture_byte_for_byte"),
    Mutant("eager-verify", CLI,
           "from . import formats, partitions, random_partitions, tu_games, tux_games\n",
           "from . import formats, partitions, random_partitions, tu_games, tux_games, verify\n",
           "tests/test_import_budget.py::"
           "test_command_loads_only_the_modules_it_runs[enumerate --players 1,2,3 --embedded]"),
    Mutant("row-sign-outside", VERIFY,
           "w[t - 1] if k >> j & 1 else -w[t])",
           "w[t - 1] if k >> j & 1 else w[t])",
           "tests/test_verify.py::test_each_row_times_the_worths_is_n_factorial_den_"
           "times_the_payoff[mpw]"),
    Mutant("row-weight-off-by-one", VERIFY,
           "w[t - 1] if k >> j & 1 else -w[t])",
           "w[t] if k >> j & 1 else -w[t])",
           "tests/test_verify.py::test_each_row_times_the_worths_is_n_factorial_den_"
           "times_the_payoff[mpw]"),
    Mutant("row-scan-sign", VERIFY,
           "sum(map(row.__getitem__, grown)) != 0",
           "sum(map(row.__getitem__, grown)) > 0",
           "tests/test_verify.py::test_row_route_flags_a_first_witness_that_pays_a_"
           "negative_amount"),
    Mutant("row-without-grown", VERIFY,
           "row[inside] + sum(map(row.__getitem__, grown)) != 0",
           "row[inside] != 0",
           "tests/test_verify.py::test_row_route_reports_equal_the_dense_route[mpw]"),
    Mutant("showcase-dropped", VERIFY,
           "    if n_max >= 4:\n        showcase = tux_games.productive_pair_game()",
           "    if False:\n        showcase = tux_games.productive_pair_game()",
           "tests/test_verify.py::test_null_player_witness_count_is_predicted_before_the_check"),
    Mutant("lin-probe-numerator", VERIFY,
           "[den // k for k in range(1, K + 1)]",
           "[den // (k + 1) for k in range(1, K + 1)]",
           "tests/test_verify.py::test_integer_lin_probe_equals_the_fraction_built_probe[2]"),
    Mutant("rp-rest-cell", OPS,
           "weights[k - cells.start]",
           "weights[at]",
           "tests/test_integer_kernels.py::test_rp_removal_matrices_equal_the_with_block_"
           "reference[eps:4=1/24]"),
    Mutant("rule-den-dropped", OPS,
           "return total * Fraction(1, (w.n - S.bit_count()) * w.den)",
           "return total * Fraction(1, w.n - S.bit_count())",
           "tests/test_integer_kernels.py::test_built_in_rules_on_numerators_equal_their_"
           "worth_references[rstar]"),
    Mutant("form-lcm-dropped", OPS,
           "            big = {cell: x * (den // self.den) for cell, x in big.items()}\n"
           "            small = {cell: x * (den // other.den) for cell, x in small.items()}\n",
           "",
           "tests/test_verify.py::test_rules_over_several_denominators_or_on_numerators_"
           "pass[mixed-denominators]"),
    Mutant("form-fraction-den", OPS,
           "                           self.den * q)",
           "                           self.den)",
           "tests/test_integer_kernels.py::test_custom_rules_over_several_denominators_equal_"
           "the_eager_reference[numerators]"),
    Mutant("lazy-lcm-fold", OPS,
           "(positions, coefficients, step // d)",
           "(positions, coefficients, 1)",
           "tests/test_integer_kernels.py::test_auxiliary_map_equals_the_pull_back_through_"
           "whole_removal_matrices[rp:eps:4=1/24-5]"),
    Mutant("lazy-zero-reads", OPS,
           "                    read = dict(zip(row, self._removal_rows(M, h, row)))\n",
           "                    row = {p: c for p, c in row.items() if c}\n"
           "                    read = dict(zip(row, self._removal_rows(M, h, row)))\n",
           "tests/test_integer_kernels.py::test_every_auxiliary_route_raises_the_positivity_"
           "error_of_the_first_zero_cell_read"),
    Mutant("rows-unreduced", OPS,
           "                if g != 1:\n",
           "                if False:\n",
           "tests/test_integer_kernels.py::test_removal_matrices_equal_the_eager_reference_"
           "fresh_and_after_the_auxiliary_map[rp:pstar-(1, 2, 3, 4, 5)]"),
    Mutant("rows-wrong-key", OPS,
           "        rows = self._rows.setdefault((players, i), {})\n",
           "        rows = self._rows.setdefault(players & ~(1 << i), {})\n",
           "tests/test_integer_kernels.py::test_removal_matrices_taken_after_the_auxiliary_map_"
           "equal_a_fresh_operators"),
    Mutant("aux-run-order", OPS,
           "table.append((run, tuple(map(row.get, run)), 1)",
           "table.append((run, tuple(row.values()), 1)",
           "tests/test_integer_kernels.py::test_auxiliary_map_equals_the_pull_back_through_"
           "whole_removal_matrices[rstar-5]"),
    Mutant("matrix-rescale-dropped", OPS,
           "x * (den // d) for q, x in zip(positions, coefficients) if x}",
           "x for q, x in zip(positions, coefficients) if x}",
           "tests/test_integer_kernels.py::test_removal_matrices_equal_the_eager_reference_"
           "fresh_and_after_the_auxiliary_map[rstar-(1, 2, 3)]"),
    Mutant("matrix-zeros-kept", OPS,
           "            if d != den or 0 in coefficients:",
           "            if d != den:",
           "tests/test_integer_kernels.py::test_removal_matrices_equal_the_eager_reference_"
           "fresh_and_after_the_auxiliary_map[rp:skewed-(0, 1, 2, 3)]"),
    Mutant("placements-order", PARTS,
           "        if B & -B < bit:",
           "        if B & -B > bit:",
           "tests/test_partitions.py::test_placements_keep_blocks_canonical"),
    Mutant("validate-negative", LAWS,
           "    if min(nums) < 0:",
           "    if min(nums) < -1:",
           "tests/test_random_partitions.py::test_a_custom_rule_is_validated_like_a_table[negative]"),
    Mutant("validate-sum", LAWS,
           "    if total != den:",
           "    if total > den:",
           "tests/test_inclusion_kernels.py::test_validation_messages_are_unchanged"),
    Mutant("eps-unperturbed", LAWS,
           "        if n <= 3 or eps_n == 0:",
           "        if n >= 4 or eps_n == 0:",
           "tests/test_random_partitions.py::test_eps_law_equals_its_docstring_closed_form"),
    Mutant("after-zeros", LAWS,
           "            row = {k: x for k, x in row.items() if x}\n",
           "",
           "a zero coefficient in a composed row changes no comparison of the PI check",
           equivalent=True),
]


def _ignore(directory, names):
    return {name for name in names
            if name in (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench")}


@contextlib.contextmanager
def _copy(mutant: Mutant | None = None):
    """(copy, env): a copy of the repository, with the mutant applied if one
    is given, and the environment that imports pfgames from it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"mutant {mutant.name}: the snippet to replace occurs "
                                 f"{text.count(mutant.old)} times in {mutant.path}, not once")
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        yield copy, env


def _pytest(copy: Path, env: dict, *args) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def check_pins(mutants) -> None:
    """Every pinned test exists and passes on the repository as it is, so a
    pinned test that fails on a mutant was failed by the mutant."""
    pins = sorted({m.pinned_by for m in mutants if not m.equivalent})
    with _copy() as (copy, env):
        if pins and _pytest(copy, env, *pins):
            raise SystemExit("a pinned test is missing or fails without a mutant: "
                             f"python -m pytest {' '.join(pins)}")


def run(mutant: Mutant) -> tuple[str | None, float]:
    """(the run that killed the mutant, or None, seconds): its pinned test,
    then the tier-1 suite, on a mutated copy of the repository."""
    with _copy(mutant) as (copy, env):
        start = time.perf_counter()
        if not mutant.equivalent and _pytest(copy, env, mutant.pinned_by):
            return "pinned", time.perf_counter() - start
        killer = "suite" if _pytest(copy, env) else None
        return killer, time.perf_counter() - start


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    check_pins(chosen)
    killed = survived = gaps = 0
    for mutant in chosen:
        killer, seconds = run(mutant)
        killed += killer is not None
        survived += killer is None
        gaps += killer is None and not mutant.equivalent
        verdict = f"killed by {killer}" if killer else "survived"
        kind = " (equivalent)" if mutant.equivalent else ""
        print(f"{verdict:16} {mutant.name:28} {mutant.path}  {seconds:5.1f} s{kind}  "
              f"{mutant.pinned_by}", flush=True)
    print(f"{len(chosen)} mutants: {killed} killed, {survived} survived, "
          f"{gaps} of them not equivalent")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
