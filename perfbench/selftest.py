"""Self-tests of the benchmark harness.

Usage: python3 perfbench/selftest.py

1. A tiny smoke run of each workload, untraced and traced, emits every
   metric BENCHMARK.json names, with its unit, and no failed operation.
2. One deliberately corrupted answer per round (a flipped payoff, a flipped
   verdict, a shifted estimate, a wrong exit code) is counted as failed,
   which proves each workload's oracle can fail.
3. The same seed gives the same operation list and inputs; another seed
   gives different ones.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "verify", "sample", "cli")


def run(workload, *extra):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "0", "--smoke", *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} {extra}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result, wanted, context):
    got = result["metrics"]
    for entry in wanted:
        metric = got.get(entry["name"])
        assert metric is not None, f"{context}: {entry['name']} missing"
        assert metric["unit"] == entry["unit"], f"{context}: {entry['name']} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{context}: {entry['name']} not a number"
    assert set(got) == {entry["name"] for entry in wanted}, f"{context}: extra metrics"


def test_smoke_runs_emit_every_metric(spec):
    for workload in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = run(workload, "--trace", trace)
            context = f"{workload} trace={trace}"
            check_metrics(result, wanted, context)
            assert result["correct"] and result["failed"] == 0, f"{context}: {result}"
            assert result["attempted"] >= 1, context


def test_corrupted_answers_are_counted(spec):
    for workload in WORKLOADS:
        result = run(workload, "--trace", "0", "--inject-fault")
        assert result["failed"] >= 1 and not result["correct"], f"{workload}: {result}"


def test_same_seed_same_ops():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        first, again, other = (cls(seed, smoke=True) for seed in (3, 3, 4))
        try:
            assert first.describe() == again.describe(), name
            order = [op.label for op in first.order(0)]
            assert order == [op.label for op in again.order(0)], name
            assert (first.describe(), order) != (
                other.describe(), [op.label for op in other.order(0)]), name
        finally:
            for w in (first, again, other):
                w.close()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tests = [
        lambda: test_smoke_runs_emit_every_metric(spec),
        lambda: test_corrupted_answers_are_counted(spec),
        test_same_seed_same_ops,
    ]
    names = ["smoke runs emit every metric", "corrupted answers are counted",
             "same seed gives the same op list"]
    failures = 0
    for name, test in zip(names, tests):
        try:
            test()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
