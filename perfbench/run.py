"""Run one pfgames benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload solve|verify|sample|cli|all \\
        --seed N --seconds S --trace 0|1

One client in one process runs a closed loop: the next operation starts
when the last returns. The workload's round of operations is repeated, in a
seeded order, until ``--seconds`` have passed and at least 100 operations
ran; rounds always complete, so every run has the same mix. After each round
every result is checked against an exact oracle (untimed).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
times half the budget untraced, then one round with the layer wrappers of
``tracer.py`` installed, and reports the per-layer metrics per round. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

The benchmark measures the checkout it sits in: it imports pfgames from
``src/`` next to this directory and refuses to run without it.
"""

import os
import time
from fractions import Fraction

CAL_REFERENCE_S = 1e-3
CAL_REPEATS = 5


def calibration_s() -> float:
    """Duration of a fixed pure-Python loop of exact Fraction sums and dict stores.

    The shared machines this runs on change speed by up to 2x within a
    minute. Each timed duration is divided by the calibration durations
    measured right around it and multiplied by CAL_REFERENCE_S, so times are
    reported in seconds of a reference machine on which this loop takes
    exactly 1 ms. pfgames code never runs inside the loop.
    """
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[i & 63] = acc
    return time.perf_counter() - t0


def calibration_median() -> float:
    return sorted(calibration_s() for _ in range(CAL_REPEATS))[CAL_REPEATS // 2]


# One client on one CPU: children inherit the affinity, so the calibration
# loop and every operation it scales run on the same core.
NPROC = len(os.sched_getaffinity(0))
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
CAL_AT_START = calibration_median()
T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_REPEATS = 3
PROBE_REPEATS = 5
MAX_REPORTED_FAILURES = 10
WORKLOAD_NAMES = ("solve", "verify", "sample", "cli")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_pfgames():
    """Import pfgames from this checkout's src/, never from an installed copy."""
    if not (SRC / "pfgames" / "__init__.py").is_file():
        raise BenchmarkError(f"no pfgames sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pfgames

    if not Path(pfgames.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"pfgames imported from {pfgames.__file__}, not from {SRC}")
    return pfgames


def benchmark_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


# --- one round -------------------------------------------------------------


def scaled(seconds: float, *calibrations: float) -> float:
    """A duration in seconds of the reference machine (see calibration_s)."""
    return seconds * CAL_REFERENCE_S * len(calibrations) / sum(calibrations)


def run_round(workload, index, tracer=None, spans_path=None, calibrate=False):
    """Run the round's operations back to back.

    Returns (ops, results, latencies, errors, scaled latencies); with
    ``calibrate`` a calibration loop runs between operations and each
    latency is also scaled by the two calibrations around it.
    """
    ops = workload.order(index)
    results, latencies, errors, scaled_latencies = {}, [], {}, []
    clock = time.perf_counter
    cal_before = calibration_s() if calibrate else None
    for op in ops:
        t0 = clock()
        try:
            if tracer is not None and op.trace_call is not None:
                results[op.label] = op.trace_call(tracer, spans_path, op.label)
            else:
                results[op.label] = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            errors[op.label] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        if calibrate:
            cal_after = calibration_s()
            scaled_latencies.append(scaled(latencies[-1], cal_before, cal_after))
            cal_before = cal_after
    return ops, results, latencies, errors, scaled_latencies


def corrupt(result):
    """A deliberately wrong copy of a result, or None if this type has no fault."""
    from pfgames import sampling, verify
    from workloads import CliResult

    if isinstance(result, bool):
        return not result
    if isinstance(result, dict) and result and isinstance(next(iter(result.values())), Fraction):
        first = min(result)
        return {**result, first: result[first] + 1}
    if isinstance(result, verify.Report):
        return dataclasses.replace(result, passed=not result.passed)
    if isinstance(result, sampling.SampleEstimate):
        return dataclasses.replace(result, mean=result.mean + 1 + 10 * result.std_error)
    if isinstance(result, CliResult):
        return CliResult(result.returncode + 1, result.stdout)
    return None


class Tally:
    """Counts of attempted, failed and known-defect operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.known_labels = set()
        self.reported = 0
        self.reference = None

    def judge(self, ops, results, errors, inject_fault=False):
        """Check one round's results; the first round becomes the reference."""
        judged = dict(results)
        if inject_fault:
            for op in ops:
                if op.check is None or op.known_defect is not None:
                    continue
                wrong = corrupt(results.get(op.label))
                if wrong is not None:
                    judged[op.label] = wrong
                    break
        for op in ops:
            self.attempted += 1
            reason = errors.get(op.label)
            if reason is None and op.check is not None:
                try:
                    reason = op.check(judged[op.label], judged)
                except Exception as exc:  # a check that cannot run counts against the op
                    reason = f"oracle raised {type(exc).__name__}: {exc}"
            if reason is None and self.reference is not None:
                if judged[op.label] != self.reference.get(op.label):
                    reason = "differs from the same operation in the first round"
            if reason is None:
                continue
            if op.known_defect is not None:
                self.known += 1
                self.known_labels.add(op.label)
                continue
            self.failed += 1
            if self.reported < MAX_REPORTED_FAILURES:
                self.reported += 1
                print(f"FAIL {op.label}: {reason}", file=sys.stderr)
        if self.reference is None:
            self.reference = results


# --- measured runs -----------------------------------------------------------


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_run(workload, args, setup):
    tally = Tally()
    wall, latencies = [], []
    rounds = 0
    min_ops = 1 if args.smoke else MIN_OPS
    t_loop = time.perf_counter()
    while True:
        ops, results, lat, errors, lat_scaled = run_round(workload, rounds, calibrate=True)
        tally.judge(ops, results, errors, args.inject_fault)
        wall.extend(lat)
        latencies.extend(lat_scaled)
        rounds += 1
        if time.perf_counter() - t_loop >= args.seconds and len(latencies) >= min_ops:
            break
    elapsed = time.perf_counter() - t_loop
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup] + [
        setup_in_child(args) for _ in range(1 if args.smoke else SETUP_REPEATS - 1)
    ]
    n = len(latencies)
    values = {
        "ops_per_s": (n / sum(latencies), "1/s", n),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", n),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms", n),
        "error_rate": ((tally.failed + tally.known) / tally.attempted, "ratio", tally.attempted),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_s": (statistics.median(s for s, _ in setups), "s", len(setups)),
        "wall.ops_per_s": (n / sum(wall), "1/s", n),
        "wall.latency_p50_ms": (statistics.median(wall) * 1e3, "ms", n),
        "wall.latency_p90_ms": (percentile(wall, 90) * 1e3, "ms", n),
        "wall.setup_s": (statistics.median(w for _, w in setups), "s", len(setups)),
    }
    header = (f"{workload.name} seed={args.seed}: {rounds} rounds, {n} ops, {elapsed:.1f} s; "
              f"times scaled to a {CAL_REFERENCE_S * 1e3:g} ms calibration loop, "
              "wall.* unscaled")
    return tally, values, header


def traced_run(workload, args):
    import tracer as tracing

    tally = Tally()
    round_times = []
    t_loop = time.perf_counter()
    while not round_times or time.perf_counter() - t_loop < args.seconds / 2:
        ops, results, lat, errors, _ = run_round(workload, 0)
        tally.judge(ops, results, errors, args.inject_fault)
        round_times.append(sum(lat))
    spans_path = ROOT / ".perfbench" / f"spans-{workload.name}.tsv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops, results, lat, errors, _ = run_round(workload, 0, tracer, spans_path)
    finally:
        tracer.remove()
    # the untraced first round is the reference, so this also checks that
    # tracing left every output unchanged
    tally.judge(ops, results, errors, args.inject_fault)
    tracer.write_spans(spans_path, workload.name)
    overhead = sum(lat) / statistics.median(round_times)

    totals = tracer.totals()
    values = {}
    for group, *_ in tracing.LAYERS:
        values[f"{group}.calls"] = (totals["calls"].get(group, 0), "count", 1)
        values[f"{group}.self_s"] = (totals["self_s"].get(group, 0.0), "s", 1)
    values["verify.checked"] = (totals["checked"], "count", 1)
    values["verify.checked_per_s"] = (
        totals["checked"] / totals["checked_s"] if totals["checked_s"] else 0.0, "1/s", 1)
    values["sampling.samples_per_s"] = (
        totals["samples"] / totals["sample_s"] if totals["sample_s"] else 0.0, "1/s", 1)
    values.update(startup_probes())
    values["trace.overhead_ratio"] = (overhead, "ratio", len(round_times))
    header = (f"{workload.name} seed={args.seed}: traced 1 round of {len(ops)} ops "
              f"after {len(round_times)} untraced; spans in {spans_path.relative_to(ROOT)}")
    return tally, values, header


# --- child processes -----------------------------------------------------------


def setup_in_child(args) -> tuple[float, float]:
    """Set the workload up in a fresh interpreter; returns (scaled, wall) seconds."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        argv.append("--smoke")
    proc = run_child(argv)
    if proc.returncode != 0:
        raise BenchmarkError(f"setup child failed: {proc.stderr.decode().strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["wall_setup_s"]


def _importtime(stderr: str) -> tuple[float, float]:
    """(pfgames import ms, numpy import ms) from ``-X importtime`` output."""
    pfgames_us = numpy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name_field = parts[2]
        name = name_field.strip()
        top_level = len(name_field) - len(name_field.lstrip()) == 1
        if top_level and name in ("pfgames", "pfgames.cli"):
            pfgames_us += int(parts[1])
        if name == "numpy":
            numpy_us = int(parts[1])
    return pfgames_us / 1e3, numpy_us / 1e3


def startup_probes():
    """Interpreter start and ``import pfgames.cli`` cost, each in fresh processes."""
    from workloads import run_child

    bare, imports, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        bare.append((time.perf_counter() - t0) * 1e3)
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import pfgames.cli"])
        stderr = proc.stderr.decode()
        if proc.returncode != 0:
            raise BenchmarkError(f"import probe failed: {stderr.strip()[-500:]}")
        pf_ms, np_ms = _importtime(stderr)
        imports.append(pf_ms)
        numpy.append(np_ms)
    return {
        "cli.interpreter_ms": (statistics.median(bare), "ms", PROBE_REPEATS),
        "cli.import_ms": (statistics.median(imports), "ms", PROBE_REPEATS),
        "cli.import_numpy_ms": (statistics.median(numpy), "ms", PROBE_REPEATS),
    }


# --- reporting ---------------------------------------------------------------


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(pfgames_module):
    import numpy

    src_lines = sum(
        len(path.read_text().splitlines()) for path in (SRC / "pfgames").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "commit": git_commit(),
        "src_lines": src_lines,
        "pfgames": str(Path(pfgames_module.__file__).resolve().relative_to(ROOT)),
    }


def select_metrics(values, spec_metrics):
    """The metrics BENCHMARK.json names, with the units it gives them."""
    metrics = {}
    for entry in spec_metrics:
        value, unit, _ = values[entry["name"]]
        if unit != entry["unit"]:
            raise BenchmarkError(f"{entry['name']}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return metrics


def print_summary(header, values, tally):
    print(header)
    width = max(len(name) for name in values)
    for name, (value, unit, count) in values.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={count}")
    if tally.known:
        print(f"  known-defect failures: {tally.known} of {tally.attempted} ops "
              f"({', '.join(sorted(tally.known_labels))})")
    print(f"  failed (unexpected): {tally.failed} of {tally.attempted} ops")


def run_workload(args) -> int:
    pfgames = load_pfgames()
    spec = benchmark_spec()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wall_setup_s = time.perf_counter() - T_START
    setup_s = scaled(wall_setup_s, CAL_AT_START, calibration_median())
    try:
        if len({op.label for op in workload.ops}) != len(workload.ops):
            raise BenchmarkError(f"{args.workload}: operation labels are not unique")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
            return 0
        if args.trace:
            tally, values, header = traced_run(workload, args)
            wanted = spec["per_layer"]
        else:
            tally, values, header = untraced_run(workload, args, (setup_s, wall_setup_s))
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    print_summary(header, values, tally)
    print("env " + json.dumps(environment(pfgames), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": select_metrics(values, wanted),
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print their results together."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        if args.inject_fault:
            argv.append("--inject-fault")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no minimum op count, for self-tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one answer per round, to prove the oracles can fail")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
