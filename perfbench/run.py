"""dehncalc benchmark: one seeded, closed-loop workload per invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller runs operations back to back in this process, each starting
after the previous one returns, with DEHNCALC_THREADS unset.  Operations
call ``dehncalc.cli.main(argv)`` with stdout captured, or the library
functions where no verb exists, so interpreter start-up stays out of the
per-operation times and is measured once, as ``setup_s``.

--trace 0 times whole rounds until S seconds have been spent inside
dehncalc and prints the end-to-end metrics.  --trace 1 runs the
workload's fixed number of rounds twice, untraced and then traced with
the span recorder of ``spans.py``, checks that both runs produced the
same output bytes, and prints the per-layer metrics.  Every output is
checked against the generator's own reference values.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are scaled to a reference machine speed: operation
times by a calibration kernel timed around every call, and ``setup_s``
by a reference interpreter start timed next to each measured start (see
README.md, "Noise").  The unscaled values are in the record line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

SETUP_PAIRS = 15
SETUP_CODE = "from dehncalc.cli import main; main(['--help'])"
# A start of the same kind as SETUP_CODE's (exec, unmarshalling, module
# code) that does not depend on dehncalc: the standard-library modules
# dehncalc imported when the benchmark was written.
REFERENCE_CODE = ("import argparse, concurrent.futures, dataclasses, enum, "
                  "json, random, re, typing")
# Near REFERENCE_CODE's median start time in a quiet period, on the
# machine where the benchmark was written.
REFERENCE_START_S = 0.045
WARMUP_OPS = 2

# Near the calibration kernel's median time, in a quiet period, on the
# machine where the benchmark was written (2-vCPU x86_64 VM, CPython
# 3.11.7); scaled times read as wall-clock times there at that speed.
KERNEL_REF_S = 0.0015
_KERNEL_A = 3 ** 2000
_KERNEL_B = 7 ** 1200

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SELF_TIME_SPANS = (
    "cli.main", "reports.emit_report",
    "parsing.parse_link_expr", "parsing.parse_manifold_expr",
    "slopes.continued_fraction", "links.link_determinant",
    "cover.double_branched_cover", "manifolds.h1",
    "manifolds.classify_finite_type", "manifolds.manifold_compare",
    "families.verify_family", "diagrams.oracle_cross_check",
    "diagrams.build", "diagrams.faces", "diagrams.checkerboard",
    "diagrams.goeritz_matrix", "diagrams.exact_determinant",
)
CALL_SPANS = (
    "parsing.parse_link_expr", "parsing.parse_manifold_expr",
    "manifolds.manifold_compare", "families.verify_family",
    "diagrams.exact_determinant",
)
COUNTERS = {
    "diagrams.crossings": "count", "diagrams.white_faces": "count",
    "diagrams.matrix_nonzeros": "count", "diagrams.det_bits": "bit",
    "reports.bytes_out": "byte",
}
CHECK_KINDS = ("wellformed", "distance", "reducible", "finite_type",
               "distinct")
CHECK_OUTCOMES = ("pass", "fail", "indeterminate")
SUMMAND_COUNTS = range(2, 9)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {f"{s}.self_s": "s" for s in SELF_TIME_SPANS}
    units.update({f"{s}.calls": "count" for s in CALL_SPANS})
    units.update(COUNTERS)
    units["manifolds.compare_calls_per_pair"] = "count/pair"
    units.update({f"manifolds.compare_calls_per_pair.n{n}": "count/pair"
                  for n in SUMMAND_COUNTS})
    units["families.constructor_calls_per_point"] = "count/point"
    units["families.lens_space_calls_per_point.cyclic"] = "count/point"
    units.update({f"families.checks.{k}.{o}": "count"
                  for k in CHECK_KINDS for o in CHECK_OUTCOMES})
    units["trace.overhead"] = "ratio"
    return units


def kernel_s() -> float:
    """Time of a fixed mix of allocation, small-integer and big-integer
    work, which tracks the speed the machine gives this process now."""
    gc.disable()
    try:
        start = perf_counter()
        table = {i: (i * i, str(i)) for i in range(1500)}
        total = 0
        for i in range(10000):
            total += i * i
        x = _KERNEL_A
        for _ in range(40):
            x = (x * _KERNEL_B) >> 3300
        return perf_counter() - start
    finally:
        gc.enable()


class SpeedScale:
    """Scales a call's time by KERNEL_REF_S over the mean kernel time
    just before and just after the call."""

    def __init__(self) -> None:
        self.kernels = [kernel_s()]

    def __call__(self, elapsed: float) -> float:
        self.kernels.append(kernel_s())
        return elapsed * 2 * KERNEL_REF_S / sum(self.kernels[-2:])


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Outcome of running a sequence of operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.busy_s = 0.0
        self.scaled_s = 0.0
        self.samples_ms: list[float] = []
        self.raw_samples_ms: list[float] = []
        self.sizes: Counter = Counter()
        self.digest = hashlib.sha256()
        self.scale = SpeedScale()

    def run(self, op) -> None:
        elapsed, text, value = op.call()
        scaled = self.scale(elapsed)
        problems = op.check(text, value)
        self.digest.update(text.encode("utf-8"))
        self.busy_s += elapsed
        self.scaled_s += scaled
        if op.latency_sample:
            self.samples_ms.append(scaled * 1000 / op.units)
            self.raw_samples_ms.append(elapsed * 1000 / op.units)
        self.attempted += op.units
        self.failed += len(problems)
        if problems and text != op.tolerated:
            self.unexpected.extend(problems)
        self.sizes.update(op.sizes)


def _start_s(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``.  ``-S`` skips
    the site module, whose .pth hooks depend on the environment."""
    start = perf_counter()
    # No timeout: waiting with one polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-S", "-c", code], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return perf_counter() - start


def measure_setup() -> tuple[float, dict]:
    """Set-up time of a fresh interpreter that imports dehncalc and
    builds the CLI parser (``--help``), scaled to the reference speed.

    Each measured start is paired with a reference start, in alternating
    order, and the result is REFERENCE_START_S times the median ratio of
    the two.  Both starts of a pair see the same machine speed, so the
    ratio holds where the raw times swing.  One start of each kind runs
    unmeasured first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DEHNCALC_THREADS", None)
    _start_s(SETUP_CODE, env)
    _start_s(REFERENCE_CODE, env)
    setup, reference = [], []
    for i in range(SETUP_PAIRS):
        order = [(SETUP_CODE, setup), (REFERENCE_CODE, reference)]
        for code, times in order[::-1] if i % 2 else order:
            times.append(_start_s(code, env))
    ratio = statistics.median(s / r for s, r in zip(setup, reference))
    return REFERENCE_START_S * ratio, {
        "setup_s": statistics.median(setup),
        "reference_start_s": statistics.median(reference),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_end_to_end(workload, rng, seconds: float) -> tuple[Tally, dict, dict]:
    setup_s, raw_setup = measure_setup()
    warm = Tally()
    for op in workload.make_round(random.Random(f"{workload.name}:warm-up"),
                                  WORK_DIR, -1)[:WARMUP_OPS]:
        warm.run(op)
    tally = Tally()
    rounds = 0
    while tally.busy_s < seconds:
        for op in workload.make_round(rng, WORK_DIR, rounds):
            tally.run(op)
        rounds += 1
    tail = percentile(tally.samples_ms, workload.tail_pct)
    values = {
        "setup_s": setup_s,
        "ops_per_s": tally.attempted / tally.scaled_s,
        "op_p50_ms": percentile(tally.samples_ms, 50),
        "op_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "rounds": rounds,
        "wall_s": tally.busy_s,
        "latency_samples": len(tally.samples_ms),
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(1 for x in tally.samples_ms if x > tail),
        "warm_up_ops": WARMUP_OPS,
        "unscaled": {
            **raw_setup,
            "ops_per_s": tally.attempted / tally.busy_s,
            "op_p50_ms": percentile(tally.raw_samples_ms, 50),
            "op_tail_ms": percentile(tally.raw_samples_ms, workload.tail_pct),
        },
        "kernel_ms_median": statistics.median(tally.scale.kernels) * 1000,
    }
    tally.unexpected[:0] = warm.unexpected
    return tally, {k: (v, END_TO_END[k]) for k, v in values.items()}, record


def run_traced(workload, rng) -> tuple[Tally, dict, dict]:
    import spans

    rounds = workload.trace_rounds
    ops = [op for i in range(rounds)
           for op in workload.make_round(rng, WORK_DIR, i)]
    warm = Tally()
    for op in ops[:WARMUP_OPS]:
        warm.run(op)
    plain = Tally()
    for op in ops:
        plain.run(op)

    recorder = spans.Recorder()
    spans.install(recorder, spans.TARGETS)
    watched = ("manifolds.manifold_compare",
               *(f"manifolds.{c}" for c in spans.CONSTRUCTORS))
    by_group: Counter = Counter()
    traced = Tally()
    for op in ops:
        before = {name: recorder.calls[name] for name in watched}
        traced.run(op)
        for name in watched:
            by_group[op.group, name] += recorder.calls[name] - before[name]
        by_group[op.group, "units"] += op.units

    if traced.digest.digest() != plain.digest.digest():
        traced.unexpected.append("traced stdout differs from untraced stdout")
    traced.unexpected[:0] = warm.unexpected + plain.unexpected

    units = per_layer_units()
    values = {name: 0 for name in units}
    for span in SELF_TIME_SPANS:
        values[f"{span}.self_s"] = recorder.self_s.get(span, 0.0)
    for span in CALL_SPANS:
        values[f"{span}.calls"] = recorder.calls[span]
    for name in list(COUNTERS) + [n for n in units if ".checks." in n]:
        values[name] = recorder.counts[name]

    def ratio(groups, name):
        units_sum = sum(by_group[g, "units"] for g in groups)
        calls = sum(by_group[g, name] for g in groups)
        return calls / units_sum if units_sum else 0

    compare = "manifolds.manifold_compare"
    values["manifolds.compare_calls_per_pair"] = ratio(
        [f"summands.{n}" for n in SUMMAND_COUNTS], compare)
    for n in SUMMAND_COUNTS:
        values[f"manifolds.compare_calls_per_pair.n{n}"] = ratio(
            [f"summands.{n}"], compare)
    families = {g for g, _ in by_group if g.startswith("family.")}
    values["families.constructor_calls_per_point"] = sum(
        ratio(families, f"manifolds.{c}") for c in spans.CONSTRUCTORS)
    values["families.lens_space_calls_per_point.cyclic"] = ratio(
        ["family.cyclic"], "manifolds.lens_space")
    values["trace.overhead"] = traced.scaled_s / plain.scaled_s - 1
    record = {"rounds": rounds, "untraced_s": plain.busy_s,
              "traced_s": traced.busy_s}
    return traced, {k: (values[k], u) for k, u in units.items()}, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dehncalc" / "__init__.py").is_file():
        print(f"error: no dehncalc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DEHNCALC_THREADS", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    rng = random.Random(f"{workload.name}:{args.seed}")
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            tally, metrics, record = run_traced(workload, rng)
        else:
            tally, metrics, record = run_end_to_end(workload, rng, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for problem in tally.unexpected[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)
    record.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "error_rate": tally.failed / tally.attempted,
        "work": dict(sorted(tally.sizes.items())),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
    })
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
