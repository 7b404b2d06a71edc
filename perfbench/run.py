"""domkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout; domkit is imported from its ``src/`` and
nowhere else.  One process, one thread, closed loop: each case starts when
the previous one has finished.  ``--trace 0`` repeats the case list for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs the list
once untraced and once traced, writes the spans and prints the per-layer
metrics.  Every end-to-end time is scaled to a fixed host speed by a
reference loop timed next to it (see ``reference_loop``).  The last line
of stdout is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED_DIR = os.path.join(HERE, "expected")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WARMUP_CASES = 5
REFERENCE_ROUNDS = 1000
# The scale of every reported time: seconds on a host that runs the
# reference loop in exactly this long (about 1 ms on the 2-vCPU host where
# the benchmark was defined, which swings between 0.5 and 1 ms with its load).
REFERENCE_LOOP_S = 0.001


def import_domkit():
    """Import domkit afresh from the checkout's src/ (setup time includes this)."""
    for name in [n for n in sys.modules if n == "domkit" or n.startswith("domkit.")]:
        del sys.modules[name]
    dk = importlib.import_module("domkit")
    importlib.import_module("domkit.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(dk.__file__))) != SRC:
        raise ImportError(f"domkit was imported from {dk.__file__}, not from {SRC}")
    return dk


def load_expected(workload):
    """The stored seed-commit answers of one workload, by case key."""
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Outcomes of every case run: failures per run, disagreements per case."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.disagreeing: set[str] = set()
        self.notes: list[str] = []

    def record(self, case, out, raised):
        self.attempted += 1
        if raised:
            errors, disagreements = [f"raised {out!r}"], []
        else:
            try:
                outcome = case.check(out)
            except Exception as exc:  # a malformed output is a failed case
                errors, disagreements = [f"output check raised {exc!r}"], []
            else:
                errors, disagreements = outcome.errors, outcome.disagreements
                if outcome.answer is not None and self.expected.get(case.key) != outcome.answer:
                    errors.append(f"answer {outcome.answer} differs from the seed-commit table "
                                  f"{self.expected.get(case.key)}")
        if errors:
            self.failed += 1
        if disagreements:
            self.disagreeing.add(case.key)
        for note in errors + disagreements:
            if len(self.notes) < 20:
                self.notes.append(f"{case.key}: {note}")


def reference_loop():
    """Seconds taken by a fixed pure-Python loop that uses nothing of domkit.

    A shared host's speed swings by up to 2x within seconds, and this loop
    slows and speeds up with it, so timing it next to each case measures the
    host's speed at that moment.
    """
    start = time.perf_counter()
    m, bits, buckets = 0, 0, {}
    for i in range(REFERENCE_ROUNDS):
        m = (m * 31 + i) & 0xFFFFF
        buckets[m & 255] = buckets.get(m & 255, 0) + (m >> 3)
        bits += bin(m).count("1")
    return time.perf_counter() - start


def scaled(seconds, loop_before, loop_after):
    """``seconds`` at the reference speed, from the reference loops around it."""
    return seconds * 2 * REFERENCE_LOOP_S / (loop_before + loop_after)


def run_pass(cases, order, tally):
    """Run every case once in ``order``; (scaled, wall) per-case seconds, indexed like ``cases``.

    The reference loop runs before the first case and after every case, and
    each case's wall time is scaled by the two loops around it.
    """
    gc.collect()  # every pass starts from the same heap, whatever ran before it
    clock = time.perf_counter
    wall = [0.0] * len(cases)
    latency = [0.0] * len(cases)
    before = reference_loop()
    for i in order:
        case = cases[i]
        start = clock()
        try:
            out = case.call()
            raised = False
        except (Exception, SystemExit) as exc:  # a crashing case is a failed case
            out, raised = exc, True
        wall[i] = clock() - start
        after = reference_loop()
        latency[i] = scaled(wall[i], before, after)
        before = after
        tally.record(case, out, raised)
    return latency, wall


def setup(workload, seed, work_dir):
    """Import afresh, build and write the seeded inputs, warm up; (cases, scaled seconds)."""
    gc.collect()  # start each repeat from the same heap, free of the last one's cases
    before = reference_loop()
    start = time.perf_counter()
    dk = import_domkit()
    cases = workloads.build(workload, dk, seed, work_dir)
    for case in cases[:WARMUP_CASES]:
        case.check(case.call())
    seconds = time.perf_counter() - start
    return cases, scaled(seconds, before, reference_loop())


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


def end_to_end(args, cases, order, tally, redo_setup, setup_times):
    """Repeat the case list while another pass still fits in ``--seconds``.

    One more setup runs after every pass, so that the setup median, like the
    per-case medians, spans the whole run rather than its first second.
    """
    passes, walls = [], []
    longest = 0.0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        latency, wall = run_pass(cases, order, tally)
        passes.append(latency)
        walls.append(sum(wall))
        setup_times.append(redo_setup())
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() - started + longest > args.seconds:
            break
    per_case = sorted(statistics.median(column) for column in zip(*passes))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_case), "s"),
        "case_ms_p50": (statistics.median(per_case) * 1e3, "ms"),
        "case_ms_p90": (nearest_rank(per_case, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = [f"passes {len(passes)} of {len(cases)} cases, "
               f"setup repeated {len(setup_times)} times",
               "unscaled pass walls " + " ".join(f"{w:.3f}" for w in walls) + " s"]
    return metrics, summary


def traced(args, cases, order, tally):
    untraced_wall = sum(run_pass(cases, order, tally)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_wall = sum(run_pass(cases, order, tally)[0])
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_file)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    summary = [f"spans written to {os.path.relpath(span_file, ROOT)}",
               f"tracing overhead {traced_wall - untraced_wall:.4f} s "
               f"(traced wall {traced_wall:.4f} s - untraced wall {untraced_wall:.4f} s)"]
    for ratio, (num, base) in tracing.RATIO_BASES.items():
        summary.append(f"{ratio} = {metrics[num][0]:g} / {metrics[base][0]:g}")
    return metrics, summary


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "domkit", "__init__.py")):
        print(f"error: no domkit sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tally = Tally(load_expected(args.workload))
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            cases, seconds = setup(args.workload, args.seed, work_dir)
            setup_times.append(seconds)
        order = list(range(len(cases)))
        random.Random(f"order-{args.seed}").shuffle(order)
        if args.trace:
            metrics, summary = traced(args, cases, order, tally)
        else:
            # the passes keep the cases of the last setup before the loop; the
            # repeats between passes only time the work
            metrics, summary = end_to_end(
                args, cases, order, tally,
                lambda: setup(args.workload, args.seed, work_dir)[1], setup_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = tally.failed == 0 and not tally.disagreeing
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in summary:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {tally.failed / max(tally.attempted, 1):14.6g} ratio "
          f"({tally.failed} / {tally.attempted} case runs)")
    print(f"  {'oracle_disagreements':40s} {len(tally.disagreeing):14d} count")
    for note in tally.notes:
        print(f"problem: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so each reports its own peak RSS."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
