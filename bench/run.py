"""Benchmark of the dilatio CLI pipelines, driven from the repository's src.

    python3 bench/run.py --workload semigroup-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One closed-loop client: each CLI call waits for the previous one.  With
--trace 0 every call runs as its own child process, timed from outside,
and the run reports the end-to-end metrics.  With --trace 1 the same
pipelines run in-process through dilatio.cli.main, once plain and once
with every layer function wrapped in a span recorder, and the run reports
per-layer self times and call counts.  Rounds repeat until the next one
would pass --seconds; every metric is the median over rounds.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy is first imported, below, and the
# child processes inherit it: never more threads than this process's cores.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import monotonic, perf_counter  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import FUNCTIONS, LAYERS, Recorder, aggregate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# `dilatio check` runs this many times over the channel files; setup_s is the median.
SETUP_REPEATS = 5
# A child still running this long after the start is killed (and fails),
# so that the whole run ends within 180 s.
RUN_LIMIT_S = 170.0
# Permutations of one control word must print states this close.
PERMUTATION_TOL = 1e-12

END_TO_END = {
    "setup_s": "s",
    "dilate_s": "s",
    "verify_s": "s",
    "evolve_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "bundle_bytes": "bytes",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


@dataclass
class Call:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0


class Children:
    """Runs each CLI call as a child process, timed from outside; its peak
    RSS comes from the child's own rusage."""

    def __init__(self, work: Path, deadline: float):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.out, self.err = work / "stdout.txt", work / "stderr.txt"
        self.deadline = deadline

    def __call__(self, argv) -> Call:
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dilatio.cli", *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(seconds, proc.returncode, self.out.read_text(), self.err.read_text(),
                    usage.ru_maxrss / 1024.0)


class InProcess:
    """Runs each CLI call through dilatio.cli.main in this process."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from dilatio import cli

        self.main = cli.main

    def __call__(self, argv) -> Call:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an escaped exception is exit 1, as in a child
                traceback.print_exc()
                code = 1
        return Call(perf_counter() - start, code, out.getvalue(), err.getvalue())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    defects: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # (label, fault, reason) -> count


@dataclass
class Pipeline:
    seconds: dict
    wall: float
    rss_mb: float
    bundle_bytes: int


def _passes(report: str) -> bool:
    try:
        return json.loads(report).get("pass") is True
    except (ValueError, AttributeError):
        return False


def certify(plan, run, tally: Tally) -> float:
    """`dilatio check` on every channel file; returns the summed wall time."""
    total = 0.0
    for channel in plan.channels:
        call = run(("check", str(channel)))
        total += call.seconds
        if call.code != 0 or not _passes(call.stdout):
            tally.defects.append(f"check {channel.name}: exit {call.code}, {call.stdout.strip()}")
    return total


def run_pipeline(plan, run, tally: Tally) -> Pipeline:
    """One round: every operation of the plan, checked as it completes."""
    seconds = {"dilate": 0.0, "verify": 0.0, "evolve": 0.0}
    wall, rss, bundle_bytes = 0.0, 0.0, 0
    groups: dict[str, list] = {}
    for op in plan.ops:
        call = run(op.argv)
        tally.attempted += 1
        wall += call.seconds
        rss = max(rss, call.rss_mb)
        if op.kind in seconds:
            seconds[op.kind] += call.seconds
        if op.kind == "dilate" and op.bundle.exists():
            bundle_bytes = op.bundle.stat().st_size
        reason = None
        if call.code != 0:
            lines = call.stderr.strip().splitlines()
            reason = f"exit {call.code}: {lines[-1] if lines else ''}"
        else:
            try:
                miss, defects = op.check(call.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
            else:
                tally.defects.extend(f"{op.label}: {d}" for d in defects)
                if miss > oracle.TOL:
                    reason = f"misses the oracle by {miss:.3e} in trace norm"
                elif op.group:
                    groups.setdefault(op.group, []).append(workloads.read_state(call.stdout))
        if reason:
            tally.failed += 1
            tally.failures[(op.label, op.known_fault, reason)] += 1
    for group, states in groups.items():
        spread = max(oracle.trace_norm(s - states[0]) for s in states)
        if spread > PERMUTATION_TOL:
            tally.defects.append(f"words {group} differ by {spread:.3e} across permutations")
    return Pipeline(seconds, wall, rss, bundle_bytes)


def _rounds(seconds: float, round_once) -> None:
    """Run rounds until the next one, at the median round time, would end
    after ``seconds``; at least one."""
    start, durations = perf_counter(), []
    while True:
        t0 = perf_counter()
        round_once(len(durations))
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def measure_end_to_end(plan, work: Path, seconds: float, tally: Tally) -> dict:
    run = Children(work, monotonic() + RUN_LIMIT_S)
    setup = statistics.median(certify(plan, run, tally) for _ in range(SETUP_REPEATS))
    rounds: list[Pipeline] = []
    _rounds(seconds, lambda _: rounds.append(run_pipeline(plan, run, tally)))

    def med(values):
        return statistics.median(list(values))

    return {
        "setup_s": setup,
        "dilate_s": med(r.seconds["dilate"] for r in rounds),
        "verify_s": med(r.seconds["verify"] for r in rounds),
        "evolve_s": med(r.seconds["evolve"] for r in rounds),
        "pipeline_s": med(sum(r.seconds.values()) for r in rounds),
        "peak_rss_mb": med(r.rss_mb for r in rounds),
        "bundle_bytes": med(r.bundle_bytes for r in rounds),
    }


def measure_layers(plan, seconds: float, tally: Tally, spans_path: Path) -> dict:
    run, recorder = InProcess(), Recorder()
    plain_walls, traced_walls, coverage, self_times, call_counts = [], [], [], [], []

    def one_pass(traced: bool):
        begin = len(recorder.spans)
        with recorder.instrument() if traced else nullcontext():
            wall = certify(plan, run, tally) + run_pipeline(plan, run, tally).wall
        if not traced:
            plain_walls.append(wall)
            return
        self_s, calls, covered = aggregate(recorder.spans, begin)
        traced_walls.append(wall)
        coverage.append(covered / wall)
        self_times.append(self_s)
        call_counts.append(calls)

    def round_once(index: int):
        # alternate which pass goes first, so neither always runs warm
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            one_pass(traced)

    _rounds(seconds, round_once)
    spans_path.write_text(json.dumps({"layers": LAYERS, "spans": recorder.spans}), encoding="ascii")
    if any(c != call_counts[0] for c in call_counts):
        print("warning: function call counts differ between traced passes", file=sys.stderr)

    for function in FUNCTIONS:  # per-function detail for the reader, not a metric
        if function in call_counts[0]:
            median_self = statistics.median(s.get(function, 0.0) for s in self_times)
            print(f"  span {function:42s} self {median_self:.6f} s, {call_counts[0][function]} calls")
    metrics = {}
    for layer, functions in LAYERS.items():
        metrics[f"{layer}.self_s"] = statistics.median(
            sum(s.get(f, 0.0) for f in functions) for s in self_times)
        metrics[f"{layer}.calls"] = sum(call_counts[0].get(f, 0) for f in functions)
    traced, plain = statistics.median(traced_walls), statistics.median(plain_walls)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    metrics["trace.coverage_pct"] = 100.0 * statistics.median(coverage)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    print(f"{name}: seed {seed}, {'traced in-process' if trace else 'child processes'}, "
          f"BLAS threads {BLAS_THREADS}")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    try:
        plan = workloads.make_plan(name, work, seed, toy)
        if trace:
            spans_path = WORK / f"spans-{name}-seed{seed}.json"
            values = measure_layers(plan, seconds, tally, spans_path)
            units = PER_LAYER
        else:
            values = measure_end_to_end(plan, work, seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    drift = oracle.damping_self_check()
    if drift > 1e-12:
        tally.defects.append(f"oracle self-check: damping powers off the closed form by {drift:.3e}")

    for metric, unit in units.items():
        print(f"  {metric:44s} {values[metric]:.10g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for (label, fault, reason), count in sorted(tally.failures.items(), key=str):
        cause = f"known fault {fault}: {workloads.KNOWN_FAULTS[fault]}" if fault else "UNEXPECTED"
        print(f"  failed {count}x {label}: {reason} [{cause}]")
    for defect in dict.fromkeys(tally.defects):
        print(f"  INCORRECT {defect}")
    return {
        "correct": not tally.defects,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every workload for the harness smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dilatio" / "cli.py").is_file():
        print(f"no dilatio sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.size == "toy")
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
