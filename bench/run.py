"""Benchmark runner for idomlab: one workload, one process, one answer at a time.

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``src/idomlab`` from it.
The loop is closed with one client: each ``idomlab.cli.main(argv)`` call
starts when the previous one has returned, in this process, with no
threads and ``--workers 1``.  Rounds of a fresh set-up and one pass over
every answer run until the next round would end after ``--seconds``.  Each
answer is checked after it returns, outside the timed region.  Times are
reported in reference seconds (see ``REFERENCE_S``), and each answer's time
is its median over the run's passes.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones.  With ``--trace 1`` each pass runs twice, untraced and then traced, and
the metrics are the per-layer ones; spans and their rollup are written under
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import tracer as tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

SETUPS_PER_ROUND = 5
SMOKE_ANSWERS = 5

# The host is shared: for tens of seconds at a time the same Python code runs
# up to twice as slow, in CPU time as much as in wall time.  So the runner
# times a fixed reference kernel between answers (at most every
# REFERENCE_EVERY_S) and around every set-up, and reports each time in
# reference seconds: the time, times REFERENCE_S, over the mean of the
# kernel's times just before and just after it.  REFERENCE_S is about the
# kernel's median time on the 2-vCPU Intel Xeon VM the benchmark was written
# on, so reference seconds read roughly as seconds there.
REFERENCE_S = 0.0005
REFERENCE_EVERY_S = 0.05


@dataclass
class Outcome:
    latency: float
    delivered: bool
    wrong: Optional[str] = None


@dataclass
class Measurement:
    # latencies[k] holds answer k's latency in reference seconds, one per pass
    latencies: list[list[float]] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)  # reference seconds
    pass_walls: list[float] = field(default_factory=list)  # seconds, as measured
    references: list[float] = field(default_factory=list)  # the kernel's times

    @property
    def passes_run(self) -> int:
        return len(self.pass_walls)

    @property
    def scaled_pass_wall(self) -> float:
        """The mean time of a pass, in reference seconds."""
        return sum(sum(samples) for samples in self.latencies) / self.passes_run

    @property
    def typical_latencies(self) -> list[float]:
        """Each answer's median latency over the passes run, in reference seconds."""
        return [statistics.median(samples) for samples in self.latencies]


def _descend(n: int, acc: int) -> int:
    return acc if n == 0 else _descend(n - 1, acc ^ n << 3)


def _reference_kernel() -> int:
    """A fixed mix of what the solvers do: integer and dict work, sorting and
    list building, bitset rows, and recursion."""
    total = 0
    table = {}
    for i in range(1500):
        total += i * i % 7
        table[i % 97] = total
    buckets: dict[int, list[int]] = {}
    for value in sorted((i * 7919) % 10007 for i in range(1000)):
        buckets.setdefault(value & 63, []).append(value)
    covered = 0
    for row in [1 << (i * 37) % 200 | 1 << (i * 53) % 200 for i in range(200)]:
        if row & ~covered:
            covered |= row
            total += 1
    for _ in range(3):
        total += _descend(150, 0)
    return total + len(buckets)


def reference() -> float:
    """The reference kernel's time now: the mean of five calls."""
    start = perf_counter()
    for _ in range(5):
        _reference_kernel()
    return (perf_counter() - start) / 5


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` in reference seconds, from the kernel's times before and after it."""
    return elapsed * REFERENCE_S * 2 / (before + after)


class ReferenceClock:
    """Reference-kernel times taken between timed intervals, with when each ended."""

    def __init__(self, result: Measurement) -> None:
        self.result = result
        self.ends: list[float] = []
        self.values: list[float] = []
        self.sample()

    def sample(self, at_least_every: float = 0.0) -> None:
        if self.ends and perf_counter() - self.ends[-1] < at_least_every:
            return
        self.values.append(reference())
        self.ends.append(perf_counter())
        self.result.references.append(self.values[-1])

    def scale(self, elapsed: float, start: float, end: float) -> float:
        """``elapsed``, timed from ``start`` to ``end``, in reference seconds; needs a sample since."""
        before = self.values[bisect.bisect_right(self.ends, start) - 1]
        after = self.values[bisect.bisect_left(self.ends, end)]
        return scaled(elapsed, before, after)


def import_idomlab() -> dict[str, Any]:
    """Import idomlab afresh from the checkout, so each set-up pays for it."""
    for name in [name for name in sys.modules if name == "idomlab" or name.startswith("idomlab.")]:
        del sys.modules[name]
    importlib.import_module("idomlab.cli")
    return tracing.modules_of()


def set_up(
    workload: str, seed: int, workdir: Path, repeats: int, result: Measurement
) -> tuple[dict[str, Any], workloads.Plan]:
    """Import idomlab and build the plan ``repeats`` times, timing each; return the last."""
    clock = ReferenceClock(result)
    for _ in range(repeats):
        started = perf_counter()
        lab = import_idomlab()
        plan = workloads.build(workload, seed, lab, workdir)
        ended = perf_counter()
        clock.sample()
        result.setup_times.append(clock.scale(ended - started, started, ended))
    return lab, plan


def call(cli: Any, argv: list[str]) -> tuple[float, Any, str, Optional[str]]:
    """One answer: (latency, exit code, stdout, escaped exception name)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    code: Any = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an exception escaping main is a failed answer
            error = type(exc).__name__
        latency = perf_counter() - start
    return latency, code, stdout.getvalue(), error


def run_pass(
    cli: Any,
    plan: workloads.Plan,
    answers: list[workloads.Answer],
    result: Measurement,
    tracer: Optional[tracing.Tracer] = None,
) -> None:
    checked: dict[Any, list[tuple[workloads.Answer, Any]]] = {}
    outcomes: list[Outcome] = []
    intervals: list[tuple[float, float]] = []
    clock = ReferenceClock(result)
    for answer in answers:
        if tracer is not None:
            tracer.start_answer(answer.label)
        started = perf_counter()
        latency, code, stdout, error = call(cli, answer.argv)
        intervals.append((started, perf_counter()))
        if tracer is not None:
            tracer.answer = None
        clock.sample(at_least_every=REFERENCE_EVERY_S)
        outcome = Outcome(latency, delivered=error is None and code == 0)
        if outcome.delivered:
            try:
                value = answer.check(stdout)
            except workloads.Mismatch as exc:
                outcome.delivered, outcome.wrong = False, f"{answer.argv}: {exc}"
            else:
                if answer.group is not None:
                    checked.setdefault(answer.group, []).append((answer, value))
        outcomes.append(outcome)
    clock.sample()
    for group, members in checked.items():
        try:
            plan.check_group(members)
        except workloads.Mismatch as exc:
            for outcome, answer in zip(outcomes, answers):
                if answer.group == group:
                    outcome.delivered, outcome.wrong = False, f"group {group}: {exc}"
    if not result.latencies:
        result.latencies = [[] for _ in answers]
    for samples, outcome, (started, ended) in zip(result.latencies, outcomes, intervals):
        samples.append(clock.scale(outcome.latency, started, ended))
    result.pass_walls.append(sum(outcome.latency for outcome in outcomes))
    result.outcomes.extend(outcomes)


def measure(
    workload: str,
    seed: int,
    workdir: Path,
    seconds: float,
    smoke: bool = False,
    tracer: Optional[tracing.Tracer] = None,
) -> tuple[Measurement, Measurement]:
    """Run rounds until the next one would end after ``seconds``; at least one runs.

    A round is a set-up (idomlab imported afresh and the plan built,
    ``SETUPS_PER_ROUND`` times, each timed) and one pass over every
    answer with that fresh import, so no pass sees what an earlier pass left
    in the program's caches.  With a tracer, each round also runs the pass a
    second time, traced; the second measurement holds the traced passes.
    """
    untraced, traced = Measurement(), Measurement()
    started = perf_counter()
    longest = 0.0
    while True:
        round_started = perf_counter()
        gc.collect()  # the modules of the last round's import go before this one starts
        lab, plan = set_up(workload, seed, workdir, 1 if smoke else SETUPS_PER_ROUND, untraced)
        answers = plan.answers[:SMOKE_ANSWERS] if smoke else plan.answers
        run_pass(lab["cli"], plan, answers, untraced)
        if tracer is not None:
            tracer.install(lab)
            try:
                run_pass(lab["cli"], plan, answers, traced, tracer)
            finally:
                tracer.uninstall()
        now = perf_counter()
        longest = max(longest, now - round_started)
        if smoke or now - started + longest > seconds:
            return untraced, traced


def environment(seed: int, workload: str) -> dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(result: Measurement) -> dict[str, float]:
    """The end-to-end metrics, from each answer's median latency in the run."""
    typical = result.typical_latencies
    delivered = sum(outcome.delivered for outcome in result.outcomes)
    return {
        "wall_s": sum(typical),
        "answer_p50_s": statistics.median(typical),
        "answer_p90_s": statistics.quantiles(typical, n=10, method="inclusive")[8],
        "delivered_ratio": delivered / len(result.outcomes),
        "setup_s": statistics.median(result.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


END_TO_END_UNITS = {
    "wall_s": "s",
    "answer_p50_s": "s",
    "answer_p90_s": "s",
    "delivered_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"one set-up and the first {SMOKE_ANSWERS} answers of one pass; no timing loop",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "idomlab" / "cli.py").is_file():
        sys.stderr.write(f"no idomlab sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    os.chdir(ROOT)
    os.environ.pop("IDOMLAB_CAP", None)  # every command passes --cap itself
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"

    try:
        if not args.trace:
            result, _ = measure(args.workload, args.seed, workdir, args.seconds, smoke=args.smoke)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(result).items()}
        else:
            tracer = tracing.Tracer()
            lab = import_idomlab()
            tracer.install(lab)
            try:
                tracer.answer = "setup"
                workloads.build(args.workload, args.seed, lab, workdir)
                tracer.answer = None
            finally:
                tracer.uninstall()
            untraced, traced = measure(args.workload, args.seed, workdir, args.seconds, args.smoke, tracer)
            # Spans are as measured, so the traced pass time they add up to is too.  The
            # overhead compares two passes run at different moments, so it is taken in
            # reference seconds.
            overhead = traced.scaled_pass_wall - untraced.scaled_pass_wall
            layer_metrics = tracing.rollup(tracer.spans, tracer.labels, traced.passes_run,
                                           sum(traced.pass_walls) / traced.passes_run, overhead)
            OUT.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(OUT / f"trace-{stem}.jsonl")
            with open(OUT / f"rollup-{stem}.json", "w", encoding="utf-8") as handle:
                rollup = {"environment": environment(args.seed, args.workload),
                          "traced_passes": traced.passes_run, "metrics": layer_metrics}
                json.dump(rollup, handle, indent=1, sort_keys=True)
            result = Measurement(outcomes=untraced.outcomes + traced.outcomes,
                                 pass_walls=untraced.pass_walls + traced.pass_walls,
                                 references=untraced.references + traced.references)
            metrics = {
                name: (layer_metrics[name], tracing.metric_unit(name))
                for name in tracing.per_layer_metric_names()
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [outcome.wrong for outcome in result.outcomes if outcome.wrong]
    for reason in wrong[:10]:
        sys.stderr.write(f"wrong answer: {reason}\n")
    as_measured = {"pass_wall_s": statistics.median(result.pass_walls),
                   "reference_kernel_s": statistics.median(result.references)}
    print(json.dumps({"environment": environment(args.seed, args.workload), "passes": result.passes_run,
                      "as_measured": as_measured}))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(result.outcomes),
                "failed": sum(not outcome.delivered for outcome in result.outcomes),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
