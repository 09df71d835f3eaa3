"""Timing passes over a workload's steps and turning them into metrics."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

# an op is timed again, in later rounds of the pass, until its samples
# add up to this many seconds or there are MAX_SAMPLES of them, so cheap
# ops get a steadier median
REPEAT_SECONDS = 1.0
MAX_SAMPLES = 5


@dataclass
class Pass:
    """One run through every step: timings, fingerprints and failures."""

    samples: list = field(default_factory=list)  # per step, (start, end) of each call
    fingerprints: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # step index -> traceback
    problems: dict = field(default_factory=dict)  # step index -> failed check

    @property
    def elapsed(self) -> float:
        return sum(end - start for spans in self.samples for start, end in spans)


def run_pass(workload, check=None, repeat: bool = True) -> Pass:
    """Run every step once, then, when ``repeat`` is set, re-run the cheap
    ops in further rounds, so that an op's samples are spread over the
    pass.  Only the call into negdep is timed, output capture included.
    ``check(index, output)``, when given, runs right after a step's first
    sample and returns the step's problem or None; the output is dropped
    then, and later samples must repeat its fingerprint."""
    steps = workload.steps
    out = Pass(samples=[[] for _ in steps], fingerprints=[None] * len(steps))
    gc.collect()
    clock = time.perf_counter

    def sample(index: int) -> None:
        start = clock()
        try:
            result = steps[index].run()
        except Exception:  # an op that raises is a failed op; keep going
            out.errors[index] = traceback.format_exc(limit=4)
            return
        finally:
            out.samples[index].append((start, clock()))
        fingerprint = workload.fingerprint(result)
        if out.samples[index][1:]:
            if fingerprint != out.fingerprints[index]:
                out.errors[index] = "output changed between repeats"
            return
        out.fingerprints[index] = fingerprint
        problem = check(index, result) if check else None
        if problem:
            out.problems[index] = problem

    for index in range(len(steps)):
        sample(index)
    for _ in range(MAX_SAMPLES - 1 if repeat else 0):
        todo = [
            index for index, step in enumerate(steps)
            if step.is_op and index not in out.errors
            and sum(end - start for start, end in out.samples[index]) < REPEAT_SECONDS
        ]
        for index in todo:
            sample(index)
    return out


def failed_ops(workload, passes: list) -> set:
    """(pass, step) pairs that failed: raised, failed a check on the first
    pass, or did not repeat the first pass's output exactly."""
    first = passes[0]
    failed = set()
    for p, run in enumerate(passes):
        for index, step in enumerate(workload.steps):
            if not step.is_op:
                continue
            if (
                index in run.errors
                or index in first.problems
                or run.fingerprints[index] != first.fingerprints[index]
            ):
                failed.add((p, index))
    return failed


def step_medians(workload, passes: list, meter=None) -> list:
    """Each step's median time over all its samples in all passes; with a
    ``meter``, each sample is first rescaled to the reference speed."""
    def seconds(start, end):
        return meter.seconds(start, end) if meter else end - start

    return [
        statistics.median(seconds(*span) for run in passes for span in run.samples[index])
        for index in range(len(workload.steps))
    ]


def time_metrics(workload, passes: list, meter) -> dict:
    """wall_s is the sum of every step's median time; op latencies are the
    median and p90 over ops of each op's median time.  All at the
    reference speed (see speed.py)."""
    medians = step_medians(workload, passes, meter)
    per_op = [t for t, step in zip(medians, workload.steps) if step.is_op]
    return {
        "wall_s": sum(medians),
        "op_p50_s": statistics.median(per_op),
        "op_p90_s": statistics.quantiles(per_op, n=10)[-1],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(negdep) -> dict:
    import numpy

    bitops = negdep.bitops
    return {
        "caps": {name: bitops.cap(name) for name in bitops._DEFAULT_CAPS},
        "NEGDEP_MAX_N": os.environ.get("NEGDEP_MAX_N"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def report_problems(workload, passes, limit: int = 5) -> None:
    """Print the first few failures to stderr."""
    shown = 0
    for index, message in sorted(passes[0].problems.items()):
        print(f"check failed: {message}", file=sys.stderr)
        shown += 1
        if shown >= limit:
            return
    for p, run in enumerate(passes):
        for index, message in sorted(run.errors.items()):
            print(f"pass {p} step {workload.steps[index].label} raised:\n{message}",
                  file=sys.stderr)
            shown += 1
            if shown >= limit:
                return
