#!/usr/bin/env python3
"""negdep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a negdep source tree; negdep is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

import os

# single-threaded BLAS and the default enumeration caps, before numpy
# or negdep is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NEGDEP_MAX_N", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from benchlib import harness  # noqa: E402
from benchlib.speed import SpeedMeter  # noqa: E402
from benchlib.trace import Tracer, run_traced_pass  # noqa: E402
from benchlib.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # set-up is timed in this many fresh processes, plus this one


def units(section: str) -> dict:
    """Metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def import_negdep():
    sys.path.insert(0, str(SRC))
    import negdep
    import negdep.cli  # noqa: F401  (not imported by the package itself)

    if Path(negdep.__file__).resolve().parent != SRC / "negdep":
        raise SystemExit(f"error: imported negdep from {negdep.__file__}, not {SRC}")
    return negdep


def timed_setup(cls, seed: int, workdir: Path):
    """Import negdep, build the inputs, warm the up-set tables.  Returns
    the workload and the set-up time at the reference speed."""
    with SpeedMeter() as meter:
        start = time.perf_counter()
        import_negdep()
        workload = cls(seed, workdir)
        workload.setup()
        end = time.perf_counter()
    return workload, meter.seconds(start, end)


def probe_setup(cls, seed: int) -> float:
    """Set-up time in a fresh interpreter, as a CLI user pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", cls.name,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float) -> tuple:
    """Whole passes: at least one, then more while the measured time is
    expected to stay within ``seconds``.  The first pass's outputs are
    checked in full; later passes must repeat them exactly.  Returns the
    passes and the speed meter that ran beside them."""
    with SpeedMeter() as meter:
        passes = [harness.run_pass(workload, check=workload.check_step)]
        while True:
            typical = statistics.median(p.elapsed for p in passes)
            if sum(p.elapsed for p in passes) + typical > seconds:
                break
            passes.append(harness.run_pass(workload))
    return passes, meter


def outcome(workload, passes: list) -> tuple:
    failed = harness.failed_ops(workload, passes)
    ops = sum(step.is_op for step in workload.steps)
    harness.report_problems(workload, passes)
    return ops, ops * len(passes), len(failed)


def run_untraced(cls, seed: int, seconds: float, workdir: Path):
    workload, own = timed_setup(cls, seed, workdir)
    workload.prepare()
    setups = [own] + [probe_setup(cls, seed) for _ in range(SETUP_PROBES)]
    passes, meter = measure(workload, seconds)
    ops, attempted, failed = outcome(workload, passes)
    metrics = {
        "setup_s": statistics.median(setups),
        **harness.time_metrics(workload, passes, meter),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    info = {
        "passes": len(passes), "ops_per_pass": ops,
        "raw_wall_s": sum(harness.step_medians(workload, passes)),
        "slowdown": statistics.median(meter.slowdowns),
    }
    return workload, metrics, units("end_to_end"), attempted, failed, [], info


def run_traced(cls, seed: int, workdir: Path):
    negdep = import_negdep()
    tracer = Tracer()
    tracer.install(negdep)
    try:
        workload = cls(seed, workdir)
        workload.setup()
    finally:
        tracer.uninstall()
    workload.prepare()
    untraced, traced = run_traced_pass(workload, tracer, negdep)
    passes = [untraced, traced]
    ops, attempted, failed = outcome(workload, passes)

    calls, _, matrix_s = tracer.totals()
    missing = [name for name in workload.required_spans if not calls[name]]
    if not matrix_s:
        missing.append("upsets.matrix (set-up)")
    for name in missing:
        print(f"traced layer recorded no calls: {name}", file=sys.stderr)

    metrics = tracer.metrics()
    metrics.update({
        "measure.inputs": len(workload.inputs),
        "measure.large_denominator_share": workload.large_denominator_share(),
        "trace.spans": len(tracer.spans),
        "trace.untraced_wall_s": untraced.elapsed,
        "trace.traced_wall_s": traced.elapsed,
        "trace.overhead_s": traced.elapsed - untraced.elapsed,
        "trace.overhead_ratio": (traced.elapsed - untraced.elapsed) / untraced.elapsed,
    })
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{cls.name}-seed{seed}.jsonl.gz"
    tracer.write(trace_path)
    info = {"ops_per_pass": ops, "trace_file": str(trace_path.relative_to(ROOT))}
    return workload, metrics, units("per_layer"), attempted, failed, missing, info


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            result = run_traced(cls, seed, workdir)
        else:
            result = run_untraced(cls, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workload, metrics, unit_of, attempted, failed, missing, info = result
    if set(metrics) != set(unit_of):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(unit_of)}")
    metrics = {key: metrics[key] for key in unit_of}
    info.update({
        "workload": name, "seed": seed, "trace": int(trace), "attempted": attempted,
        "failed": failed, "failed_ratio": f"{failed}/{attempted}",
    })
    print("run " + json.dumps(info))
    print("env " + json.dumps(harness.environment(workload.negdep)))
    for key, value in metrics.items():
        print(f"  {key:42s} {value:>14.6g} {unit_of[key]}")
    doc = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for key, metric in doc["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one CPU for this process and, by inheritance, every process it
    # starts: the speed probe must run where negdep runs (see speed.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "negdep" / "__init__.py").is_file():
        print(f"error: no negdep sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
        try:
            _, elapsed = timed_setup(WORKLOADS[args.workload], args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
