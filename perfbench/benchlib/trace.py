"""Spans around negdep's layers, recorded from outside the program.

Each traced function is replaced where its caller looks it up: the CLI
dispatches checkers through ``cli.NOTION_RUNNERS``, ``dependence``
imports ``transport``, ``max_weight_upset``, ``upset_matrix`` and
``SubsetExtractor`` by name, and methods are looked up on their class.
A span records (name, start, end, parent span, op id).  Spans stay in
memory and are written out when the run ends.

A traced run executes each step twice, back to back: once untraced and
once with the wrappers installed (``run_traced_pass``), so that both see
the same host speed and the traced outputs can be compared with the
untraced ones.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  Per-layer metrics come from the traced pass only,
except ``upsets.matrix_s``, which also counts the cold table builds
during set-up.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

from .harness import Pass, run_pass
from .workloads import Step

SETUP = "setup"

CHECKER_NAMES = {
    "nc": "dependence.nc",
    "cyl": "dependence.cyl",
    "na": "dependence.na",
    "nr": "dependence.nr",
    "cna": "dependence.cna",
    "sc": "dependence.sc",
    "rayleigh": "dependence.rayleigh",
}

# work counters copied from checker reports: (span, report key, metric)
WORK_COUNTERS = (
    ("dependence.nr", "pairs_checked", "dependence.nr.pairs_checked"),
    ("dependence.nr", "flows_run", "dependence.nr.flows_run"),
    ("dependence.nr", "equal_laws_skipped", "dependence.nr.equal_laws_skipped"),
    ("dependence.sc", "flows_run", "dependence.sc.flows_run"),
    ("dependence.na", "closures", "dependence.na.closures"),
    ("dependence.na", "upsets_tested", "dependence.na.upsets_tested"),
    ("dependence.cna", "conditionings_checked", "dependence.cna.conditionings_checked"),
    ("dependence.cna", "bipartitions", "dependence.cna.bipartitions"),
    ("dependence.rayleigh", "evaluations", "dependence.rayleigh.evaluations"),
)

# counters read from kept results other than checker reports
RESULT_COUNTERS = (
    "coupling.transport_edges", "coupling.transport_infeasible", "coupling.pairs_out",
    "martingale.skeleton_nodes", "martingale.tree_nodes", "concentration.tail_rows",
)

# (metric, span name, "calls" or "self_s")
SPAN_METRICS = (
    ("cli.self_s", "cli.main", "self_s"),
    ("measure.condition_calls", "measure.condition", "calls"),
    ("measure.condition_s", "measure.condition", "self_s"),
    ("measure.prob_of_assignment_calls", "measure.prob_of_assignment", "calls"),
    ("measure.prob_of_assignment_s", "measure.prob_of_assignment", "self_s"),
    ("measure.functions_built", "measure.random_lipschitz", "calls"),
    ("measure.function_build_s", "measure.random_lipschitz", "self_s"),
    ("measure.load_s", "measure.load", "self_s"),
    ("measure.family_s", "measure.parse_family", "self_s"),
    *((f"{name}_s", name, "self_s") for name in CHECKER_NAMES.values()),
    ("coupling.transport_calls", "coupling.transport", "calls"),
    ("coupling.transport_s", "coupling.transport", "self_s"),
    ("coupling.build_s", "coupling.build", "self_s"),
    ("coupling.validate_s", "coupling.validate", "self_s"),
    ("coupling.dominance_s", "coupling.dominance", "self_s"),
    ("upsets.closure_calls", "upsets.closure", "calls"),
    ("upsets.closure_s", "upsets.closure", "self_s"),
    ("martingale.skeleton_calls", "martingale.skeleton", "calls"),
    ("martingale.skeleton_s", "martingale.skeleton", "self_s"),
    ("martingale.annotate_calls", "martingale.annotate", "calls"),
    ("martingale.annotate_s", "martingale.annotate", "self_s"),
    ("concentration.verify_s", "concentration.verify", "self_s"),
    ("concentration.moment_calls", "concentration.moment", "calls"),
    ("concentration.moment_s", "concentration.moment", "self_s"),
    ("bitops.extractors_built", "bitops.extractor", "calls"),
)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    ``spans`` is a list of (name, start, end, parent, op) where parent is
    the index of the enclosing span or -1.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _count_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for c in (node.child0, node.child1) if c is not None)
    return count


class Tracer:
    """Wraps negdep's layer entry points and records spans.

    ``install`` patches, ``uninstall`` restores.  Results that per-layer
    metrics need (reports, trees, transport results) are kept by
    reference and summarised after the pass, so that walking them is not
    charged to any span.
    """

    def __init__(self):
        self.spans: list = []
        self.op = SETUP
        self.results: list = []  # (span name, op, result)
        self.stdout_bytes = 0  # CLI output of the traced steps
        self._stack: list[int] = []
        self._patches: list = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name: str, keep_result: bool):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if keep_result:
                results.append((name, self.op, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, keep_result: bool = False):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, keep_result))
        else:
            replacement = self._wrap(original, name, keep_result)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self, negdep) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        cli, dep, cpl = negdep.cli, negdep.dependence, negdep.coupling
        mart, conc, ups = negdep.martingale, negdep.concentration, negdep.upsets
        measure = negdep.measure
        em = measure.ExplicitMeasure
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "parse_family", "measure.parse_family")
        self.patch(cli, "check_neg_regression", "dependence.nr", keep_result=True)
        self.patch(cli, "build_monotone_coupling", "coupling.build", keep_result=True)
        runners = cli.NOTION_RUNNERS
        for key, name in CHECKER_NAMES.items():
            original = runners[key]
            self._patches.append((runners, key, original))
            runners[key] = self._wrap(original, name, keep_result=True)
        self.patch(em, "condition", "measure.condition")
        self.patch(em, "prob_of_assignment", "measure.prob_of_assignment")
        self.patch(em, "load", "measure.load")
        self.patch(measure, "random_lipschitz", "measure.random_lipschitz")
        for owner in (dep, cpl):
            self.patch(owner, "transport", "coupling.transport", keep_result=True)
        self.patch(cpl.Coupling, "validate", "coupling.validate")
        self.patch(cpl, "check_dominance", "coupling.dominance")
        self.patch(dep, "max_weight_upset", "upsets.closure")
        for owner in (dep, ups):
            self.patch(owner, "upset_matrix", "upsets.matrix")
        self.patch(dep, "SubsetExtractor", "bitops.extractor")
        self.patch(mart, "build_skeleton", "martingale.skeleton", keep_result=True)
        self.patch(mart, "_annotate", "martingale.annotate", keep_result=True)
        self.patch(conc, "verify_theorem", "concentration.verify", keep_result=True)
        for attr in ("node_exponential_moment", "chain_exponential_moment"):
            self.patch(conc, attr, "concentration.moment")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def totals(self) -> tuple:
        """Span counts and self times by name over the traced pass, and
        the up-set table time including set-up."""
        own = self_times(self.spans)
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        matrix_s = 0.0
        for (name, _, _, _, op), t in zip(self.spans, own):
            if op != SETUP:
                calls[name] += 1
                self_s[name] += t
            if name == "upsets.matrix":
                matrix_s += t
        return calls, self_s, matrix_s

    def metrics(self) -> dict:
        """Per-layer counts and self times from the spans and kept results."""
        calls, self_s, matrix_s = self.totals()
        out = {
            metric: (calls[name] if kind == "calls" else self_s[name])
            for metric, name, kind in SPAN_METRICS
        }
        out["upsets.matrix_s"] = matrix_s
        counters = dict.fromkeys(
            [metric for _, _, metric in WORK_COUNTERS] + list(RESULT_COUNTERS), 0
        )
        for name, op, result in self.results:
            if op == SETUP:
                continue
            if name.startswith("dependence."):
                for span, key, metric in WORK_COUNTERS:
                    if span == name:
                        counters[metric] += result.work_stats.get(key, 0)
            elif name == "coupling.transport":
                counters["coupling.transport_edges"] += result.edges
                counters["coupling.transport_infeasible"] += not result.feasible
            elif name == "coupling.build":
                counters["coupling.pairs_out"] += len(result.mass)
            elif name == "martingale.skeleton":
                counters["martingale.skeleton_nodes"] += _count_nodes(result.root)
            elif name == "martingale.annotate":
                counters["martingale.tree_nodes"] += _count_nodes(result.root)
            elif name == "concentration.verify":
                counters["concentration.tail_rows"] += len(result.rows)
        out.update(counters)
        out["cli.stdout_bytes"] = self.stdout_bytes
        out["dependence.cna.positive_ratio"] = _ratio(
            out["dependence.cna.conditionings_checked"],
            out["measure.prob_of_assignment_calls"],
        )
        out["dependence.nr.flow_ratio"] = _ratio(
            out["dependence.nr.flows_run"], out["dependence.nr.pairs_checked"]
        )
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def traced_step(step, tracer: Tracer, negdep, index: int) -> Step:
    """The step with the tracer installed around it; spans get op id index."""
    def run():
        tracer.op = index
        tracer.install(negdep)
        try:
            return step.run()
        finally:
            tracer.uninstall()
    return Step(step.label, run, step.is_op)


def split(both: Pass, parity: int) -> Pass:
    """Every other step of a pass, as a pass of its own."""
    def own(steps: dict) -> dict:
        return {i // 2: m for i, m in steps.items() if i % 2 == parity}

    return Pass(
        samples=both.samples[parity::2],
        fingerprints=both.fingerprints[parity::2],
        errors=own(both.errors),
        problems=own(both.problems),
    )


def run_traced_pass(workload, tracer: Tracer, negdep) -> tuple:
    """Each step once untraced and right after once traced, one sample
    each, so that counts repeat exactly.  The untraced outputs are
    checked; the traced ones must repeat their fingerprints.  Returns the
    untraced and the traced pass."""
    steps = workload.steps
    workload.steps = [
        s for index, step in enumerate(steps)
        for s in (step, traced_step(step, tracer, negdep, index))
    ]

    def check(index, result):
        if index % 2:
            tracer.stdout_bytes += len(getattr(result, "out", "").encode())
            return None
        return workload.check_step(index // 2, result)

    try:
        both = run_pass(workload, check=check, repeat=False)
    finally:
        workload.steps = steps
    return split(both, 0), split(both, 1)


def _ratio(num, base) -> float:
    return num / base if base else 0.0
