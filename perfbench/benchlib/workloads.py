"""The four workloads: inputs built from a seed, a fixed list of steps,
and the checks that decide whether each step's output is right.

``setup`` (timed as ``setup_s``) does what a user of negdep pays before
the first operation: import negdep, build the inputs and write their
files, warm the up-set tables.  ``prepare`` (untimed) then takes what
only the checks need: the raw atoms of every input.  ``check_step`` runs
on each step's output right after its first sample, in step order, so
that no output is held longer than its check needs.

A step is one call into negdep's public entry points: ``cli.main(argv)``
with stdout captured, or a library function.  Steps marked ``is_op`` are
the operations whose latency is reported; the others (building a shared
skeleton) count towards a pass's wall time only.  negdep is imported in
``setup``, never at module import, so that set-up time includes it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from . import verify

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

NOTION_FLAGS = ("nc", "cyl", "na", "nr", "cna", "sc", "rayleigh")
NOTION_NAMES = {
    "nc": "PairwiseNC",
    "cyl": "CylinderDep",
    "na": "NegAssociation",
    "nr": "NegRegression",
    "cna": "CondNegAssociation",
    "sc": "StochasticCovering",
    "rayleigh": "RayleighFalsifier",
}

# the zoo() catalog as CLI family specs; prepare checks each against zoo()
ZOO_SPECS = {
    "nand3": "nand:3",
    "nand4": "nand:4",
    "nand5": "nand:5",
    "nand6": "nand:6",
    "nand7": "nand:7",
    "nand8": "nand:8",
    "independent_half4": "independent:1/2,1/2,1/2,1/2",
    "independent_mixed": "independent:1/3,2/3,1/4",
    "anti_pair": "anti_pair",
    "pos_pair": "pos_pair",
    "condsum_3_1_2": "condsum:1/2,1/2,1/2:1:2",
    "condsum_5_2_3": "condsum:1/2,1/2,1/2,1/2,1/2:2:3",
    "condsum_8_3_5": "condsum:1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2:3:5",
    "balls_bins_2_2": "balls_bins:2:2",
    "balls_bins_3_2": "balls_bins:3:2",
    "hadamard_4": "hadamard:4",
    "hadamard_8": "hadamard:8",
}

# the eight lambda values of acceptance criterion C5
LAMBDAS = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1)

LARGE_DENOMINATOR = 1 << 20


@dataclass
class Step:
    label: str
    run: Callable[[], Any]
    is_op: bool = True


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json(result: CliResult):
    try:
        return json.loads(result.out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def atoms_of(m) -> dict:
    return dict(m.items())


def _condsum_spec(probs, lo: int, hi: int) -> str:
    return f"condsum:{','.join(str(p) for p in probs)}:{lo}:{hi}"


def _seeded_probs(rng: random.Random, n: int, low: int, high: int) -> list[Fraction]:
    out = []
    for _ in range(n):
        den = rng.randint(low, high)
        out.append(Fraction(rng.randint(1, den - 1), den))
    return out


class Workload:
    """Base: subclasses fill ``steps``, ``inputs`` and ``check``."""

    name = ""
    # span names that must record calls in a traced pass
    required_spans: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.steps: list[Step] = []
        self.measures: list = []  # every input measure
        self.inputs: list[dict] = []  # their raw atoms, set by prepare
        self.negdep = None

    def setup(self) -> None:
        import negdep
        import negdep.cli  # noqa: F401  (the CLI module is not imported by negdep)

        self.negdep = negdep
        self.build()
        for d in range(negdep.upsets.ENUMERABLE_DIM + 1):
            negdep.upsets.upset_matrix(d)

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, after set-up: the raw atoms of every input, which the
        checks read and negdep does not."""
        self.inputs = [atoms_of(m) for m in self.measures]

    def cli(self, argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.negdep.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue(), err.getvalue())

    def fingerprint(self, result) -> str:
        """What must repeat exactly across passes for one step."""
        return digest(f"{result.code}\n{result.out}")

    def check_step(self, index: int, result) -> Optional[str]:
        """The problem with one step's output, or None."""
        raise NotImplementedError

    def large_denominator_share(self) -> float:
        large = sum(verify.denominator(a) > LARGE_DENOMINATOR for a in self.inputs)
        return large / len(self.inputs)

# ---------------------------------------------------------------------------
# catalog_check
# ---------------------------------------------------------------------------


class CatalogCheck(Workload):
    """One ``check --notions X --format json`` per (measure, notion) over
    the 17 catalog measures, plus seeded random measures (early Fails,
    certificate path) and seeded conditioned products (full scans, some
    with a common denominator above 2^20)."""

    name = "catalog_check"
    required_spans = (
        "cli.main", "measure.parse_family", "measure.load", "measure.condition",
        "measure.prob_of_assignment", *(f"dependence.{k}" for k in NOTION_FLAGS),
        "coupling.transport", "upsets.closure", "bitops.extractor",
    )
    RANDOM_SIZES = (4, 4, 5, 5, 6, 6)
    # (n, denominator range, window lows of equal support size); width-1
    # windows keep the product strongly Rayleigh, so every notion holds
    CONDSUMS = ((4, (2, 4), (1, 2)), (4, (200, 1000), (1, 2)), (6, (200, 1000), (2, 3)))

    def build(self) -> None:
        nd = self.negdep
        rng = random.Random(f"catalog_check:{self.seed}")
        # (label, source argv, expected verdicts, measure or None); the
        # CLI parses family specs itself, so prepare parses them for the checks
        self.cases = []
        for name, spec in ZOO_SPECS.items():
            expected = EXPECTED["catalog_check"][name]
            self.cases.append((name, ["--family", spec], expected, None))
        for k, n in enumerate(self.RANDOM_SIZES):
            m = nd.random_measure(n, rng)
            path = self.workdir / f"random_{k}.json"
            m.save(path)
            self.cases.append((f"random_{k}", ["--file", str(path)], None, m))
        holds = {f: "Holds" for f in NOTION_FLAGS} | {"rayleigh": "NoViolationFound"}
        for k, (n, (low, high), lows) in enumerate(self.CONDSUMS):
            probs = _seeded_probs(rng, n, low, high)
            lo = rng.choice(lows)
            spec = _condsum_spec(probs, lo, lo + 1)
            self.cases.append((f"condsum_{k}", ["--family", spec], holds, None))
        for label, source, _, _ in self.cases:
            for flag in NOTION_FLAGS:
                argv = ["check", *source, "--notions", flag, "--format", "json"]
                self.steps.append(Step(f"{label}:{flag}", lambda a=argv: self.cli(a)))
        self._verdicts = {}  # case index -> verdicts seen so far

    def prepare(self) -> None:
        zoo = self.negdep.zoo()
        self.measures = []
        for label, source, _, m in self.cases:
            if m is None:
                m = self.negdep.cli.parse_family(source[1])
                if label in zoo and m != zoo[label]:
                    raise RuntimeError(f"family spec {source[1]} does not give zoo {label}")
            self.measures.append(m)
        super().prepare()

    def check_step(self, index, result):
        c, f = divmod(index, len(NOTION_FLAGS))
        label, _, expected, _ = self.cases[c]
        flag = NOTION_FLAGS[f]
        problem, verdict = self._check_one(
            result, flag, self.measures[c].n, self.inputs[c], expected
        )
        verdicts = self._verdicts.setdefault(c, {})
        verdicts[NOTION_NAMES[flag]] = verdict
        if not problem and len(verdicts) == len(NOTION_FLAGS):
            problem = verify.check_implications(verdicts)
        return problem and f"{label}:{flag}: {problem}"

    @staticmethod
    def _check_one(result: CliResult, flag, n, atoms, expected):
        if result.code not in (0, 1):
            return f"exit {result.code}: {result.err.strip()}", None
        doc, problem = _json(result)
        if problem:
            return problem, None
        reports = doc.get("reports", [])
        if doc.get("n") != n or len(reports) != 1:
            return "unexpected report shape", None
        rep = reports[0]
        notion, verdict = rep.get("notion"), rep.get("verdict")
        if notion != NOTION_NAMES[flag]:
            return f"report is for {notion}", None
        if result.code != (0 if verdict in verify.HOLDING else 1):
            return f"exit {result.code} does not match verdict {verdict}", verdict
        if expected is not None and verdict != expected[flag]:
            return f"verdict {verdict}, expected {expected[flag]}", verdict
        if verdict in verify.HOLDING:
            if flag == "nc" and not verify.nc_holds(atoms, n):
                return "Holds, but a positive covariance exists", verdict
            if flag == "cyl" and not verify.cylinder_holds(atoms, n):
                return "Holds, but a cylinder inequality fails", verdict
            return None, verdict
        return verify.check_certificate(notion, atoms, n, rep.get("certificate")), verdict


# ---------------------------------------------------------------------------
# nand_sweep
# ---------------------------------------------------------------------------


class NandSweep(Workload):
    """``counterexample N --format json`` for N = 3..12: the fixed versus
    adaptive separation on the NAND family.  Seed-independent."""

    name = "nand_sweep"
    required_spans = (
        "cli.main", "dependence.nr", "coupling.transport", "martingale.skeleton",
        "martingale.annotate", "bitops.extractor",
    )
    SIZES = tuple(range(3, 13))

    def build(self) -> None:
        for n in self.SIZES:
            argv = ["counterexample", str(n), "--format", "json"]
            self.steps.append(Step(f"nand{n}", lambda a=argv: self.cli(a)))

    def prepare(self) -> None:
        self.measures = [self.negdep.measure.family_nand(n) for n in self.SIZES]
        super().prepare()

    def check_step(self, index, result):
        n = self.SIZES[index]
        problem = self._check_one(n, result)
        return problem and f"nand{n}: {problem}"

    @staticmethod
    def _check_one(n: int, result: CliResult) -> Optional[str]:
        if result.code != 0:
            return f"exit {result.code}: {result.err.strip()}"
        doc, problem = _json(result)
        if problem:
            return problem
        if doc != EXPECTED["nand_sweep"][str(n)]:
            return "output differs from the recorded values"
        formula = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
        if Fraction(doc["fixed_first_step"]) != formula:
            return f"fixed first step is not (n-3)/2 + 2^(1-n) = {formula}"
        if Fraction(doc["adaptive_max_step"]) > 1:
            return "adaptive max step above 1"
        return None


# ---------------------------------------------------------------------------
# function_matrix
# ---------------------------------------------------------------------------


@dataclass
class FunctionResult:
    f: Any
    tree: Any
    report: Any
    node_moments: list
    chain_moments: list


class FunctionMatrix(Workload):
    """The C3-C5 path through the library: per measure one skeleton, then
    per seeded 1-Lipschitz function (half monotone) an adaptive tree, the
    tail table and the exponential moments at the C5 lambdas."""

    name = "function_matrix"
    required_spans = (
        "measure.random_lipschitz", "martingale.skeleton", "martingale.annotate",
        "concentration.verify", "concentration.moment",
    )
    FUNCTIONS = 20
    # Ops cost more on measures with more atoms, so they form one cluster
    # of op times per measure.  With 20 functions on each of the 14
    # measures, the median op would fall in the gap between the 7th and
    # 8th clusters, and op_p50_s would jump across the gap from run to
    # run.  20 more functions on the cheapest measure put the median in
    # the middle of the 7th cluster (independent_half4).
    EXTRA_FUNCTIONS = {"anti_pair": 20}
    # the tree cap: a conditioned sum with a width-1 window (NR holds)
    LARGE_N, LARGE_FUNCTIONS, LARGE_LOWS = 12, 4, (5, 6)

    def build(self) -> None:
        nd = self.negdep
        zoo = nd.zoo()
        rng = random.Random(f"function_matrix:{self.seed}")
        measures = [
            (name, zoo[name], self.FUNCTIONS + self.EXTRA_FUNCTIONS.get(name, 0))
            for name in ZOO_SPECS
            if EXPECTED["catalog_check"][name]["nr"] == "Holds"
        ]
        probs = _seeded_probs(rng, self.LARGE_N, 2, 4)
        lo = rng.choice(self.LARGE_LOWS)
        large = nd.measure.family_conditioned_sum(probs, lo, lo + 1)
        measures.append((f"condsum{self.LARGE_N}", large, self.LARGE_FUNCTIONS))
        self.cases = {}  # op's step index -> (input index, monotone)
        for name, m, count in measures:
            self.measures.append(m)
            holder = {}
            self.steps.append(Step(f"{name}:skeleton", self._skeleton(m, holder), is_op=False))
            for j in range(count):
                monotone = j % 2 == 0
                fseed = f"function_matrix:{self.seed}:{name}:{j}"
                self.cases[len(self.steps)] = (len(self.measures) - 1, monotone)
                self.steps.append(Step(f"{name}:f{j}", self._op(m, holder, fseed, monotone)))

    def _skeleton(self, m, holder):
        def run():
            holder["skeleton"] = self.negdep.martingale.build_skeleton(m)
        return run

    def _op(self, m, holder, fseed: str, monotone: bool):
        nd = self.negdep

        def run():
            f = nd.measure.random_lipschitz(m.n, random.Random(fseed), monotone=monotone)
            tree = nd.martingale.build_adaptive_tree(m, f, skeleton=holder["skeleton"])
            report = nd.concentration.verify_theorem(m, f)
            moment = nd.concentration.node_exponential_moment
            nodes = [
                (node, [moment(tree, node, lam) for lam in LAMBDAS])
                for node in tree.internal_nodes()
            ]
            chain = [nd.concentration.chain_exponential_moment(tree, lam) for lam in LAMBDAS]
            return FunctionResult(f, tree, report, nodes, chain)

        return run

    def fingerprint(self, result) -> str:
        if result is None:  # the skeleton step
            return ""
        rows = [(str(r.t), str(r.upper_exact), str(r.lower_exact)) for r in result.report.rows]
        moments = [m for _, ms in result.node_moments for m in ms]
        return digest(repr((
            [str(v) for v in result.f.values], str(result.tree.root.y),
            result.report.verdict, rows, moments, result.chain_moments,
        )))

    def check_step(self, index, result):
        if index not in self.cases:  # a skeleton
            return None
        k, monotone = self.cases[index]
        problem = self._check_one(result, self.measures[k].n, self.inputs[k], monotone)
        return problem and f"{self.steps[index].label}: {problem}"

    @staticmethod
    def _check_one(result: FunctionResult, n, atoms, monotone) -> Optional[str]:
        values = result.f.values
        if result.f.declared_monotone != monotone:
            return "function built without the requested monotonicity"
        return (
            verify.check_tree(result.tree.root, values, atoms, 1 if monotone else 2)
            or verify.check_tail(result.report, atoms, values, n, monotone)
            or verify.check_moments(
                result.node_moments, result.chain_moments, LAMBDAS, atoms, values,
                n, monotone,
            )
        )


# ---------------------------------------------------------------------------
# coupling_pairs
# ---------------------------------------------------------------------------


@dataclass
class DominanceSummary:
    dominates: bool
    down_set: tuple
    lower_mass: Any
    upper_mass: Any


class CouplingPairs(Workload):
    """Per pair of measure files: ``coupling`` in plain and ``--covering``
    mode, and one library ``check_dominance``.  The large pairs are the
    (x_i = 1, x_i = 0) conditionals of conditioned sums at n = 10-11,
    which dominate, so flows are extracted and validated; the seeded
    random pairs mostly fail and carry certificates."""

    name = "coupling_pairs"
    required_spans = (
        "cli.main", "measure.load", "coupling.build", "coupling.validate",
        "coupling.dominance", "coupling.transport",
    )
    # (n, window, conditioned coordinates), on fixed probabilities: the
    # large pairs carry most of a pass, so they do not depend on the seed
    LARGE = ((10, (3, 6), (1, 10)), (11, (3, 7), (1, 11)), (11, (4, 6), (2, 7)))
    LARGE_PROBS = tuple(Fraction(k, 12) for k in (4, 6, 8, 3, 9, 6, 4, 8, 3, 9, 6))
    RANDOM_SIZES = (3, 4, 5, 6) * 8
    MODES = ("plain", "covering", "dominance")

    def build(self) -> None:
        nd = self.negdep
        rng = random.Random(f"coupling_pairs:{self.seed}")
        pairs = []  # (label, lower, upper, must dominate)
        for n, (lo, hi), coordinates in self.LARGE:
            m = nd.measure.family_conditioned_sum(self.LARGE_PROBS[:n], lo, hi)
            for i in coordinates:
                lower = m.condition(nd.measure.Assignment((i,), (1,)))
                upper = m.condition(nd.measure.Assignment((i,), (0,)))
                pairs.append((f"condsum{n}_{lo}_{hi}_x{i}", lower, upper, True))
        for k, n in enumerate(self.RANDOM_SIZES):
            lower = nd.random_measure(n, rng)
            upper = nd.random_measure(n, rng)
            pairs.append((f"random_{k}", lower, upper, False))
        self.cases = []  # (label, must dominate); inputs 2k and 2k + 1
        for k, (label, lower, upper, must) in enumerate(pairs):
            lpath, upath = self.workdir / f"lower_{k}.json", self.workdir / f"upper_{k}.json"
            lower.save(lpath)
            upper.save(upath)
            self.measures += [lower, upper]
            self.cases.append((label, must))
            argv = ["coupling", "--lower", str(lpath), "--upper", str(upath), "--format", "json"]
            self.steps.append(Step(f"{label}:plain", lambda a=argv: self.cli(a)))
            self.steps.append(
                Step(f"{label}:covering", lambda a=argv + ["--covering"]: self.cli(a))
            )
            self.steps.append(Step(f"{label}:dominance", self._dominance(lower, upper)))
        self._codes = {}  # pair index -> CLI exit codes checked so far

    def _dominance(self, lower, upper):
        def run():
            res = self.negdep.coupling.check_dominance(lower, upper)
            cert = res.certificate
            if cert is None:
                return DominanceSummary(res.dominates, (), None, None)
            return DominanceSummary(
                res.dominates, tuple(cert.down_set), cert.lower_mass, cert.upper_mass
            )
        return run

    def fingerprint(self, result) -> str:
        if isinstance(result, DominanceSummary):
            return digest(repr(result))
        return super().fingerprint(result)

    def check_step(self, index, result):
        k, mode = divmod(index, len(self.MODES))
        label, must = self.cases[k]
        n = self.measures[2 * k].n
        lower, upper = self.inputs[2 * k], self.inputs[2 * k + 1]
        if self.MODES[mode] == "dominance":
            codes = self._codes.pop(k, {})  # exit codes by mode
            if len(codes) < 2:
                problem = "a coupling op before it raised"
            else:
                problem = self._check_dominance(
                    codes[0], codes[1], result, n, lower, upper, must
                )
        else:
            self._codes.setdefault(k, {})[mode] = result.code
            covering = self.MODES[mode] == "covering"
            problem = self._check_cli(result, n, lower, upper, covering)
        return problem and f"{label}:{self.MODES[mode]}: {problem}"

    @staticmethod
    def _check_cli(result: CliResult, n, lower, upper, covering) -> Optional[str]:
        if result.code not in (0, 1):
            return f"exit {result.code}: {result.err.strip()}"
        doc, problem = _json(result)
        if problem:
            return problem
        if result.code == 0:
            return verify.check_coupling(doc, lower, upper, n, covering)
        return verify.check_coupling_failure(doc, lower, upper, n, covering)

    @staticmethod
    def _check_dominance(plain, covering, dom, n, lower, upper, must) -> Optional[str]:
        """``plain`` and ``covering`` are the two CLI exit codes."""
        if dom.dominates != (plain == 0):
            return "library and CLI disagree on dominance"
        if covering == 0 and plain != 0:
            return "a covering coupling exists but plain dominance fails"
        if must and not dom.dominates:
            return "conditionals of a conditioned sum must dominate"
        if dom.dominates:
            return None
        return verify.check_down_set(
            dom.down_set, lower, upper, n, dom.lower_mass, dom.upper_mass
        )


WORKLOADS = {
    w.name: w for w in (CatalogCheck, NandSweep, FunctionMatrix, CouplingPairs)
}
