"""Command-line front door.

Subcommands: check, family, coupling, martingale, tail, counterexample.
Exit codes: 0 all assertions pass, 1 a verdict failed (certificate
printed), 2 usage or input error, 141 stdout closed by its reader.  All
output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .bitops import cap
from .concentration import verify_theorem
from .coupling import build_monotone_coupling
from .dependence import (
    check_cna,
    check_cylinder,
    check_neg_association,
    check_neg_regression,
    check_pairwise_nc,
    check_stochastic_covering,
    rayleigh_falsify,
    refuse_over_cap,
)
from .errors import DominanceFails, IntervalViolation, NegdepError, TooLarge
from .martingale import (
    build_adaptive_tree,
    fixed_order_tree,
    max_step,
    root_step,
)
from .measure import (
    ExplicitMeasure,
    TestFunction,
    constant_function,
    family_nand,
    parse_rational,
    random_lipschitz,
    sum_function,
    xor_function,
)
from .zoo import FAMILY_HELP, parse_family

# The one checker registry: --notions keys, in the order "all" runs them.
NOTION_RUNNERS = {
    "nc": check_pairwise_nc,
    "cyl": check_cylinder,
    "na": check_neg_association,
    "nr": check_neg_regression,
    "cna": check_cna,
    "sc": check_stochastic_covering,
    "rayleigh": rayleigh_falsify,
}

F_HELP = (
    "test function: sum | constant[:v] | xor | random:SEED[:monotone]"
)


# A tail table row costs one exact tail per point; refuse longer grids.
MAX_GRID_POINTS = 10_000


def parse_function(spec: str, n: int) -> TestFunction:
    name, *args = spec.split(":")
    if name == "sum" and not args:
        return sum_function(n)
    if name == "constant" and len(args) <= 1:
        return constant_function(n, parse_rational(args[0]) if args else 0)
    if name == "xor" and not args:
        return xor_function(n)
    if name == "random" and args and args[1:] in ([], ["monotone"]):
        return random_lipschitz(n, random.Random(int(args[0])), monotone=len(args) == 2)
    raise ValueError(f"bad test function {spec!r}; {F_HELP}")


def _load_measure(args) -> ExplicitMeasure:
    if getattr(args, "file", None):
        return ExplicitMeasure.load(args.file)
    if getattr(args, "family", None):
        return parse_family(args.family)
    raise ValueError("provide a measure via --file or --family")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    m = _load_measure(args)
    keys = list(NOTION_RUNNERS) if args.notions == "all" else args.notions.split(",")
    for key in keys:
        if key not in NOTION_RUNNERS:
            raise ValueError(
                f"unknown notion {key!r}; choose from {','.join(NOTION_RUNNERS)} or all"
            )
        refuse_over_cap(key, m.n)  # before any checker runs
    reports = [NOTION_RUNNERS[key](m) for key in keys]
    if args.format == "json":
        doc = {"n": m.n, "reports": [r.to_json() for r in reports]}
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = []
        for r in reports:
            line = f"{r.notion.value}: {r.verdict.value}"
            if not r.ok and r.certificate is not None:
                line += f"  certificate: {json.dumps(r.certificate)}"
            lines.append(line)
        _emit("\n".join(lines), args.output)
    return 0 if all(r.ok for r in reports) else 1


def cmd_family(args) -> int:
    m = parse_family(args.spec)
    _emit(json.dumps(m.to_json(), indent=2), args.output)
    return 0


def cmd_coupling(args) -> int:
    lower = ExplicitMeasure.load(args.lower)
    upper = ExplicitMeasure.load(args.upper)
    try:
        c = build_monotone_coupling(lower, upper, covering_mode=args.covering)
    except DominanceFails as exc:
        doc = {"dominates": False, "error": str(exc)}
        if exc.certificate is not None:
            doc["certificate"] = exc.certificate.to_json()
        _emit(json.dumps(doc, indent=2), args.output)
        return 1
    if args.format == "text":
        text = (
            f"coupling on {c.lower.n} variables: {len(c.flows)} pairs, "
            f"displacement {c.displacement()}"
        )
        _emit(text, args.output)
    else:
        _emit(json.dumps(c.to_json(), indent=2), args.output)
    return 0


def cmd_martingale(args) -> int:
    m = _load_measure(args)
    if m.n > cap("tree"):  # refuse before building f
        raise TooLarge(f"n={m.n} exceeds the tree cap {cap('tree')}")
    f = parse_function(args.f, m.n)
    order_spec = args.order
    try:
        if order_spec == "adaptive":
            tree = build_adaptive_tree(m, f)
        elif order_spec == "fixed":
            tree = fixed_order_tree(m, f)
        elif order_spec.startswith("fixed:"):
            perm = [int(tok) for tok in order_spec[len("fixed:"):].split(",")]
            tree = fixed_order_tree(m, f, perm)
        else:
            raise ValueError(
                f"unknown order {order_spec!r}; use adaptive, fixed, or fixed:i,j,..."
            )
    except IntervalViolation as exc:
        doc = {"verdict": "IntervalViolation", "message": str(exc)}
        if exc.node is not None:
            doc["node"] = {
                "assignment": exc.node.assignment.to_json(),
                "alpha": str(exc.node.alpha),
                "beta": str(exc.node.beta),
            }
        _emit(json.dumps(doc, indent=2), args.output)
        return 1
    if args.format == "csv":
        _emit(tree.to_csv(), args.output)
    elif args.format == "json":
        _emit(json.dumps(tree.to_json(), indent=2), args.output)
    else:
        lines = [
            f"{tree.kind} martingale tree on {tree.n} variables, f = {tree.f.name}",
            f"nodes: {sum(1 for _ in tree.nodes())}, "
            f"leaves: {sum(1 for _ in tree.leaves())}",
            f"root value: {tree.root.y}",
            f"max step ({'gap' if tree.kind == 'adaptive' else 'deviation'}): "
            f"{max_step(tree)}",
            f"first-step max deviation: {root_step(tree)}",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _parse_grid(spec: str) -> list[Fraction]:
    if len(parts := spec.split(":")) != 3:
        raise ValueError(f"grid {spec!r} is not of the form LO:STEP:HI")
    lo, step, hi = map(parse_rational, parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = max(0, (hi - lo) // step + 1)
    if count > MAX_GRID_POINTS:
        raise TooLarge(
            f"grid {spec} has {count} points; the limit is {MAX_GRID_POINTS}"
        )
    return [lo + k * step for k in range(count)]


def _nr_gate(m: ExplicitMeasure):
    """The negative regression report that the bounds of ``tail`` and
    ``counterexample`` rest on, or None above the checker's cap."""
    return check_neg_regression(m) if m.n <= cap("neg_regression") else None


def cmd_tail(args) -> int:
    m = _load_measure(args)
    f = parse_function(args.f, m.n)
    grid = None if args.grid is None else _parse_grid(args.grid)
    advisory = ""
    if (nr := _nr_gate(m)) is None:
        advisory = "negative regression unchecked (n above cap); bounds are advisory"
    elif not nr.ok:
        advisory = "negative regression fails; bounds are advisory"
    report = verify_theorem(m, f, grid)
    if args.format == "csv":
        _emit(report.to_csv(), args.output)
    elif args.format == "json":
        doc = report.to_json()
        if advisory:
            doc["advisory"] = advisory
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = []
        if advisory:
            lines.append(f"note: {advisory}")
        lines.append(f"n={report.n}  mu={report.mu}  f={f.name}")
        for row in report.rows:
            mono = (
                ""
                if row.monotone_bound is None
                else f"  monotone_bound={row.monotone_bound:.6g}"
            )
            lines.append(
                f"t={row.t}  upper={row.upper_exact}  lower={row.lower_exact}  "
                f"bound={row.bound:.6g}{mono}  pass={row.passed}"
            )
        lines.append(f"verdict: {'pass' if report.verdict else 'FAIL'}")
        _emit("\n".join(lines), args.output)
    return 0 if report.verdict else 1


def cmd_counterexample(args) -> int:
    n = args.n
    if not 3 <= n <= 12:
        raise ValueError(f"n must be between 3 and 12, got {n}")
    m = family_nand(n)
    f = sum_function(n)
    nr = _nr_gate(m)
    nr_text = "skipped (n above enumeration cap)" if nr is None else nr.verdict.value
    fixed = fixed_order_tree(m, f)
    adaptive = build_adaptive_tree(m, f)
    fixed_first = root_step(fixed)
    fixed_global = max_step(fixed)
    adaptive_max = max_step(adaptive)
    separated = fixed_first > 1 >= adaptive_max
    formula = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
    ok = (nr is None or nr.ok) and (separated or n < 5)
    if args.format == "json":
        doc = {
            "n": n,
            "nr": nr_text,
            "fixed_first_step": str(fixed_first),
            "fixed_max_step": str(fixed_global),
            "first_step_formula": str(formula),
            "adaptive_max_step": str(adaptive_max),
            "separated": separated,
            "ok": ok,
        }
        _emit(json.dumps(doc, indent=2), args.output)
    else:
        lines = [
            f"NAND measure, n={n}, f = sum",
            f"NR check: {nr_text}",
            f"fixed identity order: max step {fixed_first} at the first reveal "
            f"(formula (n-3)/2 + 2^(1-n) = {formula}); "
            f"largest deviation anywhere: {fixed_global}",
            f"adaptive order: max step {adaptive_max}",
        ]
        if n >= 5:
            lines.append(
                "separation: fixed > 1 >= adaptive"
                if separated
                else "separation: FAILED (expected fixed > 1 >= adaptive)"
            )
        else:
            lines.append("separation: not expected below n=5")
        _emit("\n".join(lines), args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negdep",
        description=(
            "Exact verification of negative-dependence notions, monotone "
            "couplings, adaptive martingale trees, and concentration bounds "
            "for measures on {0,1}^n."
        ),
        epilog=FAMILY_HELP,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--file", help="measure JSON file")
        group.add_argument("--family", help=FAMILY_HELP)

    def add_output(p, formats):
        p.add_argument("-o", "--output", help="write the artifact to this path")
        p.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )

    p = sub.add_parser("check", help="run dependence-notion checkers")
    add_source(p)
    p.add_argument(
        "--notions",
        default="all",
        help=f"comma list from {','.join(NOTION_RUNNERS)}, or all",
    )
    add_output(p, ["text", "json"])
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("family", help="generate a catalog measure as JSON")
    p.add_argument("--spec", required=True, help=FAMILY_HELP)
    add_output(p, ["json"])
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("coupling", help="build a monotone coupling or certify failure")
    p.add_argument("--lower", required=True, help="dominated measure JSON")
    p.add_argument("--upper", required=True, help="dominating measure JSON")
    p.add_argument(
        "--covering",
        action="store_true",
        help="restrict to couplings moving at most one coordinate",
    )
    add_output(p, ["json", "text"])
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("martingale", help="build a martingale tree")
    add_source(p)
    p.add_argument("--f", default="sum", help=F_HELP)
    p.add_argument(
        "--order",
        default="adaptive",
        help="adaptive (default), fixed (identity), or fixed:i,j,...",
    )
    add_output(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_martingale)

    p = sub.add_parser("tail", help="compare exact tails against the bounds")
    add_source(p)
    p.add_argument("--f", default="sum", help=F_HELP)
    p.add_argument("--grid", help="t grid as LO:STEP:HI (default quarter steps)")
    add_output(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "counterexample",
        help="reproduce the fixed-vs-adaptive ordering separation on NAND",
    )
    p.add_argument("n", type=int, help="number of variables, 3..12")
    add_output(p, ["text", "json"])
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send the rest to devnull so
        # the interpreter's last flush does not fail again, and exit with
        # 128 + SIGPIPE, as a process the signal killed would
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 141  # no descriptor behind stdout: nothing left to flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, fd)
        finally:
            os.close(devnull)
        return 141
    except (NegdepError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
