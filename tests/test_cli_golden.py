"""Golden outputs: the exact stdout and exit code of `martingale` and
`tail` in every format, of the association, negative regression,
stochastic covering and Rayleigh checkers, of `counterexample` and of
`coupling`, pinned in golden/cli_outputs.json.

The tree inputs cover a NAND measure, the anti-correlated pair, the
positively correlated pair (the IntervalViolation path), a conditioned
sum and a product measure whose common denominator exceeds 2^20, each
with the sum, xor, a constant and two seeded random test functions, in
the adaptive, identity and reversed orders.  `counterexample` runs for
n = 3..12, so the two runs at the tree cap, where negative regression
is skipped, are pinned too, and so is `tail` on `nand:11`, whose bounds
are advisory because n is above the negative regression cap.  The
checker inputs are `nand:8`, conditioned sums whose denominators exceed
2^20 and 2^63, and a measure (golden/nr_fails_late.json) that
fails both notions on its sixteenth conditioning set, so that the `work`
counters of an early exit and the certificates are pinned too; both
notions also run on a conditioned sum of eight variables whose common
denominator is near 2^128, so its transports carry capacities near 2^256,
and so does negative association, whose 6,938 closures are one transport
each.  Negative association and CNA run on the four checker inputs, on
every catalog measure and on a seeded perturbed conditioned sum
(golden/cna_fails_late.json) that holds NA and fails CNA on its 216th
conditional.  The Rayleigh falsifier runs on `nand:6`, where its seeded
grid finds a violation, and on `nand:3`, whose lattice grid is clean.

`coupling` runs in plain and `--covering` mode, in JSON and in text, on
the pairs of golden/coupling/ (NAME_lower.json, NAME_upper.json).  The
lower measure of `nand6_x1`, `nand6_x2`, `condsum9_x1` and `condsum9_x9`
is the conditional on x_i = 1 and the upper one on x_i = 0, of `nand:6`
and of `condsum:1/3,1/2,2/3,1/4,3/4,1/2,1/3,2/3,1/4:3:6`; the
conditioned sums and `nand6_x2` route on the cube network, `nand6_x1` on
the bipartite one, and its covering run fails with a Hall cut.
`sparse12` holds six seeded atoms in dimension 12, each split over two
random supersets (bipartite network).  `nand6_x1_reversed` swaps the
two laws of `nand6_x1`, so the plain run fails with a down-set
certificate.  `independent3` is the product 1/4 below the product 3/4 on
three coordinates: it dominates, and the covering run fails with a Hall
cut.

Regenerate the file only for an intended output change, by running this
module with the package on the path:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from negdep.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

# each family with its number of variables, for the reversed fixed order
FAMILIES = {
    "nand:5": 5,
    "anti_pair": 2,
    "pos_pair": 2,
    "condsum:1/3,1/2,2/5,1/4,3/5:2:3": 5,
    "independent:1/1009,2/1013,500/1019": 3,  # D = 1009 * 1013 * 1019 > 2^20
}
FUNCTIONS = ["sum", "xor", "constant:7/2", "random:3", "random:4:monotone"]
# paths are relative to the repository root, where run_cli runs
CHECK_INPUTS = [
    ["--family", "nand:8"],
    ["--family", "condsum:1/1009,2/1013,500/1019,1/3,2/5,3/7:2:4"],  # D > 2^20
    ["--family", "condsum:1/2003,2/2011,500/2017,7/2027,1000/2029,3/2039,11/2053:2:5"],  # D > 2^63
    ["--file", "tests/golden/nr_fails_late.json"],
]
# a conditioned sum with D near 2^128, whose flows carry capacities near
# 2^256; checked for NR and SC, and for NA, where D >= 2^60 sends every
# row of every bipartition to a closure
WIDE_CHECK = [
    "--family",
    "condsum:9973/65521,19946/65519,29919/65497,39892/65479,49865/65449,"
    "59838/65447,4374/65437,14361/65423:1:7",
]
# the catalog of negdep.zoo(), as family specs
CATALOG = [
    *(f"nand:{n}" for n in range(3, 9)),
    "independent:1/2,1/2,1/2,1/2",
    "independent:1/3,2/3,1/4",
    "anti_pair",
    "pos_pair",
    "condsum:1/2,1/2,1/2:1:2",
    "condsum:1/2,1/2,1/2,1/2,1/2:2:3",
    "condsum:1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2:3:5",
    "balls_bins:2:2",
    "balls_bins:3:2",
    "hadamard:4",
    "hadamard:8",
]
ASSOCIATION_INPUTS = [
    *(["--family", spec] for spec in CATALOG if spec != "nand:8"),
    *CHECK_INPUTS,
    ["--file", "tests/golden/cna_fails_late.json"],
]
COUPLING_PAIRS = [
    "nand6_x1", "nand6_x2", "condsum9_x1", "condsum9_x9", "sparse12",
    "nand6_x1_reversed", "independent3",
]
ROOT = Path(__file__).resolve().parents[1]


def cases() -> list[list[str]]:
    out = []
    for family, n in FAMILIES.items():
        reversed_order = "fixed:" + ",".join(map(str, range(n, 0, -1)))
        for f in FUNCTIONS:
            for fmt in ("text", "json", "csv"):
                orders = ["adaptive", "fixed"]
                if fmt != "text":
                    orders.append(reversed_order)
                for order in orders:
                    out.append(["martingale", "--family", family, "--f", f,
                                "--order", order, "--format", fmt])
                out.append(["tail", "--family", family, "--f", f, "--format", fmt])
    # above the negative-regression cap the bounds are printed as advisory
    for fmt in ("text", "json"):
        out.append(["tail", "--family", "nand:11", "--format", fmt])
    for source in CHECK_INPUTS:
        out.append(["check", *source, "--notions", "nr,sc", "--format", "json"])
    out.append(["check", *WIDE_CHECK, "--notions", "nr,sc", "--format", "json"])
    out.append(["check", *WIDE_CHECK, "--notions", "na", "--format", "json"])
    for source in ASSOCIATION_INPUTS:
        out.append(["check", *source, "--notions", "na,cna", "--format", "json"])
    # the Rayleigh falsifier: a violation with its certificate, and a clean grid
    for family in ("nand:6", "nand:3"):
        out.append(["check", "--family", family, "--notions", "rayleigh", "--format", "json"])
    # 11 and 12 run at the tree cap with negative regression skipped
    for n in range(3, 13):
        out.append(["counterexample", str(n), "--format", "json"])
    for name in COUPLING_PAIRS:
        pair = ["--lower", f"tests/golden/coupling/{name}_lower.json",
                "--upper", f"tests/golden/coupling/{name}_upper.json"]
        for mode in ([], ["--covering"]):
            for fmt in ("json", "text"):
                out.append(["coupling", *pair, *mode, "--format", fmt])
    return out


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(map(tuple, cases()))
    codes = {entry["exit"] for entry in golden.values()}
    # the pos_pair trees exit 1 with IntervalViolation, and so do the
    # failing checker reports
    assert codes == {0, 1}


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv[1:]))
def test_output_matches_golden(golden, argv):
    entry = golden[tuple(argv)]
    code, stdout = run_cli(argv)
    assert code == entry["exit"]
    assert stdout == entry["stdout"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = []
    for argv in cases():
        code, stdout = run_cli(argv)
        doc.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
