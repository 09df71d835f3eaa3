"""Golden outputs: the exact stdout and exit code of `martingale` and
`tail` in every format, pinned in golden/cli_outputs.json.

The inputs cover a NAND measure, the anti-correlated pair, the
positively correlated pair (the IntervalViolation path), a conditioned
sum and a product measure whose common denominator exceeds 2^20, each
with the sum, xor, a constant and two seeded random test functions.

Regenerate the file only for an intended output change, by running this
module with the package on the path:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from negdep.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

FAMILIES = [
    "nand:5",
    "anti_pair",
    "pos_pair",
    "condsum:1/3,1/2,2/5,1/4,3/5:2:3",
    "independent:1/1009,2/1013,500/1019",  # D = 1009 * 1013 * 1019 > 2^20
]
FUNCTIONS = ["sum", "xor", "constant:7/2", "random:3", "random:4:monotone"]


def cases() -> list[list[str]]:
    out = []
    for family in FAMILIES:
        for f in FUNCTIONS:
            for fmt in ("text", "json", "csv"):
                for order in ("adaptive", "fixed"):
                    out.append(["martingale", "--family", family, "--f", f,
                                "--order", order, "--format", fmt])
                out.append(["tail", "--family", family, "--f", f, "--format", fmt])
    return out


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(map(tuple, cases()))
    codes = {entry["exit"] for entry in golden.values()}
    assert codes == {0, 1}  # the pos_pair trees exit 1 with IntervalViolation


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
