"""Every width cap is one entry of `bitops._DEFAULT_CAPS`, and every entry
point that enforces it refuses through `bitops.refuse_over_cap` before any
work: with the cap of one key lowered to 3, each refuses n = 4 naming that
key, and builds no checker, test function or skeleton first."""

import pytest

import negdep.bitops as bitops
from negdep import cli
from negdep.dependence import NOTION_RUNNERS
from negdep.errors import TooLarge
from negdep.martingale import build_skeleton
from negdep.measure import ExplicitMeasure, family_nand

CAPPED_CHECKERS = ["cyl", "na", "cna", "nr", "sc", "rayleigh"]


def never(*args, **kwargs):
    raise AssertionError("work began before the refusal")


def unread_atoms():
    raise AssertionError("an atom was read")
    yield


def refusal(call, *args) -> str:
    with pytest.raises(TooLarge) as refused:
        call(*args)
    return str(refused.value)


def cli_refusal(capsys, *argv) -> str:
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


def checker(key, monkeypatch, capsys):
    m = family_nand(4)
    monkeypatch.setattr(ExplicitMeasure, "scaled_weights", never)
    monkeypatch.setattr(ExplicitMeasure, "dense", never)
    return refusal(NOTION_RUNNERS[key], m)


def from_atoms(key, monkeypatch, capsys):
    return refusal(ExplicitMeasure.from_atoms, 4, unread_atoms())


def skeleton(key, monkeypatch, capsys):
    m = family_nand(4)
    monkeypatch.setattr(ExplicitMeasure, "scaled_weights", never)
    return refusal(build_skeleton, m)


def cli_check(key, monkeypatch, capsys):
    for runner in NOTION_RUNNERS:
        monkeypatch.setitem(NOTION_RUNNERS, runner, never)
    notions = "nc" if key == "measure" else f"nc,{key}"
    return cli_refusal(capsys, "check", "--family", "nand:4", "--notions", notions)


def cli_martingale(key, monkeypatch, capsys):
    for name in ("parse_function", "build_adaptive_tree", "fixed_order_tree"):
        monkeypatch.setattr(cli, name, never)
    return cli_refusal(capsys, "martingale", "--family", "nand:4")


CASES = [
    *((key, checker) for key in CAPPED_CHECKERS),
    *((key, cli_check) for key in CAPPED_CHECKERS),
    ("measure", from_atoms),
    ("measure", cli_check),
    ("measure", cli_martingale),
    ("tree", skeleton),
    ("tree", cli_martingale),
]


def test_every_cap_is_enforced_by_a_case_here():
    assert {key for key, _ in CASES} == set(bitops._DEFAULT_CAPS)


@pytest.mark.parametrize(
    "key, entry", CASES, ids=[f"{key}-{entry.__name__}" for key, entry in CASES]
)
def test_one_refusal_names_the_key_and_its_cap_before_any_work(key, entry, monkeypatch, capsys):
    monkeypatch.delenv("NEGDEP_MAX_N", raising=False)
    monkeypatch.setitem(bitops._DEFAULT_CAPS, key, 3)
    assert bitops.cap(key) == 3
    assert entry(key, monkeypatch, capsys) == f"n=4 exceeds the {key} cap 3"
