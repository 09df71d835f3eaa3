import csv
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from negdep import __version__, cli
from negdep.cli import (
    F_HELP,
    FAMILY_HELP,
    MAX_GRID_POINTS,
    _parse_grid,
    main,
    parse_family,
    parse_function,
)
from negdep.bitops import cap
from negdep.dependence import (
    Notion,
    NotionReport,
    Verdict,
    check_neg_association,
)
from negdep.errors import NegdepError, TooLarge
from negdep.measure import (
    FAMILIES,
    ExplicitMeasure,
    family_anti_pair,
    family_nand,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- family grammar ----------------------------------------------------------


def test_parse_family_grammar():
    assert parse_family("nand:4") == family_nand(4)
    assert parse_family("anti_pair") == family_anti_pair()
    m = parse_family("independent:1/2,0.5")
    assert m.prob("11") == Fraction(1, 4)
    m = parse_family("condsum:0.5,0.5,0.5:1:2")
    assert m.n == 3
    m = parse_family("balls_bins:2:2")
    assert m.n == 4
    m = parse_family("hadamard:4")
    assert m.n == 3


def test_parse_family_unknown():
    with pytest.raises(ValueError):
        parse_family("zeta:3")
    with pytest.raises(ValueError):
        parse_family("anti_pair:1")


# the help text as it was written out before the family table printed it
FAMILY_HELP_LITERAL = (
    "family spec grammar: nand:N | independent:p1,p2,... | "
    "condsum:p1,p2,...:LO:HI | balls_bins:BALLS:BINS | hadamard:ORDER | "
    "anti_pair | pos_pair (rationals as p/q or decimals)"
)
FORMS = {
    "nand": "nand:N",
    "independent": "independent:p1,p2,...",
    "condsum": "condsum:p1,p2,...:LO:HI",
    "balls_bins": "balls_bins:BALLS:BINS",
    "hadamard": "hadamard:ORDER",
    "anti_pair": "anti_pair",
    "pos_pair": "pos_pair",
}
# every family written with one part too few (where it has a part) and
# one part too many
WRONG_PART_COUNTS = [
    *((form.rsplit(":", 1)[0], name) for name, form in FORMS.items() if ":" in form),
    *((form + ":1", name) for name, form in FORMS.items()),
]


def test_family_help_is_printed_from_the_table():
    assert list(FAMILIES) == list(FORMS)
    assert FAMILY_HELP == FAMILY_HELP_LITERAL
    assert parse_family.__module__ == "negdep.measure"


# a part its parser refuses: no number, no rational, a zero denominator
BAD_PARTS = [
    ("nand:x", "nand"),
    ("nand:", "nand"),
    ("independent:1/2,abc", "independent"),
    ("independent:1/0", "independent"),
    ("condsum:1/2,1/2:1:y", "condsum"),
    ("balls_bins:2:1.5", "balls_bins"),
    ("hadamard:four", "hadamard"),
]


def _assert_names_the_form(capsys, spec, name):
    message = f"family {name} is written {FORMS[name]}; {FAMILY_HELP_LITERAL}"
    with pytest.raises(ValueError) as exc_info:
        parse_family(spec)
    assert str(exc_info.value) == message
    for argv in (["check", "--family", spec, "--notions", "nc"], ["family", "--spec", spec]):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, name", WRONG_PART_COUNTS)
def test_wrong_part_count_names_the_form(capsys, spec, name):
    _assert_names_the_form(capsys, spec, name)


@pytest.mark.parametrize("spec, name", BAD_PARTS)
def test_part_that_is_no_number_names_the_form(capsys, spec, name):
    _assert_names_the_form(capsys, spec, name)


@pytest.mark.parametrize(
    "spec, message",
    [("hadamard:3", "order must be a power of two, at least 2"),
     ("independent:3/2", "probabilities must lie in [0, 1]")],
)
def test_builder_errors_keep_their_message(capsys, spec, message):
    with pytest.raises(NegdepError) as exc_info:
        parse_family(spec)
    assert str(exc_info.value) == message
    assert run(capsys, "family", "--spec", spec) == (2, "", f"error: {message}\n")


# specs of every family's shape, with parts that are no number, past a cap,
# empty, or spelled with a non-ASCII digit
NUMBERS = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["21", "1000000", "1/0", "1/3", "-1/2", "3/2", "0.5", ".25",
                     "1.", "2.5e-1", "1e-3", "1E2", "\u0663"]),
)
PARTS = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=1, max_size=8).map(",".join),
                  st.just(""))


def specs(name):
    """0-4 parts after the name, or as often the family's own number."""
    arity = len(FAMILIES[name]) - 1 if name in FAMILIES else 1
    parts = st.one_of(st.lists(PARTS, max_size=4),
                      st.lists(PARTS, min_size=arity, max_size=arity))
    return parts.map(lambda ps: ":".join([name, *ps]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from([*FAMILIES, "zeta", ""]).flatmap(specs))
def test_any_family_spec_is_a_measure_or_an_input_error(spec):
    try:
        assert isinstance(parse_family(spec), ExplicitMeasure)
    except (ValueError, NegdepError):
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["family", "--spec", spec])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()


def test_parse_function_grammar():
    assert parse_function("sum", 3).name == "sum"
    assert parse_function("constant:7/2", 3).values[0] == Fraction(7, 2)
    assert parse_function("xor", 3).values[0b111] == 1
    f1 = parse_function("random:5", 4)
    f2 = parse_function("random:5", 4)
    assert f1.values == f2.values
    assert not f1.declared_monotone
    assert parse_function("random:5:monotone", 4).declared_monotone
    with pytest.raises(ValueError):
        parse_function("cubic", 3)
    with pytest.raises(ValueError):
        parse_function("random", 3)


@pytest.mark.parametrize(
    "spec",
    ["sum:9", "xor:1", "constant:1:2", "random:1:mono", "random:1:monotone:2",
     "random", "cubic", ""],
)
def test_parse_function_rejects_extra_or_unknown_arguments(spec):
    with pytest.raises(ValueError) as exc:
        parse_function(spec, 3)
    assert F_HELP in str(exc.value)


@pytest.mark.parametrize("command", ["martingale", "tail"])
@pytest.mark.parametrize("spec", ["random:1:mono", "sum:9", "constant:1:2"])
def test_bad_function_spec_exit_two_with_grammar(capsys, command, spec):
    code, out, err = run(capsys, command, "--family", "nand:4", "--f", spec)
    assert code == 2
    assert out == ""
    assert F_HELP in err


# -- check -------------------------------------------------------------------


def test_check_nand_nr_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "--family", "nand:3", "--notions", "nr")
    assert code == 0
    assert "NegRegression: Holds" in out


def test_check_pos_pair_exit_one_with_certificate(capsys):
    code, out, _ = run(capsys, "check", "--family", "pos_pair", "--notions", "nc")
    assert code == 1
    assert "PairwiseNC: Fails" in out
    assert '"covariance": "1/4"' in out


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "atoms": {"110": "1/4", "000": "3/4"}},  # atoms keyed by bitstring
        {"n": 2},                                          # no atoms
    ],
)
def test_check_malformed_measure_exit_two(capsys, tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--file", str(path), "--notions", "nc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and '"atoms" must be a list' in err


def test_check_boolean_n_exit_two(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": True, "atoms": [{"x": "1", "p": "1"}]}))
    code, out, err = run(capsys, "check", "--file", str(path), "--notions", "nc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and 'integer "n"' in err


@pytest.mark.parametrize("p", [True, False])
def test_check_boolean_mass_exit_two(capsys, tmp_path, p):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "atoms": [{"x": "1", "p": p}, {"x": "0", "p": "1"}]}))
    code, out, err = run(capsys, "check", "--file", str(path), "--notions", "nc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "is a boolean, not a rational" in err


@pytest.mark.parametrize("n", ["2", " 2", 2.0])
def test_check_n_that_is_no_json_integer_exit_two(capsys, tmp_path, n):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": n, "atoms": [{"x": "10", "p": "1"}]}))
    code, out, err = run(capsys, "check", "--file", str(path), "--notions", "nc")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and 'integer "n"' in err


def test_check_sc_witness(capsys):
    code, out, _ = run(capsys, "check", "--family", "nand:3", "--notions", "sc")
    assert code == 1
    assert "StochasticCovering: Fails" in out
    assert "block" in out


def test_check_all_notions_json(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "independent:1/2,1/2",
        "--notions", "all", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 7
    verdicts = {r["notion"]: r["verdict"] for r in doc["reports"]}
    assert verdicts["PairwiseNC"] == "Holds"
    assert verdicts["RayleighFalsifier"] == "NoViolationFound"
    assert all("work" in r for r in doc["reports"])


def test_check_all_notions_one_variable(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "atoms": [{"x": "1", "p": "1"}]}))
    code, out, _ = run(capsys, "check", "--file", str(path), "--notions", "all")
    assert code == 0
    assert "PairwiseNC: Holds" in out
    assert "RayleighFalsifier: NoViolationFound" in out


def test_check_refuses_an_over_cap_notion_before_any_checker_runs(capsys, monkeypatch):
    with pytest.raises(TooLarge) as refusal:
        check_neg_association(family_nand(14))

    def never(m):
        raise AssertionError("a checker ran")

    for key in cli.NOTION_RUNNERS:
        monkeypatch.setitem(cli.NOTION_RUNNERS, key, never)
    code, out, err = run(capsys, "check", "--family", "nand:14", "--notions", "all")
    assert (code, out) == (2, "")
    assert err == f"error: {refusal.value}\n"
    assert "na cap" in err


@pytest.mark.parametrize("key", ["na", "cna", "nr", "sc", "rayleigh"])
def test_check_refuses_one_over_cap_notion_with_its_cap(capsys, monkeypatch, key):
    n = cap(key) + 1

    def never(m):
        raise AssertionError("a checker ran")

    for runner in cli.NOTION_RUNNERS:
        monkeypatch.setitem(cli.NOTION_RUNNERS, runner, never)
    code, out, err = run(capsys, "check", "--family", f"nand:{n}", "--notions", f"nc,{key}")
    assert (code, out) == (2, "")
    assert err == f"error: n={n} exceeds the {key} cap {n - 1}\n"


@pytest.mark.parametrize("key", ["na", "cna"])
def test_check_refuses_association_past_n_11_naming_n(capsys, monkeypatch, key):
    # NEGDEP_MAX_N raises every cap, but leaves NA's and CNA's at 11: at
    # n = 12 the 6 | 6 bipartitions have no side of dimension <= 5
    monkeypatch.setenv("NEGDEP_MAX_N", "12")

    def never(m):
        raise AssertionError("a checker ran")

    for runner in cli.NOTION_RUNNERS:
        monkeypatch.setitem(cli.NOTION_RUNNERS, runner, never)
    code, out, err = run(capsys, "check", "--family", "nand:12", "--notions", f"nc,{key}")
    assert (code, out) == (2, "")
    assert err == f"error: n=12 exceeds the {key} cap 11\n"


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "²"])
def test_cap_override_that_is_no_count_exits_two_naming_it(capsys, monkeypatch, value):
    monkeypatch.setenv("NEGDEP_MAX_N", value)
    code, out, err = run(capsys, "check", "--family", "nand:3", "--notions", "nr")
    assert (code, out) == (2, "")
    assert err == f"error: NEGDEP_MAX_N must be a non-negative integer, got {value!r}\n"


@pytest.mark.parametrize("spec, n", [
    ("nand:21", 21),
    ("independent:" + ",".join(["1/2"] * 21), 21),
    ("condsum:" + ",".join(["1/3"] * 22) + ":1:2", 22),
    ("balls_bins:3:7", 21),
    ("hadamard:32", 31),
], ids=["nand", "independent", "condsum", "balls_bins", "hadamard"])
def test_family_over_the_measure_cap_names_the_cap(capsys, spec, n):
    code, out, err = run(capsys, "check", "--family", spec, "--notions", "nc")
    assert (code, out) == (2, "")
    assert err == f"error: n={n} exceeds the measure cap {cap('measure')}\n"
    assert cap("measure") == 20


def test_check_unknown_notion_exit_two(capsys):
    code, _, err = run(capsys, "check", "--family", "nand:3", "--notions", "bogus")
    assert code == 2
    assert "unknown notion" in err


def test_check_bad_family_exit_two(capsys):
    code, _, err = run(capsys, "check", "--family", "nand:zero", "--notions", "nc")
    assert code == 2


def test_check_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "check", "--file", str(tmp_path / "nope.json"), "--notions", "nc"
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--file", "--family"])
def test_check_empty_measure_source_exit_two(capsys, flag):
    code, out, err = run(capsys, "check", flag, "", "--notions", "nc")
    assert (code, out) == (2, "")
    assert err == "error: provide a measure via --file or --family\n"


# -- family ------------------------------------------------------------------


def test_family_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "family", "--spec", "condsum:0.5,0.5,0.5:1:2", "-o", str(out_path)
    )
    assert code == 0
    loaded = ExplicitMeasure.load(out_path)
    assert loaded == parse_family("condsum:1/2,1/2,1/2:1:2")
    code, out, _ = run(capsys, "check", "--file", str(out_path), "--notions", "nr")
    assert code == 0


def test_family_stdout(capsys):
    code, out, _ = run(capsys, "family", "--spec", "anti_pair")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2


# -- coupling ----------------------------------------------------------------


@pytest.fixture
def measure_files(tmp_path, capsys):
    paths = {}
    for name, spec in (
        ("anti", "anti_pair"),
        ("pos", "pos_pair"),
        ("ind", "independent:1/2,1/2"),
    ):
        p = tmp_path / f"{name}.json"
        assert main(["family", "--spec", spec, "-o", str(p)]) == 0
        paths[name] = str(p)
    capsys.readouterr()
    return paths


def test_coupling_success(capsys, measure_files):
    code, out, _ = run(
        capsys, "coupling",
        "--lower", measure_files["anti"], "--upper", measure_files["ind"],
    )
    assert code == 1  # anti is not dominated by ind: check which way
    # direction check: the anti pair and the fair independent pair have
    # equal means, but the independent pair puts mass on 11, so neither
    # dominates; a certificate must come back
    doc = json.loads(out)
    assert doc["dominates"] is False
    assert doc["certificate"]["kind"] == "down_set"


def test_coupling_identical_measures(capsys, measure_files):
    code, out, _ = run(
        capsys, "coupling",
        "--lower", measure_files["anti"], "--upper", measure_files["anti"],
    )
    assert code == 0
    doc = json.loads(out)
    assert all(pair["x"] == pair["y"] for pair in doc["pairs"])


def test_coupling_failure_certificate(capsys, measure_files):
    code, out, _ = run(
        capsys, "coupling",
        "--lower", measure_files["pos"], "--upper", measure_files["anti"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["dominates"] is False
    assert doc["certificate"]["kind"] == "down_set"
    assert doc["certificate"]["down_set"] == ["00", "01", "10"]


# -- martingale --------------------------------------------------------------


def test_martingale_text_summary(capsys):
    code, out, _ = run(capsys, "martingale", "--family", "nand:3", "--f", "sum")
    assert code == 0
    assert "adaptive martingale tree" in out
    assert "max step" in out


def test_martingale_json(capsys):
    code, out, _ = run(
        capsys, "martingale", "--family", "nand:3", "--f", "sum",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "adaptive"
    assert doc["root"]["pick"] == 2


def test_martingale_csv(capsys):
    code, out, _ = run(
        capsys, "martingale", "--family", "nand:4", "--f", "random:3",
        "--order", "fixed", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "depth"
    assert len(rows) > 2


def test_martingale_custom_order(capsys):
    code, out, _ = run(
        capsys, "martingale", "--family", "nand:3", "--f", "sum",
        "--order", "fixed:3,2,1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["order"] == [3, 2, 1]


@pytest.mark.parametrize("argv, message", [
    (("martingale", "--f", "random:x"), f"bad test function 'random:x'; {F_HELP}"),
    (("martingale", "--f", "constant:abc"), f"bad test function 'constant:abc'; {F_HELP}"),
    (("martingale", "--order", "fixed:x"),
     "unknown order 'fixed:x'; use adaptive, fixed, or fixed:i,j,..."),
    (("martingale", "--order", "fixed:"),
     "unknown order 'fixed:'; use adaptive, fixed, or fixed:i,j,..."),
    (("martingale", "--order", "bogus"),
     "unknown order 'bogus'; use adaptive, fixed, or fixed:i,j,..."),
    (("tail", "--grid", "0:1/4:x"), "grid '0:1/4:x' is not of the form LO:STEP:HI"),
    # the builders' own refusals keep their text
    (("martingale", "--order", "fixed:1,1,2"), "order must be a permutation of 1..n"),
    (("tail", "--grid", "0:0:1"), "grid step must be positive"),
    # the point count is not printed: it can outgrow int-to-text conversion
    (("tail", "--grid", "0:1:1e400"),
     "grid 0:1:1e400 has more than 10000 points; the limit is 10000"),
    (("tail", "--grid", "0:1e-4000:1e4000"),
     "grid 0:1e-4000:1e4000 has more than 10000 points; the limit is 10000"),
])
def test_spec_part_that_does_not_parse_names_its_form(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--family", "nand:3", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_martingale_interval_violation_exit_one(capsys):
    code, out, _ = run(capsys, "martingale", "--family", "pos_pair", "--f", "sum")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "IntervalViolation"
    assert "node" in doc


def test_martingale_refuses_above_tree_cap_before_building_f(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("f was built before the tree cap was checked")

    monkeypatch.setattr("negdep.cli.random_lipschitz", forbidden)
    code, out, err = run(capsys, "martingale", "--family", "nand:14", "--f", "random:1")
    assert code == 2
    assert out == ""
    assert "tree cap" in err


# -- tail --------------------------------------------------------------------


def test_tail_text(capsys):
    code, out, _ = run(
        capsys, "tail", "--family", "nand:3", "--f", "sum", "--grid", "0:0.25:2"
    )
    assert code == 0
    assert "verdict: pass" in out
    assert "t=1/4" in out


def test_tail_csv(capsys):
    code, out, _ = run(
        capsys, "tail", "--family", "nand:3", "--f", "sum", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "upper_exact", "lower_exact", "bound",
                       "monotone_bound", "pass"]


def test_tail_advisory_on_non_nr_measure(capsys):
    code, out, _ = run(capsys, "tail", "--family", "hadamard:4", "--f", "sum")
    assert "advisory" in out


def test_tail_json_output_file(capsys, tmp_path):
    out_path = tmp_path / "tail.json"
    code, _, _ = run(
        capsys, "tail", "--family", "nand:4", "--f", "sum",
        "--format", "json", "-o", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] is True


def test_tail_bad_grid(capsys):
    code, _, err = run(
        capsys, "tail", "--family", "nand:3", "--f", "sum", "--grid", "0:0:1"
    )
    assert code == 2


def test_tail_grid_with_a_negative_t_exit_two_without_a_traceback(capsys):
    code, out, err = run(capsys, "tail", "--family", "nand:3", "--grid=-1:1:1")
    assert (code, out, err) == (2, "", "error: t must be nonnegative\n")


def test_tail_grid_past_the_float_range_bounds_at_zero(capsys):
    # at t = 1e200, t^2/n is past the largest float: the bound is e^(-huge)
    code, out, err = run(capsys, "tail", "--family", "nand:3",
                         "--grid", "0:1e200:1e200", "--format", "json")
    assert (code, err) == (0, "")
    row = json.loads(out)["rows"][-1]
    assert (row["bound"], row["monotone_bound"], row["pass"]) == (0.0, 0.0, True)


@pytest.mark.parametrize("grid", ["1:1", "1", "0:1:2:3", ""])
def test_tail_grid_without_three_parts_exit_two_naming_the_form(capsys, grid):
    code, out, err = run(capsys, "tail", "--family", "nand:4", "--grid", grid)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "LO:STEP:HI" in err


def test_tail_grid_point_count_is_exact():
    assert _parse_grid("0:1/4:1") == [Fraction(k, 4) for k in range(5)]
    assert _parse_grid("1:1/3:1/2") == []
    assert len(_parse_grid(f"0:1:{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS
    with pytest.raises(TooLarge):
        _parse_grid(f"0:1:{MAX_GRID_POINTS}")


def test_tail_grid_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        _parse_grid("0:1/0:2")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--file", "{file}", "--notions", "nc"),
        ("tail", "--family", "nand:3", "--f", "sum", "--grid", "0:1/0:2"),
        ("tail", "--family", "nand:3", "--f", "constant:1/0"),
    ],
    ids=["measure-file", "grid", "function"],
)
def test_zero_denominator_exit_two(capsys, tmp_path, argv):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "atoms": [{"x": "1", "p": "1/0"}]}))
    code, out, err = run(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_tail_tiny_grid_step_refused(capsys):
    code, out, err = run(
        capsys, "tail", "--family", "nand:3", "--f", "sum",
        "--grid", "0:1/1000000000000:1",
    )
    assert code == 2
    assert out == ""
    assert "more than 10000 points; the limit is 10000" in err


# -- counterexample ----------------------------------------------------------


def test_counterexample_n3(capsys):
    code, out, _ = run(capsys, "counterexample", "3")
    assert code == 0
    assert "max step 1/4 at the first reveal" in out
    assert "not expected below n=5" in out


def test_counterexample_n6_separates(capsys):
    code, out, _ = run(capsys, "counterexample", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["separated"] is True
    assert Fraction(doc["fixed_first_step"]) == Fraction(3, 2) + Fraction(1, 32)
    assert Fraction(doc["adaptive_max_step"]) <= 1
    assert doc["nr"] == "Holds"


def test_counterexample_out_of_range(capsys):
    for bad in ("2", "13"):
        code, _, err = run(capsys, "counterexample", bad)
        assert code == 2
        assert "between 3 and 12" in err


def test_counterexample_refuses_above_the_overridden_tree_cap(capsys, monkeypatch):
    def never(n):
        raise AssertionError("the measure was built")

    monkeypatch.setenv("NEGDEP_MAX_N", "13")
    monkeypatch.setattr(cli, "family_nand", never)
    code, out, err = run(capsys, "counterexample", "14")
    assert (code, out) == (2, "")
    assert err == "error: n must be between 3 and 13, got 14\n"


@pytest.mark.parametrize("cap_value, n", [("2", "3"), ("0", "5"), ("2", "2")])
def test_counterexample_names_a_tree_cap_below_3(capsys, monkeypatch, cap_value, n):
    monkeypatch.setenv("NEGDEP_MAX_N", cap_value)
    code, out, err = run(capsys, "counterexample", n)
    assert (code, out) == (2, "")
    assert err == f"error: counterexample needs n >= 3, but the tree cap is {cap_value}\n"


def test_counterexample_runs_up_to_the_overridden_tree_cap(capsys, monkeypatch):
    checked = []

    def holds(m):  # the NR check at n = 13 is slow; the trees are not
        checked.append(m.n)
        return NotionReport(Notion.NEG_REGRESSION, Verdict.HOLDS, None)

    monkeypatch.setenv("NEGDEP_MAX_N", "13")
    monkeypatch.setattr(cli, "check_neg_regression", holds)
    code, out, _ = run(capsys, "counterexample", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert checked == [13]
    assert (doc["n"], doc["nr"], doc["separated"]) == (13, "Holds", True)
    assert Fraction(doc["fixed_first_step"]) == 5 + Fraction(1, 2 ** 12)


def test_counterexample_skips_nr_above_cap(capsys, monkeypatch):
    # keep it fast: n=11 builds 2^11-leaf trees but skips the NR check
    code, out, _ = run(capsys, "counterexample", "11")
    assert code == 0
    assert "skipped" in out


# -- plumbing ----------------------------------------------------------------


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_mutually_exclusive_source(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["check", "--family", "nand:3", "--file", "x.json"])
    assert exc_info.value.code == 2


def test_one_parser_per_process_prints_what_a_fresh_parser_prints(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["check", "--family", "nand:3", "--file", "x.json"],  # usage error, exit 2
        ["tail", "--family", "nand:4", "--grid", "0:1:2", "--format", "json"],
        ["tail", "--family", "nand:4"],  # the defaults, not the last call's flags
        ["check", "--family", "nand:4", "--notions", "nr,sc"],
        ["counterexample", "5"],
    ]

    def outputs():
        seen = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    cached = outputs()
    assert [code for code, _, _ in cached] == [2, 0, 0, 1, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == cached


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    # the version is written once: the package metadata reads __version__
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert not re.search(r"^version = \"", pyproject, re.MULTILINE)
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.MULTILINE)
    assert re.search(
        r'^version = \{attr = "negdep.__version__"\}$', pyproject, re.MULTILINE
    )


class _ClosedPipe:
    """A stdout whose reader has gone.  Flushing raises; so does writing,
    unless the text still fits in the buffer."""

    def __init__(self, fd, buffered):
        self._fd, self._buffered = fd, buffered

    def write(self, text):
        if not self._buffered:
            self.flush()

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        if self._fd is None:
            raise io.UnsupportedOperation("fileno")
        return self._fd


_TAIL_JSON = ["tail", "--family", "nand:5", "--f", "random:1:monotone", "--format", "json"]


def _open_fds():
    return len(list(Path("/proc/self/fd").iterdir()))


@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_exits_141_without_error_line(capsys, monkeypatch, tmp_path, buffered):
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(sink.fileno(), buffered))
        before = _open_fds()
        code = main(_TAIL_JSON)
        assert _open_fds() == before  # the devnull descriptor is closed again
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_without_descriptor_exits_141(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", _ClosedPipe(None, buffered=False))
    assert main(_TAIL_JSON) == 141
    assert capsys.readouterr().err == ""
