"""Inputs past what the parsers can expand are refused at once.

A decimal exponent beyond the interpreter's int-to-text digit limit
(`sys.get_int_max_str_digits()`) is TooLarge before Fraction builds its
power of ten, on every surface that reads a rational; so is a run of
digits longer than that limit, before int() reads it, and a value whose
numerator or denominator has more digits than that limit, which could
not be written back.  A JSON document nested too deeply for the
parser is MalformedMeasure.  The CLI ends all three with exit 2 and an
`error:` line.
"""

import json
import sys
import time
from fractions import Fraction

import pytest

from negdep.cli import main
from negdep.coupling import Coupling
from negdep.errors import MalformedMeasure, TooLarge
from negdep.measure import (
    ExplicitMeasure,
    parse_family,
    parse_ratio,
    parse_rational,
)

HUGE = ["1e-10000000", "1e99999999", " -2.5E+1_0000000 ", "7e" + "9" * 5000, "1e04301"]


def quick(call, *args):
    """call(*args), asserted to return or raise within a second."""
    start = time.perf_counter()
    try:
        return call(*args)
    finally:
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", HUGE, ids=lambda t: t[:16])
def test_parse_rational_refuses_a_huge_exponent(text):
    with pytest.raises(TooLarge, match=f"{sys.get_int_max_str_digits()}-digit limit"):
        quick(parse_rational, text)


def test_values_up_to_the_limit_parse():
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"3.5E-{limit - 2}") == Fraction(35, 10 ** (limit - 1))
    assert parse_rational("9" * limit) == 10 ** limit - 1
    # an exponent at the limit is read, and its value refused
    with pytest.raises(TooLarge, match=f"value of '1e{limit}' exceeds the {limit}-digit"):
        parse_rational(f"1e{limit}")
    with pytest.raises(TooLarge, match=f"exponent of '1e{limit + 1}'"):
        parse_rational(f"1e{limit + 1}")


@pytest.mark.parametrize("text, place", [
    ("1e{limit}", "numerator"), ("{nines}e1", "numerator"), ("-2.5E+{limit}", "numerator"),
    ("1e-{limit}", "denominator"), ("-0.5E-{limit}", "denominator"),
])
def test_a_value_with_one_digit_past_the_limit_is_too_large(text, place):
    limit = sys.get_int_max_str_digits()
    text = text.format(limit=limit, nines="9" * limit)
    with pytest.raises(TooLarge, match=f"{limit}-digit limit"):
        quick(parse_rational, text)
    value = Fraction(text)  # the interpreter reads it, but cannot write it
    with pytest.raises(ValueError, match="Exceeds the limit"):
        str(getattr(value, place))


# each form with a run of r digits, and its value
RUNS = {
    "numerator": lambda r: ("9" * r + "/2", Fraction(10**r - 1, 2)),
    "denominator": lambda r: ("1/" + "9" * r, Fraction(1, 10**r - 1)),
    "decimal": lambda r: ("0." + "0" * (r - 1) + "5", Fraction(5, 10**r)),
}


def _ratio(text):
    return Fraction(*parse_ratio(text))


@pytest.mark.parametrize("parse", [parse_rational, _ratio], ids=["rational", "ratio"])
@pytest.mark.parametrize("form", RUNS)
def test_a_digit_run_at_the_limit_parses_and_one_past_it_is_too_large(parse, form):
    limit = sys.get_int_max_str_digits()
    text, value = RUNS[form](limit)
    assert parse(text) == value
    text, _ = RUNS[form](limit + 1)
    with pytest.raises(TooLarge, match=f"value of '{text[:8]}.* exceeds the {limit}-digit limit"):
        quick(parse, text)


def test_the_limit_is_the_interpreter_setting():
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert parse_rational("1e4999") == 10 ** 4999
        with pytest.raises(TooLarge, match="value of '1e5000' exceeds the 5000-digit limit"):
            parse_rational("1e5000")
        with pytest.raises(TooLarge, match="exponent of '1e5001' exceeds the 5000-digit limit"):
            parse_rational("1e5001")
        assert parse_ratio("9" * 5000) == (10 ** 5000 - 1, 1)
        with pytest.raises(TooLarge, match="5000-digit limit"):
            parse_ratio("1/" + "9" * 5001)
        sys.set_int_max_str_digits(640)  # the lowest limit there can be
        assert parse_ratio("9" * 640) == (10 ** 640 - 1, 1)  # read by int
        with pytest.raises(TooLarge, match="640-digit limit"):
            parse_ratio("9" * 641)
        sys.set_int_max_str_digits(0)  # no limit
        assert parse_rational("1e-6000") == Fraction(1, 10 ** 6000)
        assert parse_ratio("1/" + "9" * 6000) == (1, 10 ** 6000 - 1)
    finally:
        sys.set_int_max_str_digits(before)


def test_measure_documents_and_family_specs_refuse_a_huge_exponent():
    doc = {"n": 1, "atoms": [{"x": "1", "p": "1e-10000000"}, {"x": "0", "p": "1"}]}
    with pytest.raises(TooLarge):
        quick(ExplicitMeasure.from_json, doc)
    # TooLarge is no ValueError, so the spec's form message does not hide it
    with pytest.raises(TooLarge, match="digit limit"):
        quick(parse_family, "independent:1e-10000000")


def run(capsys, *argv):
    code = quick(main, list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_refuses_a_huge_exponent(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "atoms": [{"x": "1", "p": "1e-99999999"}]}))
    for argv in [
        ["family", "--spec", "independent:1e-10000000"],
        ["check", "--file", str(path), "--notions", "nc"],
        ["tail", "--family", "nand:3", "--grid", "0:1e-99999999:1"],
        ["martingale", "--family", "nand:3", "--f", "constant:1e99999"],
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "digit limit" in err, argv


def test_cli_refuses_a_value_past_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"n": 1, "atoms": [{"x": "1", "p": f"1e-{limit}"}, {"x": "0", "p": "1"}]}))
    # a mass whose denominator has one digit more than int() reads
    long_run = tmp_path / "long_run.json"
    long_run.write_text(json.dumps(
        {"n": 1, "atoms": [{"x": "1", "p": "1/1" + "0" * limit}, {"x": "0", "p": "1"}]}))
    for argv in [
        ["martingale", "--family", "nand:3", "--f", f"constant:1e{limit}"],
        ["tail", "--family", "nand:3", "--f", f"constant:1e{limit}", "--grid", "0:1:2"],
        ["check", "--file", str(path), "--notions", "nc"],
        ["check", "--file", str(long_run), "--notions", "nc"],
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and f"exceeds the {limit}-digit limit" in err, argv
        assert "Exceeds the limit" not in err, argv


DEEP = 100_000


@pytest.fixture(params=["list", "atoms"])
def deep_file(request, tmp_path):
    nested = "[" * DEEP + "]" * DEEP
    text = nested if request.param == "list" else '{"n": 1, "atoms": ' + nested + "}"
    path = tmp_path / "deep.json"
    path.write_text(text)
    return path


def test_loads_refuse_deep_nesting(deep_file):
    for load in (ExplicitMeasure.load, Coupling.load):
        with pytest.raises(MalformedMeasure, match="nested too deeply"):
            load(deep_file)


def test_cli_refuses_deep_nesting(capsys, tmp_path, deep_file):
    half = tmp_path / "half.json"
    ExplicitMeasure.from_atoms(1, [("0", "1/2"), ("1", "1/2")]).save(half)
    for argv in [
        ["check", "--file", str(deep_file), "--notions", "nc"],
        ["coupling", "--lower", str(deep_file), "--upper", str(half)],
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "nested too deeply" in err, argv
