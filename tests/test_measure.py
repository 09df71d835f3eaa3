import json
import random
import re
from fractions import Fraction

import pytest

from negdep.errors import (
    BadWidth,
    DimensionMismatch,
    EmptyConditioningEvent,
    InvalidTestFunction,
    MalformedMeasure,
    MassNotOne,
    NegativeMass,
    ZeroProbabilityEvent,
)
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    TestFunction,
    constant_function,
    family_anti_pair,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    family_pos_pair,
    format_rational,
    new_explicit,
    parse_rational,
    random_lipschitz,
    sum_function,
    xor_function,
)

HALF = Fraction(1, 2)


# -- rationals ---------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == 2
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_rational_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_zero_denominator_in_measure_file_is_value_error():
    doc = {"n": 1, "atoms": [{"x": "1", "p": "1/0"}]}
    with pytest.raises(ValueError, match="zero denominator"):
        ExplicitMeasure.from_json(doc)


def test_zero_denominator_in_constructor_mass_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        ExplicitMeasure(1, {0: "1/0"})


def test_constructor_parses_string_masses():
    m = ExplicitMeasure(2, {0: "1/4", 3: "0.75"})
    assert m == ExplicitMeasure(2, {0: Fraction(1, 4), 3: Fraction(3, 4)})


def test_zero_denominator_in_family_probability_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        family_independent(["1/0"])


def test_zero_denominator_in_constant_value_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        constant_function(2, "1/0")


def test_format_rational():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(2)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    # values that are not Fractions are read as one first
    assert format_rational(3) == "3"
    assert format_rational("6/4") == "3/2"


# -- assignments -------------------------------------------------------------


def test_assignment_basics():
    a = Assignment.of({2: 1, 1: 0})
    assert a.indices == (1, 2)
    assert a.values == (0, 1)
    assert a.index_mask == 0b011
    assert a.value_mask == 0b010
    assert a.matches(0b010)
    assert a.matches(0b110)
    assert not a.matches(0b001)
    assert Assignment.empty().matches(0)


def test_assignment_masks_cached_outside_equality():
    a = Assignment.of({3: 1, 1: 0})
    b = Assignment.of({3: 1, 1: 0})
    assert (a.index_mask, a.value_mask) == (0b101, 0b100)
    assert a.__dict__["index_mask"] == 0b101  # computed once, then stored
    assert a == b and hash(a) == hash(b)


def test_assignment_extended():
    a = Assignment.of({1: 1}).extended(3, 0)
    assert a.indices == (1, 3)
    assert a.values == (1, 0)
    assert a == Assignment((1, 3), (1, 0)) and hash(a) == hash(Assignment((1, 3), (1, 0)))
    assert (a.index_mask, a.value_mask) == (0b101, 0b001)
    # each bad extension raises the constructor's message for the same tuple
    messages = set()
    for index, value in [(1, 0), (3, 1), (0, 1), (-2, 0), (2, 2), (2, -1), (3, 7)]:
        with pytest.raises(ValueError) as built:
            Assignment(a.indices + (index,), a.values + (value,))
        with pytest.raises(ValueError, match=f"^{re.escape(str(built.value))}$"):
            a.extended(index, value)
        messages.add(str(built.value))
    assert messages == {
        "assignment indices must be distinct",
        "assignment indices are 1-based",
        "assignment values must be bits",
    }


# -- construction and validation --------------------------------------------


def test_nand3_atoms():
    m = family_nand(3)
    assert m.n == 3
    expected = {0b001: 1, 0b011: 1, 0b101: 1, 0b110: 1}
    assert dict((k, v * 4) for k, v in m.items()) == expected
    assert m.prob("100") == Fraction(1, 4)
    assert m.prob("000") == 0


def test_mass_must_sum_to_one():
    with pytest.raises(MassNotOne):
        new_explicit(2, [("00", HALF), ("11", Fraction(1, 3))])


def test_negative_mass_rejected():
    with pytest.raises(NegativeMass):
        ExplicitMeasure(1, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_atom_width_checked():
    with pytest.raises(BadWidth):
        ExplicitMeasure(2, {5: Fraction(1)})
    with pytest.raises(BadWidth):
        new_explicit(2, [("101", Fraction(1))])


def test_duplicate_atoms_merge():
    m = new_explicit(1, [("1", HALF), ("1", Fraction(1, 4)), ("0", Fraction(1, 4))])
    assert m.prob("1") == Fraction(3, 4)


def test_scaled_weights():
    denom, weights = family_nand(3).scaled_weights()
    assert denom == 4
    assert weights == {0b001: 1, 0b011: 1, 0b101: 1, 0b110: 1}
    assert sum(weights.values()) == denom


def test_atoms_sorted_by_bitstring():
    m = family_nand(3)
    bit_order = [bin(k) for k, _ in m.atoms()]
    assert [k for k, _ in m.atoms()] == sorted(
        m.support(), key=lambda k: format(k, "03b")[::-1]
    ), bit_order


# -- queries -----------------------------------------------------------------


def test_expectation_and_mean():
    m = family_nand(4)
    assert m.expectation(sum_function(4)) == Fraction(19, 8)
    means = m.mean_vector()
    assert means[0] == Fraction(7, 8)
    assert means[1:] == [HALF, HALF, HALF]


def test_marginal():
    m = family_nand(4)
    one = m.marginal([1])
    assert one.n == 1
    assert one.prob(1) == Fraction(7, 8)
    pair = m.marginal([2, 3])
    assert pair.n == 2
    assert pair.prob("11") == Fraction(1, 4)


def test_marginal_rejects_bad_subset():
    with pytest.raises(DimensionMismatch):
        family_nand(3).marginal([0])
    with pytest.raises(DimensionMismatch):
        family_nand(3).marginal([4])


def test_condition_relabels_ascending():
    m = family_nand(3)
    c = m.condition(Assignment.of({1: 0}))
    assert c.n == 2
    assert c.prob("11") == 1  # remaining variables are the old 2 and 3
    with pytest.raises(ZeroProbabilityEvent):
        m.condition(Assignment.of({1: 0, 2: 0}))


def test_condition_no_op():
    m = family_nand(3)
    c = m.condition(Assignment.empty())
    assert c == m


def test_prob_of_assignment():
    m = family_nand(3)
    assert m.prob_of_assignment(Assignment.of({1: 1})) == Fraction(3, 4)
    assert m.prob_of_assignment(Assignment.of({2: 1, 3: 1})) == Fraction(1, 4)


@pytest.mark.parametrize("value", [0, 1])
def test_assignment_index_out_of_range(value):
    m = family_nand(3)
    on = Assignment.of({4: value})
    with pytest.raises(DimensionMismatch):
        m.prob_of_assignment(on)
    with pytest.raises(DimensionMismatch):
        m.condition(on)


def test_measure_equality_and_hash():
    a = family_anti_pair()
    b = new_explicit(2, [("10", HALF), ("01", HALF)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != family_pos_pair()


# -- serialization -----------------------------------------------------------


def test_json_roundtrip(tmp_path):
    m = family_conditioned_sum([HALF] * 5, 2, 3)
    doc = m.to_json()
    assert doc["n"] == 5
    assert all(set(atom) == {"x", "p"} for atom in doc["atoms"])
    assert all("/" in atom["p"] or atom["p"].isdigit() for atom in doc["atoms"])
    path = tmp_path / "m.json"
    m.save(path)
    loaded = ExplicitMeasure.load(path)
    assert loaded == m
    # file content is valid JSON with string rationals
    raw = json.loads(path.read_text())
    assert raw["atoms"][0]["x"].count("0") + raw["atoms"][0]["x"].count("1") == 5


def test_from_json_rejects_bad_mass():
    with pytest.raises(MassNotOne):
        ExplicitMeasure.from_json(
            {"n": 1, "atoms": [{"x": "1", "p": "1/3"}]}
        )


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "atoms": {"10": "1/2", "01": "1/2"}},  # atoms keyed by bitstring
        {"n": 2},                                        # no atoms
        {"atoms": [{"x": "1", "p": "1"}]},               # no n
        {"n": None, "atoms": []},
        {"n": 1, "atoms": [{"x": "1"}]},                 # atom without p
        {"n": 1, "atoms": [{"x": ["1"], "p": "1"}]},
        [{"x": "1", "p": "1"}],
        {"n": True, "atoms": [{"x": "1", "p": "1"}]},   # bool is an int subclass
        {"n": False, "atoms": [{"x": "", "p": "1"}]},
        {"n": "2", "atoms": [{"x": "10", "p": "1"}]},     # n is a JSON integer
        {"n": " 2", "atoms": [{"x": "10", "p": "1"}]},
        {"n": 2.0, "atoms": [{"x": "10", "p": "1"}]},
        {"n": 1, "atoms": [{"x": "1", "p": True}]},      # a mass is no boolean
        {"n": 1, "atoms": [{"x": "0", "p": False}, {"x": "1", "p": "1"}]},
    ],
)
def test_from_json_rejects_malformed_documents(doc):
    with pytest.raises(MalformedMeasure):
        ExplicitMeasure.from_json(doc)


# -- test functions ----------------------------------------------------------


def test_sum_function_values():
    f = sum_function(3)
    assert f.values[0b000] == 0
    assert f.values[0b111] == 3
    assert f.declared_monotone
    assert f.exact_range() == (0, 3)


def test_xor_function_not_monotone():
    f = xor_function(2)
    assert not f.declared_monotone
    assert f.values[0b11] == 0
    assert f.values[0b01] == 1


def test_constant_function():
    f = constant_function(4, Fraction(7, 2))
    assert f.exact_range() == (Fraction(7, 2), Fraction(7, 2))
    assert f.declared_monotone


def test_lipschitz_violation_rejected():
    with pytest.raises(InvalidTestFunction):
        TestFunction(2, [0, 2, 0, 0], name="jump")


def test_monotone_declaration_verified():
    with pytest.raises(InvalidTestFunction):
        TestFunction(2, [1, 0, 1, 1], declared_monotone=True, name="drop")
    # the same values are fine without the declaration
    TestFunction(2, [1, 0, 1, 1], name="drop")


def test_from_callable():
    f = TestFunction.from_callable(
        3, lambda bits: Fraction(sum(bits)), declared_monotone=True, name="pc"
    )
    assert f.values[0b111] == 3
    assert f(0b101) == 2


def test_random_lipschitz_is_lipschitz_and_monotone():
    rng = random.Random(5)
    for k in range(10):
        monotone = k % 2 == 0
        f = random_lipschitz(4, rng, monotone=monotone)
        assert f.declared_monotone == monotone
        # construction re-verifies; re-check edges independently
        for mask in range(16):
            for b in range(4):
                other = mask ^ (1 << b)
                assert abs(f.values[mask] - f.values[other]) <= 1
                if monotone and other > mask and other == mask | (1 << b):
                    assert f.values[other] >= f.values[mask]


def test_random_lipschitz_deterministic_per_seed():
    f1 = random_lipschitz(5, random.Random(99), monotone=False)
    f2 = random_lipschitz(5, random.Random(99), monotone=False)
    assert f1.values == f2.values


# -- families ----------------------------------------------------------------


def test_family_independent():
    m = family_independent([Fraction(1, 3), Fraction(2, 3)])
    assert m.prob("00") == Fraction(2, 3) * Fraction(1, 3)
    assert m.prob("11") == Fraction(1, 3) * Fraction(2, 3)
    assert m.prob("10") == Fraction(1, 9)


def test_family_independent_degenerate():
    m = family_independent([Fraction(1), HALF])
    assert m.prob("10") == HALF
    assert m.prob("00") == 0


def test_family_conditioned_sum():
    m = family_conditioned_sum([HALF, HALF], 1, 1)
    assert m == family_anti_pair()
    with pytest.raises(EmptyConditioningEvent):
        family_conditioned_sum([HALF, HALF], 3, 4)


def test_family_balls_bins():
    m = family_balls_bins(2, 2)
    # variable (i-1)*bins + j is "ball i landed in bin j"
    assert m.n == 4
    assert m.prob("1010") == Fraction(1, 4)
    assert m.prob("0101") == Fraction(1, 4)
    assert m.prob("1001") == Fraction(1, 4)
    assert m.prob("0110") == Fraction(1, 4)
    assert m.prob("1100") == 0


def test_family_hadamard():
    m = family_hadamard(4)
    assert m.n == 3
    for bits in ("001", "010", "100", "111"):
        assert m.prob(bits) == Fraction(1, 4)
    m8 = family_hadamard(8)
    assert m8.n == 7
    assert len(m8.support()) == 8
    with pytest.raises(BadWidth):
        family_hadamard(6)


def test_family_nand_mean():
    for n in range(2, 8):
        m = family_nand(n)
        assert m.mean_vector()[0] == 1 - Fraction(1, 2 ** (n - 1))


def test_family_pairs():
    anti = family_anti_pair()
    assert anti.prob("10") == HALF and anti.prob("01") == HALF
    pos = family_pos_pair()
    assert pos.prob("00") == HALF and pos.prob("11") == HALF
