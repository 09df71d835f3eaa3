"""Differential tests for reading measures on integers.

``ExplicitMeasure.from_atoms`` (and so ``from_json``, ``load`` and the
constructor) reads each mass as an integer (numerator, denominator) pair
and builds the weights over their lcm.  The Fraction-based reader it
replaced is frozen below; on every input both must build the same
measure or raise the same exception type with the same message.
"""

import json
import random
from fractions import Fraction
from math import lcm

import pytest

from negdep.bitops import bits_from_mask, cap
from negdep.errors import BadWidth, MalformedMeasure, MassNotOne, NegativeMass, TooLarge
from negdep.measure import (
    ExplicitMeasure,
    format_ratio,
    format_rational,
    parse_ratio,
    parse_rational,
    random_measure,
    zoo,
)

# -- the Fraction reader, frozen ---------------------------------------------


def frozen_parse_rational(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def frozen_mask_from_bits(bits: str) -> int:
    mask = 0
    for pos, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << pos
        elif ch != "0":
            raise ValueError(f"not a bitstring: {bits!r}")
    return mask


def frozen_check_width(n: int) -> None:
    if n < 1:
        raise BadWidth("n must be a positive integer")
    if n > cap("measure"):
        raise TooLarge(f"n={n} exceeds the measure cap {cap('measure')}")


def frozen_init(n: int, mass: dict) -> tuple:
    """The Fraction constructor: (n, D, weights) of the measure."""
    frozen_check_width(n)
    full = (1 << n) - 1
    clean = {}
    for key, p in mass.items():
        if key < 0 or key > full:
            raise BadWidth(f"atom {key} does not fit in {n} bits")
        p = frozen_parse_rational(p)
        if p < 0:
            raise NegativeMass(f"atom {bits_from_mask(key, n)} has mass {p}")
        if p > 0:
            clean[key] = p
    denom = lcm(*(p.denominator for p in clean.values()))
    weights = {k: p.numerator * (denom // p.denominator) for k, p in clean.items()}
    total = sum(weights.values())
    if total != denom:
        raise MassNotOne(f"masses sum to {Fraction(total, denom)}, expected 1")
    return n, denom, weights


def frozen_from_atoms(n: int, atoms) -> tuple:
    frozen_check_width(n)
    mass = {}
    for key, p in atoms:
        if isinstance(key, str):
            if len(key) != n:
                raise BadWidth(f"bitstring {key!r} is not {n} bits wide")
            key = frozen_mask_from_bits(key)
        p = frozen_parse_rational(p)
        mass[key] = mass.get(key, Fraction(0)) + p
    return frozen_init(n, mass)


def outcome(build, *args):
    """(n, D, weights) of the measure built, or (exception type, message)."""
    try:
        m = build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)
    if isinstance(m, ExplicitMeasure):
        return (m.n, *m.scaled_weights())
    return m


def assert_same(n, atoms):
    atoms = list(atoms)
    new = outcome(ExplicitMeasure.from_atoms, n, atoms)
    assert new == outcome(frozen_from_atoms, n, atoms), atoms
    return new


# -- inputs ------------------------------------------------------------------

MASSES = [
    "1/2", "2/4", "0.25", "1e-1", " 1/2", "1/ 2", "+1/2", "-1/2", "1_0/20",
    "٣/4", "1/0", "abc", "", "0", "00/7", "1", "1/", "/2", "0/0", "3/6\n",
    "1/2/3", "0x1", "0.5e0", "１/2", "1.5", "-0", "07/14",
    1, 0, -1, True, Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(6, 4),
]


def complement(p):
    """A second mass making a two-atom measure sum to 1, or "1/2"."""
    try:
        return str(1 - frozen_parse_rational(p))
    except ValueError:
        return "1/2"


@pytest.mark.parametrize("p", MASSES, ids=repr)
def test_one_mass_in_every_position(p):
    if isinstance(p, bool):
        # the frozen reader read JSON true as 1; a boolean is no rational
        for atoms in ([("1", p)], [("0", p), ("1", "1/2")], [(0, "1/2"), (1, p)]):
            with pytest.raises(MalformedMeasure, match="is a boolean, not a rational"):
                ExplicitMeasure.from_atoms(1, atoms)
        return
    assert_same(1, [("1", p)])
    assert_same(1, [("0", p), ("1", complement(p))])
    assert_same(2, [("01", complement(p)), ("10", p)])
    assert_same(2, [("01", p), ("01", p), ("11", p)])
    assert_same(1, [(0, p), (1, "1/2")])


def test_the_listed_inputs_succeed_or_fail_as_before():
    # a sample of the outcomes, so a change to both readers still shows
    assert assert_same(1, [("0", "2/4"), ("1", "0.5")]) == (1, 2, {0: 1, 1: 1})
    assert assert_same(1, [("0", "1e-1"), ("1", "9/10")]) == (1, 10, {0: 1, 1: 9})
    assert assert_same(1, [("0", "1_0/20"), ("1", "٣/6")]) == (1, 2, {0: 1, 1: 1})
    assert assert_same(1, [("0", "1/0")]) == (ValueError, "zero denominator in '1/0'")
    assert assert_same(1, [("0", "-1/2"), ("1", "3/2")]) == (
        NegativeMass, "atom 0 has mass -1/2"
    )
    assert assert_same(1, [("0", "1/3"), ("1", "1/3")]) == (
        MassNotOne, "masses sum to 2/3, expected 1"
    )
    assert assert_same(1, [("0", "abc")])[0] is ValueError
    assert assert_same(1, [("0", "")])[0] is ValueError


@pytest.mark.parametrize(
    "n, atoms",
    [
        # duplicate atoms, merged before the sign and sum checks
        (2, [("01", "1/4"), ("01", "2/8"), ("10", "0.5")]),
        (1, [("0", "1/2"), ("0", "-1/2"), ("1", "1")]),
        (1, [("0", "1/2"), ("0", "-1"), ("1", "3/2")]),
        (1, [("1", "1/3"), ("0", "1/3"), ("1", "1/3")]),
        (2, [(1, "1/6"), ("10", "1/6"), (1, 1), ("10", "-1/3")]),
        # all-zero atoms
        (2, [("00", "0"), ("11", "0/5")]),
        (2, []),
        (1, [("0", "0"), ("1", 1)]),
        # over-wide keys
        (2, [("011", "1")]),
        (2, [("1", "1")]),
        (2, [(4, "1")]),
        (2, [(-1, "1")]),
        (2, [("00", "1/2"), (7, "1/2")]),
        (2, [(7, "1/0")]),
        (2, [("0a", "1")]),
        (0, [("0", "1")]),
        (cap("measure") + 1, []),
        # masses not summing to 1
        (2, [("00", "1/3"), ("11", "1/3")]),
        (2, [("00", "2/3"), ("11", "2/3")]),
        (1, [("0", "5/10"), ("1", "6/10")]),
        (1, [("0", Fraction(1, 2)), ("1", 1)]),
        # large and coprime denominators
        (2, [("00", "1/1000003"), ("01", "1/999983"), ("10", "2/3"),
             ("11", str(Fraction(1, 3) - Fraction(1, 1000003) - Fraction(1, 999983)))]),
    ],
)
def test_atom_lists(n, atoms):
    assert_same(n, atoms)


@pytest.mark.parametrize(
    "mass",
    [
        {0: "1/2", 1: "2/4"},
        {0: Fraction(1, 3), 3: "2/3"},
        {0: "1/0"},
        {0: "-1/2", 1: "3/2"},
        {4: "1"},
        {0: "0", 1: "0"},
        {0: "0.3", 1: "0.6"},
        {1: 1, 2: 0},
    ],
)
def test_constructor(mass):
    new = outcome(ExplicitMeasure, 2, mass)
    assert new == outcome(frozen_init, 2, mass)


def spellings(p: Fraction, rng: random.Random) -> str:
    """One of several textual forms of p, lowest terms or not."""
    k = rng.randrange(1, 5)
    forms = [
        str(p),
        f"{p.numerator * k}/{p.denominator * k}",
        f" {p.numerator}/{p.denominator} ",
        f"0{p.numerator * k}/{p.denominator * k}",
        f"+{p.numerator}/{p.denominator}",
        f"{p.numerator}_0/{p.denominator}_0",
    ]
    if 10 ** 6 % p.denominator == 0:
        forms.append(f"{p.numerator * (10 ** 6 // p.denominator)}e-6")
    return rng.choice(forms)


def test_seeded_measures_in_mixed_spellings():
    rng = random.Random(14)
    for trial in range(200):
        n = rng.randint(1, 6)
        m = random_measure(n, rng, max_weight=rng.choice((4, 1000, 1 << 40)))
        atoms = [(bits_from_mask(k, n), spellings(p, rng)) for k, p in m.items()]
        if trial % 3 == 0:  # split an atom in two
            key, p = atoms.pop()
            half = frozen_parse_rational(p) / 2
            atoms += [(key, spellings(half, rng)), (key, str(half))]
        rng.shuffle(atoms)
        assert assert_same(n, atoms) == (m.n, *m.scaled_weights())


def test_saved_files_load_to_the_same_measure(tmp_path):
    path = tmp_path / "m.json"
    for name, m in zoo().items():
        m.save(path)
        doc = json.loads(path.read_text())
        assert doc == {
            "n": m.n,
            "atoms": [{"x": bits_from_mask(k, m.n), "p": str(p)} for k, p in m.atoms()],
        }
        assert ExplicitMeasure.load(path) == m, name
        assert outcome(frozen_from_atoms, m.n, [(a["x"], a["p"]) for a in doc["atoms"]]) == (
            m.n, *m.scaled_weights()
        )


def test_parse_ratio_is_parse_rational_as_a_pair():
    rng = random.Random(3)
    texts = [m for m in MASSES if not isinstance(m, str) or m.strip()]
    texts += [f"{rng.randrange(10 ** 9)}/{rng.randrange(1, 10 ** 9)}" for _ in range(200)]
    texts += [str(rng.randrange(10 ** 30)) for _ in range(50)]
    for text in texts:
        if isinstance(text, bool):
            with pytest.raises(MalformedMeasure):
                parse_ratio(text)
            continue
        try:
            want = parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_ratio(text)
            assert str(got.value) == str(exc)
            continue
        num, den = parse_ratio(text)
        assert den > 0 and Fraction(num, den) == want, text


def test_format_ratio_is_str_of_the_fraction():
    rng = random.Random(8)
    pairs = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (12, 12), (1 << 80, 3 << 70)]
    pairs += [(rng.randrange(-10 ** 12, 10 ** 12), rng.randrange(1, 10 ** 6)) for _ in range(500)]
    for a, b in pairs:
        assert format_ratio(a, b) == str(Fraction(a, b)) == format_rational(Fraction(a, b))
