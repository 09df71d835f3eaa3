"""The measure and coupling text writers against the `json` module.

`ExplicitMeasure.to_text` and `Coupling.to_text` write their documents
straight from the integer core.  Their bytes must equal
``json.dumps(doc, indent=2)`` of the documents that the dict builders
below produce, which are frozen copies of the builders the writers
replaced, and ``to_json()`` must equal ``json.loads`` of the text.  The
inputs are the catalog, 320 seeded random measures with n = 1..8, a
conditioned sum with common denominator near 2^128 and couplings of its
conditionals, couplings in plain and covering mode of seeded dominating
pairs (conditionals of conditioned sums, and product measures below
coordinatewise larger ones), files written by ``save``, and the ``family`` and ``coupling``
commands.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from negdep.bitops import bits_from_mask
from negdep.cli import main
from negdep.coupling import Coupling, build_monotone_coupling
from negdep.errors import DominanceFails
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_conditioned_sum,
    family_independent,
    format_ratio,
    parse_family,
    random_measure,
    zoo,
)

# n = 8 with common denominator near 2^128
WIDE_SPEC = (
    "condsum:9973/65521,19946/65519,29919/65497,39892/65479,49865/65449,"
    "59838/65447,4374/65437,14361/65423:1:7"
)


def frozen_measure_doc(m: ExplicitMeasure) -> dict:
    n, (d, weights) = m.n, m.scaled_weights()
    rows = sorted((bits_from_mask(k, n), w) for k, w in weights.items())
    return {"n": n, "atoms": [{"x": x, "p": format_ratio(w, d)} for x, w in rows]}


def frozen_coupling_doc(c: Coupling) -> dict:
    n, s = c.n, c.scale
    rows = sorted(
        (bits_from_mask(x, n), bits_from_mask(y, n), f) for (x, y), f in c.flows.items()
    )
    return {
        "n": n,
        "covering": c.covering,
        "pairs": [{"x": x, "y": y, "p": format_ratio(f, s)} for x, y, f in rows],
        "lower": frozen_measure_doc(c.lower),
        "upper": frozen_measure_doc(c.upper),
    }


def assert_writes_json(obj, frozen_doc) -> None:
    text = obj.to_text()
    assert text == json.dumps(frozen_doc(obj), indent=2)
    assert obj.to_json() == json.loads(text)


def seeded_measures() -> list[ExplicitMeasure]:
    rng = random.Random(25)
    return [
        random_measure(n, rng, max_weight=rng.choice((1, 8, 10**6)))
        for n in range(1, 9)
        for _ in range(40)
    ]


def seeded_dominating_pairs() -> list[tuple[ExplicitMeasure, ExplicitMeasure]]:
    """(lower, upper): the conditionals on x_i = 1 below those on x_i = 0
    of seeded conditioned sums, and seeded product measures below ones
    with coordinatewise larger probabilities."""
    rng = random.Random(52)
    pairs = []
    for n in range(3, 10):
        probs = [Fraction(rng.randint(1, 11), 12) for _ in range(n)]
        lo = rng.randint(1, n - 2)
        m = family_conditioned_sum(probs, lo, rng.randint(lo, n - 1))
        for i in rng.sample(range(1, n + 1), 2):
            pairs.append((m.condition(Assignment((i,), (1,))),
                          m.condition(Assignment((i,), (0,)))))
    for n in range(1, 8):
        below = [rng.randint(0, 6) for _ in range(n)]
        above = [k + rng.randint(0, 7 - k) for k in below]
        pairs.append((family_independent([Fraction(k, 7) for k in below]),
                      family_independent([Fraction(k, 7) for k in above])))
    return pairs


def seeded_couplings() -> list[Coupling]:
    out = []
    for lower, upper in seeded_dominating_pairs():
        for covering in (False, True):
            with contextlib.suppress(DominanceFails):
                out.append(build_monotone_coupling(lower, upper, covering))
    return out


COUPLINGS = seeded_couplings()


def test_inputs_cover_both_modes_and_large_couplings():
    assert len(zoo()) == 17
    assert len(seeded_measures()) >= 300
    plain = [c for c in COUPLINGS if not c.covering]
    assert len(plain) == len(seeded_dominating_pairs())
    assert len(COUPLINGS) - len(plain) >= 10
    assert max(len(c.flows) for c in COUPLINGS) > 100


@pytest.mark.parametrize("name", sorted(zoo()))
def test_catalog_measure_text_is_json_dumps(name):
    assert_writes_json(zoo()[name], frozen_measure_doc)


def test_seeded_measure_text_is_json_dumps():
    for m in seeded_measures():
        assert_writes_json(m, frozen_measure_doc)


def test_wide_denominator_measure_text_is_json_dumps():
    m = parse_family(WIDE_SPEC)
    assert m.scaled_weights()[0] > 1 << 127
    assert_writes_json(m, frozen_measure_doc)


@pytest.mark.parametrize("covering", [False, True])
def test_wide_denominator_coupling_text_is_json_dumps(covering):
    m = parse_family(WIDE_SPEC)
    lower, upper = (m.condition(Assignment((1,), (v,))) for v in (1, 0))
    c = build_monotone_coupling(lower, upper, covering)
    assert c.scale > 1 << 200
    assert_writes_json(c, frozen_coupling_doc)


@pytest.mark.parametrize("k", range(len(COUPLINGS)))
def test_coupling_text_is_json_dumps(k):
    assert_writes_json(COUPLINGS[k], frozen_coupling_doc)


def test_nested_measures_are_indented_as_members():
    c = COUPLINGS[0]
    text = c.to_text()
    for name, m in (("lower", c.lower), ("upper", c.upper)):
        nested = m.to_text("  ")
        assert f'\n  "{name}": {nested}' in text
        assert nested == json.dumps(frozen_measure_doc(m), indent=2).replace("\n", "\n  ")


def test_empty_pair_map_is_written_as_json_dumps_writes_it():
    # the constructor takes an empty flow map without validating it
    m = parse_family("independent:1/2,1/2")
    c = Coupling(m, m, {}, 1)
    assert c.to_text() == json.dumps(c.to_json(), indent=2)
    assert '\n  "pairs": [],\n' in c.to_text()
    assert_writes_json(c, frozen_coupling_doc)


def test_empty_pair_map_fails_validation():
    m = parse_family("independent:1/2,1/2")
    with pytest.raises(ValueError, match="^first marginal does not match the lower measure$"):
        Coupling(m, m, {}, 1).validate()


def test_zero_mass_pair_off_both_supports_is_written():
    # from_json keeps a pair of mass 0 whose points carry no mass
    c, outside = next((c, k) for c in COUPLINGS for k in range(1 << c.n)
                      if c.lower.prob(k) == 0 and c.upper.prob(k) == 0)
    doc = c.to_json()
    bits = bits_from_mask(outside, c.n)
    doc["pairs"].append({"x": bits, "y": bits, "p": "0"})
    loaded = Coupling.from_json(doc)
    loaded.validate()
    assert_writes_json(loaded, frozen_coupling_doc)


def test_save_load_round_trips(tmp_path):
    path = tmp_path / "doc.json"
    for m in [*zoo().values(), parse_family(WIDE_SPEC), *seeded_measures()[::16]]:
        m.save(path)
        assert path.read_text() == json.dumps(frozen_measure_doc(m), indent=2) + "\n"
        assert ExplicitMeasure.load(path) == m
    for c in COUPLINGS:
        c.save(path)
        assert path.read_text() == json.dumps(frozen_coupling_doc(c), indent=2) + "\n"
        loaded = Coupling.load(path)
        assert (loaded.lower, loaded.upper, loaded.covering) == (c.lower, c.upper, c.covering)
        assert loaded.mass == c.mass
        loaded.validate()


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("spec", ["nand:6", "hadamard:8", "independent:1/3,2/3,1/4", WIDE_SPEC])
def test_family_command_prints_json_dumps(spec):
    code, stdout = run(["family", "--spec", spec])
    assert code == 0
    assert stdout == json.dumps(frozen_measure_doc(parse_family(spec)), indent=2) + "\n"


@pytest.mark.parametrize("covering", [False, True])
def test_coupling_command_writes_json_dumps(tmp_path, covering):
    lower, upper = seeded_dominating_pairs()[4]
    lower.save(tmp_path / "lower.json")
    upper.save(tmp_path / "upper.json")
    out = tmp_path / "coupling.json"
    argv = ["coupling", "--lower", str(tmp_path / "lower.json"),
            "--upper", str(tmp_path / "upper.json"), "-o", str(out)]
    code, _ = run(argv + ["--covering"] * covering)
    assert code == 0
    c = build_monotone_coupling(lower, upper, covering)
    assert out.read_text() == json.dumps(frozen_coupling_doc(c), indent=2) + "\n"
