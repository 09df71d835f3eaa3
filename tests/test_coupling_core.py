"""Differential tests for couplings on integers.

A ``Coupling`` stores integer flows over one scale; ``validate`` sums
them per atom and compares with each measure's integer weights.  The
Fraction ``validate`` it replaced is frozen below: on valid couplings
and on mutated ones both must pass, or both must raise the same message.
"""

import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from negdep.bitops import bits_from_mask, is_submask
from negdep.coupling import Coupling, build_monotone_coupling
from negdep.errors import DimensionMismatch, DominanceFails, MalformedMeasure
from negdep.measure import Assignment, ExplicitMeasure, family_conditioned_sum, family_nand
from negdep.zoo import random_measure


def frozen_validate(lower, upper, mass, covering):
    """The Fraction validate, on a pair -> Fraction mass dict."""
    n = lower.n
    if lower.n != upper.n:
        raise DimensionMismatch("coupling marginals on different cubes")
    row, col = {}, {}
    for (x, y), p in mass.items():
        if p < 0:
            raise ValueError("coupling mass must be nonnegative")
        if not is_submask(x, y):
            raise ValueError(
                f"pair ({bits_from_mask(x, n)}, {bits_from_mask(y, n)})"
                " is not coordinatewise increasing"
            )
        if covering and (x ^ y).bit_count() > 1:
            raise ValueError("covering coupling moves more than one coordinate")
        if p > 0:
            row[x] = row.get(x, Fraction(0)) + p
            col[y] = col.get(y, Fraction(0)) + p
    if row != dict(lower.items()):
        raise ValueError("first marginal does not match the lower measure")
    if col != dict(upper.items()):
        raise ValueError("second marginal does not match the upper measure")


def verdict(check):
    try:
        check()
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return "valid"


def assert_same_verdict(c: Coupling):
    mass = {xy: Fraction(f, c.scale) for xy, f in c.flows.items()}
    new = verdict(c.validate)
    assert new == verdict(lambda: frozen_validate(c.lower, c.upper, mass, c.covering))
    return new


def valid_couplings():
    """Built couplings of dominating pairs in both modes, at n = 1..6."""
    out = []

    def add(lower, upper):
        for covering in (False, True):
            try:
                out.append(build_monotone_coupling(lower, upper, covering_mode=covering))
            except DominanceFails:
                pass

    probs = [Fraction(k, 7) for k in (2, 3, 4, 5, 1, 6)]
    for m in (family_nand(4), family_conditioned_sum(probs, 2, 4)):
        for i in range(1, m.n + 1):
            add(m.condition(Assignment((i,), (1,))), m.condition(Assignment((i,), (0,))))
    rng = random.Random(21)
    while len(out) < 48:
        n = rng.randint(1, 5)
        lower = random_measure(n, rng, max_weight=rng.choice((3, 1 << 30)))
        # raising one random coordinate of each atom gives a dominating law
        add(lower, ExplicitMeasure.from_atoms(
            n, [(x | 1 << rng.randrange(n), p) for x, p in lower.items()]
        ))
    return out


COUPLINGS = valid_couplings()


def mutations(c: Coupling, rng: random.Random):
    """(label, coupling) pairs, each breaking one invariant, or not."""
    flows = c.flows
    pairs = sorted(flows)
    xy = rng.choice(pairs)
    x, y = xy
    n = c.n
    yield "moved one unit up", replace(c, flows={**flows, xy: flows[xy] + 1})
    yield "moved one unit down", replace(c, flows={**flows, xy: flows[xy] - 1})
    if len(pairs) > 1:
        other = rng.choice([p for p in pairs if p != xy])
        yield "moved one unit across", replace(
            c, flows={**flows, xy: flows[xy] - 1, other: flows[other] + 1}
        )
    yield "negative flow", replace(c, flows={**flows, xy: -flows[xy]})
    yield "added negative pair", replace(c, flows={**flows, (0, (1 << n) - 1): -1})
    if y != x:
        rest = {k: v for k, v in flows.items() if k != xy}
        yield "reversed pair", replace(c, flows={**rest, (y, x): flows[xy]})
    full = (1 << n) - 1
    if n >= 2:
        yield "non-monotone zero pair", replace(c, flows={**flows, (full, 0): 0})
        yield "non-monotone pair", replace(c, flows={**flows, (1, 2): 1})
        # x <= y, two coordinates apart: allowed only without covering
        two = replace(c, flows={**flows, (0, 3): 0})
        yield "two-coordinate zero pair", two
        yield "two-coordinate zero pair, covering", replace(two, covering=True)
    yield "missing pair", replace(c, flows={k: v for k, v in flows.items() if k != xy})
    yield "missing atom", replace(c, flows={k: v for k, v in flows.items() if k[0] != x})
    yield "zero pair added", replace(c, flows={**flows, (0, 0): 0})
    yield "scale doubled", replace(c, scale=2 * c.scale)
    doubled = {k: 2 * v for k, v in flows.items()}
    yield "all doubled", replace(c, flows=doubled, scale=2 * c.scale)
    if n >= 2:
        wider = ExplicitMeasure.from_atoms(n + 1, [(k, p) for k, p in c.upper.items()])
        yield "different cubes", replace(c, upper=wider)
    yield "swapped marginals", replace(c, lower=c.upper, upper=c.lower)


@pytest.mark.parametrize("k", range(len(COUPLINGS)))
def test_validate_agrees_with_the_fraction_validate(k):
    c = COUPLINGS[k]
    assert assert_same_verdict(c) == "valid"
    rng = random.Random(k)
    seen = set()
    for label, mutated in mutations(c, rng):
        seen.add(assert_same_verdict(mutated))
    # the mutations reach the marginal checks and the support checks
    messages = {v[1] for v in seen if v != "valid"}
    assert "first marginal does not match the lower measure" in messages
    assert "coupling mass must be nonnegative" in messages


def test_each_mutation_raises_its_message():
    # 00 -> 10 or 01 with probability 1/2 each, at scale 2
    lower = ExplicitMeasure.from_atoms(2, [("00", 1)])
    upper = ExplicitMeasure.from_atoms(2, [("10", "1/2"), ("01", "1/2")])
    c = Coupling(lower, upper, {(0, 1): 1, (0, 2): 1}, 2, covering=True)
    assert assert_same_verdict(c) == "valid"
    cases = {
        "coupling mass must be nonnegative": {(0, 1): -1, (0, 2): 1},
        "pair (01, 10) is not coordinatewise increasing": {**c.flows, (2, 1): 0},
        "covering coupling moves more than one coordinate": {**c.flows, (0, 3): 0},
        "first marginal does not match the lower measure": {(0, 1): 1},
        "second marginal does not match the upper measure": {(0, 1): 2, (0, 2): 0},
    }
    for message, flows in cases.items():
        assert assert_same_verdict(replace(c, flows=flows)) == (ValueError, message)
    wider = ExplicitMeasure.from_atoms(3, [("100", 1)])
    assert assert_same_verdict(replace(c, upper=wider)) == (
        DimensionMismatch, "coupling marginals on different cubes"
    )


def test_coupling_stores_integers_only():
    types = {f.name: f.type for f in fields(Coupling)}
    assert "Fraction" not in " ".join(map(str, types.values()))
    for c in COUPLINGS:
        assert all(type(f) is int and f > 0 for f in c.flows.values())
        assert type(c.scale) is int and c.scale > 0
        assert c.mass == {xy: Fraction(f, c.scale) for xy, f in c.flows.items()}
        assert c.displacement() == sum(
            (p * (y.bit_count() - x.bit_count()) for x, y, p in c.pairs()), Fraction(0)
        )


def test_from_json_sums_non_lowest_terms_and_duplicate_pairs():
    for c in COUPLINGS[::3]:
        doc = c.to_json()
        split = []
        for k, entry in enumerate(doc["pairs"]):
            p = Fraction(entry["p"])
            a, b = p.numerator, p.denominator
            if k % 2:  # one pair written as two non-lowest-terms halves
                split += [{**entry, "p": f"{a * 3}/{b * 6}"}, {**entry, "p": f"{a * 5}/{b * 10}"}]
            else:
                split.append({**entry, "p": f"{a * 4}/{b * 4}"})
        split.reverse()
        loaded = Coupling.from_json({**doc, "pairs": split})
        assert loaded.mass == c.mass
        assert loaded.lower == c.lower and loaded.upper == c.upper
        loaded.validate()
        assert json.dumps(loaded.to_json(), indent=2) == json.dumps(doc, indent=2)


def test_from_json_reads_other_spellings_and_keeps_zero_pairs():
    c = COUPLINGS[0]
    doc = c.to_json()
    for entry in doc["pairs"]:
        entry["p"] = " " + entry["p"] + " "
    doc["pairs"].append({"x": doc["pairs"][0]["x"], "y": doc["pairs"][0]["y"], "p": "0.0"})
    loaded = Coupling.from_json(doc)
    assert loaded.mass == c.mass
    loaded.validate()
    doc["pairs"].append({"x": "1" * c.n, "y": "0" * c.n, "p": "0"})
    with pytest.raises(ValueError, match="not coordinatewise increasing"):
        Coupling.from_json(doc).validate()
    doc["pairs"][-1]["p"] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        Coupling.from_json(doc)


@pytest.mark.parametrize("flag", [True, False])
def test_from_json_refuses_a_boolean_mass(flag):
    doc = COUPLINGS[0].to_json()
    doc["pairs"].append({"x": doc["pairs"][0]["x"], "y": doc["pairs"][0]["y"], "p": flag})
    with pytest.raises(MalformedMeasure, match="is a boolean, not a rational"):
        Coupling.from_json(doc)
    doc["pairs"].pop()
    doc["lower"]["atoms"][0]["p"] = flag
    with pytest.raises(MalformedMeasure, match="is a boolean, not a rational"):
        Coupling.from_json(doc)


def test_json_bytes_match_the_fraction_formatting(tmp_path):
    for c in COUPLINGS:
        rows = sorted(
            (bits_from_mask(x, c.n), bits_from_mask(y, c.n), str(p)) for x, y, p in c.pairs()
        )
        doc = c.to_json()
        assert [(e["x"], e["y"], e["p"]) for e in doc["pairs"]] == rows
        assert doc["lower"]["atoms"] == [
            {"x": bits_from_mask(k, c.n), "p": str(p)} for k, p in c.lower.atoms()
        ]
    path = tmp_path / "c.json"
    c.save(path)
    assert path.read_text() == json.dumps(c.to_json(), indent=2) + "\n"
    assert Coupling.load(path).mass == c.mass
