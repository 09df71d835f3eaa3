import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from negdep.coupling import (
    Coupling,
    DominanceCertificate,
    InfeasibilityCut,
    build_monotone_coupling,
    check_dominance,
    covering_cut,
    down_set_certificate,
    is_down_closed,
    transport,
    up_closure,
)
from negdep.errors import BadWidth, DimensionMismatch, DominanceFails, MalformedMeasure
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_nand,
    new_explicit,
    random_measure,
    sum_function,
)
from negdep.upsets import upset_bitmasks, upset_members

HALF = Fraction(1, 2)


def delta(n, bits):
    return new_explicit(n, [(bits, Fraction(1))])


# -- closure helpers ---------------------------------------------------------


def test_up_closure():
    assert up_closure([0b00], 2) == {0b00, 0b01, 0b10, 0b11}
    assert up_closure([0b10], 2) == {0b10, 0b11}
    assert up_closure([], 2) == set()


def test_is_down_closed():
    assert is_down_closed([0b00, 0b01], 2)
    assert not is_down_closed([0b01, 0b11], 2)
    assert is_down_closed([], 2)


# -- dominance ---------------------------------------------------------------


def test_dominance_holds_on_conditionals_of_nand():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    res = check_dominance(lower, upper)
    assert res.dominates
    assert res.certificate is None


def test_dominance_delta_pair_fails_with_down_set():
    lower = delta(1, "1")
    upper = delta(1, "0")
    res = check_dominance(lower, upper)
    assert not res.dominates
    cert = res.certificate
    assert isinstance(cert, DominanceCertificate)
    assert cert.down_set == (0,)
    assert cert.lower_mass == 0
    assert cert.upper_mass == 1
    assert cert.check(lower, upper)
    doc = cert.to_json()
    assert doc["down_set"] == ["0"]
    assert doc["kind"] == "down_set"
    assert doc["lower_mass"] == "0"


def test_dominance_requires_same_width():
    with pytest.raises(DimensionMismatch):
        check_dominance(delta(1, "1"), delta(2, "11"))
    with pytest.raises(DimensionMismatch):
        build_monotone_coupling(delta(1, "0"), delta(2, "00"))


def brute_force_dominates(lower, upper):
    """Up-set oracle: upper dominates iff every up-set gets at least as
    much mass under upper as under lower."""
    d = lower.n
    for bitmask in upset_bitmasks(d):
        members = upset_members(bitmask, d)
        lo = sum((lower.prob(p) for p in members), Fraction(0))
        hi = sum((upper.prob(p) for p in members), Fraction(0))
        if hi < lo:
            return False
    return True


def test_dominance_matches_upset_oracle_small():
    rng = random.Random(4242)
    agree = 0
    for _ in range(120):
        d = rng.randint(1, 3)
        lower = random_measure(d, rng)
        upper = random_measure(d, rng)
        res = check_dominance(lower, upper)
        assert res.dominates == brute_force_dominates(lower, upper)
        if not res.dominates:
            cert = res.certificate
            assert cert.check(lower, upper)
            assert is_down_closed(cert.down_set, d)
        agree += 1
    assert agree == 120


def test_certificate_builders_recheck_from_the_measures(rng):
    # both builders read (atom, integer weight) pairs in any order; their
    # certificates must verify against the rational measures alone
    built = {False: 0, True: 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        lower, upper = random_measure(n, rng), random_measure(n, rng)
        lt, lw = lower.scaled_weights()
        ut, uw = upper.scaled_weights()
        left, right = sorted(lw.items()), sorted(uw.items(), reverse=True)
        for covering, build in ((False, down_set_certificate), (True, covering_cut)):
            res = transport(left, lt, right, ut, covering=covering)
            if res.feasible:
                continue
            cert = build(left, lt, right, ut, res.left_cut, n)
            assert cert.check(lower, upper)
            built[covering] += 1
    assert built[False] and built[True]


# -- couplings ---------------------------------------------------------------


def test_unique_coupling_on_nand_conditionals():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    c = build_monotone_coupling(lower, upper)
    pairs = {(x, y): p for x, y, p in c.pairs()}
    assert pairs == {
        (0b01, 0b01): HALF,
        (0b10, 0b11): HALF,
    }
    assert c.displacement() == HALF
    # the marginals' expected coordinate sums differ by the displacement
    assert upper.expectation(sum_function(2)) - lower.expectation(sum_function(2)) == HALF
    c.validate()


def test_covering_coupling_on_nand_conditionals():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    c = build_monotone_coupling(lower, upper, covering_mode=True)
    c.validate()
    assert all((x ^ y).bit_count() <= 1 for x, y, _ in c.pairs())


def test_coupling_marginals_exact():
    rng = random.Random(99)
    built = 0
    while built < 40:
        d = rng.randint(1, 4)
        lower = random_measure(d, rng)
        upper = random_measure(d, rng)
        try:
            c = build_monotone_coupling(lower, upper)
        except DominanceFails:
            continue
        built += 1
        c.validate()
        # row and column sums reproduce the marginals exactly
        row = {}
        col = {}
        for x, y, p in c.pairs():
            assert x & ~y == 0
            row[x] = row.get(x, Fraction(0)) + p
            col[y] = col.get(y, Fraction(0)) + p
        assert row == dict(lower.items())
        assert col == dict(upper.items())


def test_coupling_failure_carries_valid_certificate():
    with pytest.raises(DominanceFails) as exc_info:
        build_monotone_coupling(delta(2, "11"), delta(2, "00"))
    cert = exc_info.value.certificate
    assert isinstance(cert, DominanceCertificate)
    assert cert.check(delta(2, "11"), delta(2, "00"))


def test_covering_failure_carries_hall_cut():
    # identical marginals two steps apart: monotone coupling exists but
    # no single-coordinate-move coupling does
    with pytest.raises(DominanceFails) as exc_info:
        build_monotone_coupling(delta(2, "00"), delta(2, "11"), covering_mode=True)
    cert = exc_info.value.certificate
    assert isinstance(cert, InfeasibilityCut)
    assert cert.block == (0b00,)
    assert cert.neighborhood == ()
    assert cert.lower_mass == 1
    assert cert.upper_mass == 0
    assert cert.check(delta(2, "00"), delta(2, "11"))
    doc = cert.to_json()
    assert doc["kind"] == "covering_cut"
    assert doc["block"] == ["00"]


def test_tampered_certificates_fail_their_checks():
    lower, upper = delta(2, "11"), delta(2, "00")
    with pytest.raises(DominanceFails) as exc_info:
        build_monotone_coupling(lower, upper)
    cert = exc_info.value.certificate
    assert cert.check(lower, upper)
    # {11} is no down-set: 01 and 10 lie below 11 and are missing
    assert not dataclasses.replace(cert, down_set=(0b11,)).check(lower, upper)
    assert not dataclasses.replace(cert, lower_mass=HALF).check(lower, upper)
    with pytest.raises(DominanceFails) as exc_info:
        build_monotone_coupling(upper, lower, covering_mode=True)
    cut = exc_info.value.certificate
    assert cut.check(upper, lower)
    # 11 is two steps above 00, so it is no covering neighbour of the block
    assert not dataclasses.replace(cut, neighborhood=(0b11,)).check(upper, lower)
    assert not dataclasses.replace(cut, upper_mass=HALF).check(upper, lower)

def test_plain_coupling_succeeds_where_covering_fails():
    c = build_monotone_coupling(delta(2, "00"), delta(2, "11"))
    assert c.displacement() == 2
    c.validate()


def test_identity_coupling_for_equal_measures():
    rng = random.Random(3)
    m = random_measure(3, rng)
    c = build_monotone_coupling(m, m, covering_mode=True)
    assert all(x == y for x, y, _ in c.pairs())
    assert c.displacement() == 0


def test_coupling_roundtrip(tmp_path):
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    c = build_monotone_coupling(lower, upper)
    path = tmp_path / "c.json"
    c.save(path)
    loaded = Coupling.load(path)
    assert loaded.mass == c.mass
    assert loaded.lower == c.lower
    assert loaded.upper == c.upper
    loaded.validate()


def _nand3_coupling_doc():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    return build_monotone_coupling(lower, upper).to_json()


def test_coupling_from_json_reads_a_missing_covering_as_plain():
    doc = _nand3_coupling_doc()
    del doc["covering"]
    c = Coupling.from_json(doc)
    assert c.covering is False
    c.validate()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(covering="false"),  # a string, not a JSON boolean
        lambda doc: doc.update(covering=1),
        lambda doc: doc.pop("pairs"),
        lambda doc: doc.update(pairs=[]),
        lambda doc: doc.update(pairs={"x": "00", "y": "00", "p": "1"}),
        lambda doc: doc["pairs"][0].pop("y"),
        lambda doc: doc["pairs"][0].update(x=0),
        lambda doc: doc["pairs"].append("00"),
        lambda doc: doc.pop("lower"),
        lambda doc: doc.update(upper=[]),
        lambda doc: doc.pop("n"),
        lambda doc: doc.update(n=True),
        lambda doc: doc.update(n="2"),
        lambda doc: doc["pairs"][0].update(x="0a"),  # a bit string is 0s and 1s
        lambda doc: doc["pairs"][-1].update(y="1 "),
    ],
    ids=["covering-string", "covering-int", "no-pairs", "empty-pairs", "pairs-object",
         "pair-without-y", "pair-x-number", "pair-string", "no-lower", "upper-list",
         "no-n", "n-true", "n-string", "pair-x-not-bits", "pair-y-not-bits"],
)
def test_coupling_from_json_refuses_malformed_documents(edit):
    doc = _nand3_coupling_doc()
    edit(doc)
    with pytest.raises(MalformedMeasure):
        Coupling.from_json(doc)


def test_coupling_from_json_refuses_a_document_that_is_not_an_object():
    with pytest.raises(MalformedMeasure):
        Coupling.from_json([_nand3_coupling_doc()])


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["pairs"][0].update(x=doc["pairs"][0]["x"] + "0"),
        lambda doc: doc["pairs"][-1].update(y=doc["pairs"][-1]["y"][1:]),
        lambda doc: doc.update(n=3),
        lambda doc: doc.update(n=1),
        lambda doc: doc.update(lower={"n": 3, "atoms": [{"x": "000", "p": "1"}]}),
        lambda doc: doc.update(upper={"n": 3, "atoms": [{"x": "111", "p": "1"}]}),
    ],
    ids=["long-x", "short-y", "n-above-measures", "n-below-measures", "lower-on-3",
         "upper-on-3"],
)
def test_coupling_from_json_refuses_other_widths(edit):
    # a bit string is never read as another point of a narrower or wider cube
    doc = _nand3_coupling_doc()
    assert doc["n"] == 2
    edit(doc)
    with pytest.raises(BadWidth):
        Coupling.from_json(doc)


def test_coupling_json_shape():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    doc = build_monotone_coupling(lower, upper).to_json()
    assert set(doc) == {"n", "covering", "pairs", "lower", "upper"}
    assert all(set(p) == {"x", "y", "p"} for p in doc["pairs"])


def test_displacement_is_expected_hamming_distance():
    rng = random.Random(17)
    while True:
        lower = random_measure(3, rng)
        upper = random_measure(3, rng)
        try:
            c = build_monotone_coupling(lower, upper)
            break
        except DominanceFails:
            continue
    manual = sum(
        (p * (x ^ y).bit_count() for x, y, p in c.pairs()), Fraction(0)
    )
    assert c.displacement() == manual


def test_determinism():
    rng = random.Random(55)
    lower = random_measure(3, rng)
    upper_atoms = [(y | 1, p) for y, p in lower.items()]
    upper = new_explicit(3, upper_atoms)
    c1 = build_monotone_coupling(lower, upper)
    c2 = build_monotone_coupling(lower, upper)
    assert c1.mass == c2.mass
    assert list(c1.pairs()) == list(c2.pairs())
