import json
import random
from fractions import Fraction

import pytest

from negdep import martingale
from negdep.cli import main
from negdep.coupling import build_monotone_coupling
from negdep.errors import (
    DimensionMismatch,
    IntervalViolation,
    LemmaViolated,
    NoEligibleIndex,
    TooLarge,
    ZeroProbabilityEvent,
)
from negdep.martingale import (
    MartingaleTree,
    PickResult,
    build_adaptive_tree,
    build_skeleton,
    fixed_order_tree,
    max_step,
    pick_index,
    root_step,
    verify_pick_lemma,
)
from negdep.measure import (
    Assignment,
    TestFunction,
    family_anti_pair,
    family_independent,
    family_nand,
    family_pos_pair,
    random_lipschitz,
    random_measure,
    sum_function,
    zoo,
)

HALF = Fraction(1, 2)


# -- pick rule ---------------------------------------------------------------


def test_pick_nand3_from_scratch():
    res = pick_index(family_nand(3), Assignment.empty())
    assert res.index == 2
    assert not res.deterministic
    assert res.influence_sum == HALF


def test_pick_nand3_after_zero_becomes_deterministic():
    res = pick_index(family_nand(3), Assignment.of({1: 0}))
    assert res.index == 2
    assert res.deterministic
    assert res.influence_sum is None


def test_pick_skips_heavy_index():
    # index 1 of nand(3) has influence sum 4/3 > 1 and is skipped
    rep = verify_pick_lemma(family_nand(3), Assignment.empty())
    by_index = {e.index: e for e in rep.entries}
    assert by_index[1].influence_sum == Fraction(4, 3)
    assert by_index[2].influence_sum == HALF
    assert rep.chosen.index == 2


def test_pick_requires_unrevealed_variable():
    m = family_anti_pair()
    with pytest.raises(NoEligibleIndex):
        pick_index(m, Assignment.of({1: 1, 2: 0}))


def test_non_deterministic_pick_needs_its_influence_sum():
    assert PickResult(1, True, None).influence_sum is None
    with pytest.raises(ValueError, match="influence sum"):
        PickResult(1, False, None)


def test_pick_on_zero_probability_event():
    with pytest.raises(ZeroProbabilityEvent):
        pick_index(family_nand(3), Assignment.of({1: 0, 2: 0}))


@pytest.mark.parametrize("value", [0, 1])
def test_pick_refuses_an_index_above_n(value):
    m = family_nand(3)
    for check in (pick_index, verify_pick_lemma):
        with pytest.raises(DimensionMismatch, match="assignment index out of range"):
            check(m, Assignment.of({5: value}))


def test_lemma_quantities_nand3():
    rep = verify_pick_lemma(family_nand(3), Assignment.empty())
    by_index = {e.index: e for e in rep.entries}
    assert by_index[1].quantity == Fraction(-1, 16)
    assert by_index[2].quantity == Fraction(1, 8)
    assert by_index[3].quantity == Fraction(1, 8)
    assert rep.satisfied == [2, 3]


def test_lemma_identity_everywhere_on_small_zoo():
    for m in (family_nand(4), family_independent([HALF] * 3), family_anti_pair()):
        seen = 0
        stack = [Assignment.empty()]
        while stack:
            a = stack.pop()
            if len(a.indices) == m.n:
                continue
            rep = verify_pick_lemma(m, a)  # raises LemmaViolated on breakage
            seen += 1
            i = rep.chosen.index
            for v in (0, 1):
                ext = Assignment(a.indices + (i,), a.values + (v,))
                if m.prob_of_assignment(ext) > 0:
                    stack.append(ext)
        assert seen > 0


def test_lemma_report_json():
    doc = verify_pick_lemma(family_nand(3), Assignment.empty()).to_json()
    assert doc["chosen_index"] == 2
    assert doc["satisfied"] == [2, 3]
    assert doc["entries"][0]["index"] == 1
    assert doc["entries"][0]["influence_sum"] == "4/3"


def test_lemma_report_json_deterministic_entries():
    # given x1 = 0, nand3 fixes x2 = x3 = 1: both picks are deterministic
    doc = verify_pick_lemma(family_nand(3), Assignment.of({1: 0})).to_json()
    assert doc["revealed"] == {"indices": [1], "values": "0"}
    assert doc["entries"] == [
        {"index": i, "pi": "1", "variance": "0", "covariance_sum": "0", "quantity": "0",
         "deterministic": True, "influence_sum": None}
        for i in (2, 3)
    ]
    assert (doc["satisfied"], doc["chosen_index"]) == ([2, 3], 2)
    assert '"deterministic": true' in json.dumps(doc)
    assert '"influence_sum": null' in json.dumps(doc)


def _pick_cases():
    rng = random.Random(12)
    seeded = {f"random{n}_{k}": random_measure(n, rng, max_weight=rng.choice([1, 2, 8]))
              for n in range(1, 6) for k in range(4)}
    return {**zoo(), **seeded}


PICK_CASES = _pick_cases()


@pytest.mark.parametrize("m", PICK_CASES.values(), ids=PICK_CASES.keys())
def test_skeleton_picks_match_the_lemma_entries(m):
    # the lemma report's Fractions are the reference for every internal node
    for order in (None, tuple(range(1, m.n + 1)), tuple(range(m.n, 0, -1))):
        stack = [build_skeleton(m, order).root]
        while stack:
            node = stack.pop()
            if node.pick is None:
                continue
            rep = verify_pick_lemma(m, node.assignment)
            entry = next(e for e in rep.entries if e.index == node.pick)
            assert node.pick_deterministic == entry.deterministic
            if order is None:
                # the skeleton's integer rule against the lemma's Fractions:
                # the first index that is deterministic or has influence <= 1
                first = next(
                    e for e in rep.entries if e.deterministic or e.influence_sum <= 1
                )
                assert first.quantity >= 0 and rep.satisfied[0] == first.index
                assert node.pick == first.index == rep.chosen.index
                assert node.pick_influence == first.influence_sum == rep.chosen.influence_sum
                assert rep.chosen.deterministic == first.deterministic
            else:
                assert node.pick_influence is None
            stack += [c for c in (node.child0, node.child1) if c is not None]


def test_pick_at_influence_exactly_one():
    res = pick_index(family_nand(3), Assignment.of({2: 1}))
    assert (res.index, res.deterministic, res.influence_sum) == (1, False, 1)
    for n in range(3, 9):
        m = family_nand(n)
        stack = [build_skeleton(m).root]
        ones = 0
        while stack:
            node = stack.pop()
            if node.pick_influence == 1:
                ones += 1
                rep = verify_pick_lemma(m, node.assignment)
                assert rep.chosen.influence_sum == 1
            stack += [c for c in (node.child0, node.child1) if c is not None]
        assert ones > 0, n


# -- the pick rule's tripwires -----------------------------------------------
# No measure reaches these raises, so each test gives every index the same
# fixed (w1, w0, S1, S0) terms, which no measure has.


def fake_terms(monkeypatch, terms):
    monkeypatch.setattr(martingale, "_influence_terms", lambda *_: terms)


def test_pick_raises_when_no_index_is_eligible(monkeypatch):
    fake_terms(monkeypatch, (1, 1, 0, 2))
    with pytest.raises(NoEligibleIndex, match="deterministic or has influence sum <= 1"):
        pick_index(family_nand(3), Assignment.empty())


@pytest.mark.parametrize("terms, message", [
    ((0, 2, 1, 0), "deterministic index 1 has nonzero witness"),
    ((1, 3, 0, 3), r"index 1: witness .* != pi\(1-pi\)\(1-influence\)"),
    ((1, 1, 0, 3), "no unrevealed index has a nonnegative witness"),
])
def test_lemma_check_raises_on_a_broken_identity(monkeypatch, terms, message):
    fake_terms(monkeypatch, terms)
    with pytest.raises(LemmaViolated, match=message):
        verify_pick_lemma(family_anti_pair(), Assignment.empty())


# -- skeletons and trees -----------------------------------------------------


def test_skeleton_reuse_matches_fresh_build():
    m = family_nand(5)
    sk = build_skeleton(m)
    f = sum_function(5)
    t1 = build_adaptive_tree(m, f, skeleton=sk)
    t2 = build_adaptive_tree(m, f)
    assert t1.to_json() == t2.to_json()


def test_skeleton_configuration_mismatch_rejected():
    m = family_nand(3)
    sk_fixed = build_skeleton(m, (1, 2, 3))
    with pytest.raises(ValueError):
        build_adaptive_tree(m, sum_function(3), skeleton=sk_fixed)
    sk_adaptive = build_skeleton(m)
    with pytest.raises(ValueError):
        fixed_order_tree(m, sum_function(3), skeleton=sk_adaptive)


@pytest.mark.parametrize("k", [2, 4])
def test_tree_builders_refuse_a_function_on_another_cube(k):
    m = family_nand(3)
    for build in (build_adaptive_tree, fixed_order_tree):
        with pytest.raises(DimensionMismatch, match=f"function on {k} vars, measure on 3"):
            build(m, sum_function(k))


def test_order_must_be_permutation():
    # a bool or a float equals an int, but no order of it names a variable
    m, f = family_nand(3), sum_function(3)
    for order in [(1, 1, 2), (1, 2), (True, 2, 3), (1, 2, 3.0)]:
        with pytest.raises(ValueError, match="order must be a permutation of 1..n"):
            build_skeleton(m, order)
        with pytest.raises(ValueError, match="order must be a permutation of 1..n"):
            fixed_order_tree(m, f, order)


def test_tree_cap():
    with pytest.raises(TooLarge):
        build_skeleton(family_independent([HALF] * 13))


def test_adaptive_nand3_sum_root():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    r = t.root
    assert r.pick == 2
    assert r.p0 == HALF and r.p1 == HALF
    assert r.y == Fraction(7, 4)
    assert r.alpha == Fraction(-1, 4)
    assert r.beta == Fraction(1, 4)
    assert r.child0.y == Fraction(3, 2)
    assert r.child1.y == Fraction(2)


def test_leaves_cover_support_exactly():
    m = family_nand(4)
    t = build_adaptive_tree(m, sum_function(4))
    leaf_atoms = {leaf.leaf_mask: leaf.probability for leaf in t.leaves()}
    assert leaf_atoms == dict(m.items())
    for leaf in t.leaves():
        assert leaf.depth == m.n
        assert leaf.alpha == 0 and leaf.beta == 0
        assert leaf.y == sum_function(4).values[leaf.leaf_mask]


def test_tower_property_everywhere():
    m = family_nand(6)
    rng = random.Random(2)
    f = random_lipschitz(6, rng, monotone=False)
    t = build_adaptive_tree(m, f)
    for node in t.internal_nodes():
        if node.child0 is not None and node.child1 is not None:
            assert node.y == node.p0 * node.child0.y + node.p1 * node.child1.y
            assert node.alpha == min(node.child0.y, node.child1.y) - node.y
            assert node.beta == max(node.child0.y, node.child1.y) - node.y
            assert node.alpha <= 0 <= node.beta
        else:
            child = node.child0 or node.child1
            assert node.y == child.y
            assert node.alpha == 0 and node.beta == 0
            assert node.pick_deterministic


def test_probabilities_multiply_down_the_tree():
    t = build_adaptive_tree(family_nand(4), sum_function(4))
    for node in t.internal_nodes():
        for p, child in ((node.p0, node.child0), (node.p1, node.child1)):
            if child is not None:
                assert child.probability == node.probability * p


def test_fixed_identity_nand3():
    t = fixed_order_tree(family_nand(3), sum_function(3))
    assert t.kind == "fixed"
    assert t.order == (1, 2, 3)
    assert t.root.pick == 1
    assert t.root.p1 == Fraction(3, 4)
    assert root_step(t) == Fraction(1, 4)
    assert max_step(t) == HALF  # a later reveal moves the value by 1/2
    assert max_step(t, "gap") == 1


def test_fixed_first_step_formula():
    for n in range(3, 9):
        t = fixed_order_tree(family_nand(n), sum_function(n))
        formula = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
        assert root_step(t) == formula, n
        if n >= 4:
            # from n=4 on, the first reveal is also the global worst
            assert max_step(t) == formula, n


def test_adaptive_bounds_on_nand():
    for n in range(3, 9):
        m = family_nand(n)
        t = build_adaptive_tree(m, sum_function(n))
        assert max_step(t) <= 1, n


def test_custom_fixed_order():
    m = family_nand(3)
    t = fixed_order_tree(m, sum_function(3), (3, 2, 1))
    assert t.order == (3, 2, 1)
    assert t.root.pick == 3
    assert t.root.y == Fraction(7, 4)


def test_max_step_mode_validation():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    with pytest.raises(ValueError):
        max_step(t, "wrong")


def test_interval_violation_monotone():
    # pos_pair with a monotone f: revealing one bit moves the value by 2
    with pytest.raises(IntervalViolation) as exc_info:
        build_adaptive_tree(family_pos_pair(), sum_function(2))
    node = exc_info.value.node
    assert node is not None
    assert node.beta - node.alpha == 2


def test_interval_violation_general():
    # uniform on {000, 111}: the first reveal decides everything, and a
    # 1-Lipschitz function can move by 3 in one step
    from negdep.measure import new_explicit

    m = new_explicit(3, [("000", HALF), ("111", HALF)])
    f = TestFunction.from_callable(3, lambda bits: Fraction(sum(bits)), name="count")
    with pytest.raises(IntervalViolation) as exc_info:
        build_adaptive_tree(m, f)
    assert exc_info.value.node.beta - exc_info.value.node.alpha == 3


def test_first_step_bounded_by_coupling_displacement():
    # the adaptive first step is at most Lipschitz * (1 + displacement of
    # the coupling between the two child conditionals)
    m = family_nand(4)
    t = build_adaptive_tree(m, sum_function(4))
    r = t.root
    i = r.pick
    low = m.condition(Assignment.of({i: 1}))
    high = m.condition(Assignment.of({i: 0}))
    c = build_monotone_coupling(low, high)
    bound = 1 + c.displacement()
    assert abs(r.child1.y - r.child0.y) <= bound


# -- serialization -----------------------------------------------------------


def test_tree_json_shape():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    doc = t.to_json()
    assert doc["n"] == 3
    assert doc["kind"] == "adaptive"
    assert doc["f"] == "sum"
    root = doc["root"]
    assert set(root) == {"pick", "p0", "p1", "y", "alpha", "beta", "children"}
    assert root["pick"] == 2
    assert root["p0"] == "1/2"
    assert set(root["children"]) == {"0", "1"}
    # leaves carry the settled point and value
    leaf = root["children"]["1"]
    while "children" in leaf:
        leaf = next(iter(leaf["children"].values()))
    assert set(leaf) == {"x", "y"}


def test_fixed_tree_json_records_order():
    t = fixed_order_tree(family_nand(3), sum_function(3), (2, 3, 1))
    assert t.to_json()["order"] == [2, 3, 1]


def test_tree_csv_shape():
    t = fixed_order_tree(family_nand(3), sum_function(3))
    lines = t.to_csv().splitlines()
    assert lines[0] == "depth,pattern,probability,pick,p0,p1,y,alpha,beta,node"
    assert lines[1].startswith("0,***,1,1,1/4,3/4,7/4,")
    kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert kinds == {"branch", "forced", "leaf"}
    # one row per node
    assert len(lines) - 1 == sum(1 for _ in t.nodes())


def test_tree_file_roundtrip(tmp_path):
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    for fmt, want in (("json", json.dumps(t.to_json(), indent=2) + "\n"),
                      ("csv", t.to_csv())):
        path = tmp_path / f"t.{fmt}"
        assert main(["martingale", "--family", "nand:3", "--f", "sum",
                     "--format", fmt, "-o", str(path)]) == 0
        assert path.read_text() == want
