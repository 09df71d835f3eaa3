"""Skeletons grown on carried masks, and step maxima taken on integers.

`build_skeleton` passes each node's index and value masks down, and each
node keeps its revealed indices and bits as tuples: its `Assignment` and
whether its pick is deterministic are built when read.  `max_step` and
`root_step` compare the steps by cross-multiplication and build one
`Fraction`.  Both must give what the frozen copies below, the builders
they replaced, give: on the catalog, 240 seeded random measures with
n = 1..8 and nand:3..12, for the adaptive, identity and seeded orders,
every node must agree, and every tree must have the same step maxima.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from negdep.bitops import cap, mask_of_indices
from negdep.martingale import (
    SkeletonNode,
    _annotate,
    _largest_step,
    _pick_from_atoms,
    build_skeleton,
    max_step,
    root_step,
)
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_nand,
    random_lipschitz,
    random_measure,
    sum_function,
    zoo,
)

ZERO = Fraction(0)


# -- frozen copies of the replaced code --------------------------------------


@dataclass
class FrozenNode:
    """A skeleton node as the replaced builder stored it."""

    assignment: Assignment
    denom: int
    w: int
    pick: Optional[int]
    pick_deterministic: bool
    pick_influence: Optional[Fraction]
    child0: Optional["FrozenNode"]
    child1: Optional["FrozenNode"]
    leaf_mask: Optional[int]


def frozen_build_skeleton(m: ExplicitMeasure, order=None) -> FrozenNode:
    n = m.n
    if order is not None:
        order = tuple(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("order must be a permutation of 1..n")
    denom, weights = m.scaled_weights()

    def grow(assignment, atoms, total, depth) -> FrozenNode:
        if depth == n:
            value_mask = mask_of_indices(
                i for i, v in zip(assignment.indices, assignment.values) if v)
            return FrozenNode(assignment, denom, total, None, False, None,
                              None, None, value_mask)
        if order is None:
            pick = _pick_from_atoms(atoms, n, assignment.index_mask)
            index, influence = pick.index, pick.influence_sum
        else:
            index, influence = order[depth], None
        bit = 1 << (index - 1)
        ones = [(mask, weight) for mask, weight in atoms if mask & bit]
        zeros = [(mask, weight) for mask, weight in atoms if not mask & bit]
        w1 = sum(weight for _, weight in ones)
        w0 = total - w1
        indices = assignment.indices + (index,)
        child1 = child0 = None
        if w1:
            child1 = grow(Assignment(indices, assignment.values + (1,)), ones, w1, depth + 1)
        if w0:
            child0 = grow(Assignment(indices, assignment.values + (0,)), zeros, w0, depth + 1)
        return FrozenNode(
            assignment, denom, total, index, not (w0 and w1), influence,
            child0, child1, None,
        )

    return grow(Assignment.empty(), sorted(weights.items()), denom, 0)


def frozen_gap(node) -> Fraction:
    c0, c1 = node.child0, node.child1
    if c0 is None or c1 is None:
        return ZERO
    return Fraction(abs(c1.s * c0.w - c0.s * c1.w), node.den * c0.w * c1.w)


def frozen_deviation(node) -> Fraction:
    w, s, den = node.w, node.s, node.den
    steps = [Fraction(abs(c.s * w - s * c.w), den * c.w * w)
             for c in (node.child0, node.child1) if c is not None]
    return max(steps, default=ZERO)


FROZEN_STEP = {"gap": frozen_gap, "deviation": frozen_deviation}


def frozen_max_step(tree, mode) -> Fraction:
    return max(map(FROZEN_STEP[mode], tree.internal_nodes()), default=ZERO)


# -- inputs -------------------------------------------------------------------


def seeded_measures() -> list[ExplicitMeasure]:
    rng = random.Random(26)
    return [random_measure(n, rng, max_weight=rng.choice((1, 8, 10**6)))
            for n in range(1, 9) for _ in range(30)]


MEASURES = {
    **{f"zoo:{name}": m for name, m in sorted(zoo().items())},
    **{f"nand:{n}": family_nand(n) for n in range(3, 13)},
    **{f"random:{k}": m for k, m in enumerate(seeded_measures())},
}
POINT_MASS = ExplicitMeasure.from_atoms(3, [("101", "1")])


def orders(m: ExplicitMeasure, name: str) -> list:
    """None (adaptive), the identity and a seeded permutation."""
    shuffled = list(range(1, m.n + 1))
    random.Random(name).shuffle(shuffled)
    return [None, tuple(range(1, m.n + 1)), tuple(shuffled)]


def preorder(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in (node.child1, node.child0) if c is not None)


def assert_same_nodes(new: SkeletonNode, old: FrozenNode) -> int:
    count = 0
    for a, b in zip(preorder(new), preorder(old), strict=True):
        # the assignment read off a node is a checked one of its tuples
        assert a.assignment == Assignment(a.indices, a.values) == b.assignment
        assert (a.denom, a.w, a.pick, a.pick_deterministic, a.pick_influence, a.leaf_mask) == (
            b.denom, b.w, b.pick, b.pick_deterministic, b.pick_influence, b.leaf_mask)
        assert (a.child0 is None, a.child1 is None) == (b.child0 is None, b.child1 is None)
        # a pick is deterministic exactly at an internal node with one child
        one_child = (a.child0 is None) != (a.child1 is None)
        assert a.pick_deterministic == (a.pick is not None and one_child)
        # a leaf's mask is the value mask of its assignment
        if a.leaf_mask is not None:
            assert a.leaf_mask == mask_of_indices(
                i for i, v in zip(a.indices, a.values) if v)
        count += 1
    return count


def assert_same_steps(tree) -> None:
    for mode in ("gap", "deviation"):
        want = frozen_max_step(tree, mode)
        got = max_step(tree, mode)
        assert type(got) is Fraction and got == want
        # the winner is the first node in preorder that takes the maximum
        num, q, node = _largest_step(tree.nodes(), mode)
        assert Fraction(num, tree.root.den * q) == want
        first = next((x for x in tree.internal_nodes()
                      if want and FROZEN_STEP[mode](x) == want), None)
        assert node is first
    assert root_step(tree) == frozen_deviation(tree.root)


# -- tests --------------------------------------------------------------------


def test_inputs_cover_the_catalog_random_measures_and_nand():
    assert sum(name.startswith("zoo:") for name in MEASURES) == 17
    randoms = [m for name, m in MEASURES.items() if name.startswith("random:")]
    assert len(randoms) >= 200 and {m.n for m in randoms} == set(range(1, 9))
    assert cap("tree") >= 12


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_skeleton_nodes_and_step_maxima_match_the_frozen_builder(name):
    m = MEASURES[name]
    rng = random.Random(name)
    functions = [sum_function(m.n), random_lipschitz(m.n, rng)]
    for order in orders(m, name):
        new = build_skeleton(m, order)
        assert new.order == order and new.measure is m
        assert assert_same_nodes(new.root, frozen_build_skeleton(m, order)) >= m.n + 1
        for f in functions:
            assert_same_steps(_annotate(new, f, "fixed", None))


def test_a_tree_with_no_branching_node_has_step_zero():
    for order in (None, (1, 2, 3), (3, 1, 2)):
        skeleton = build_skeleton(POINT_MASS, order)
        assert assert_same_nodes(skeleton.root, frozen_build_skeleton(POINT_MASS, order)) == 4
        tree = _annotate(skeleton, sum_function(3), "fixed", None)
        assert all(node.pick_deterministic for node in tree.internal_nodes())
        for mode in ("gap", "deviation"):
            assert max_step(tree, mode) == 0
            assert _largest_step(tree.nodes(), mode) == (0, 1, None)
        assert root_step(tree) == 0
        assert_same_steps(tree)


def test_nand_steps_separate_the_orders():
    # the headline figures of `negdep counterexample 12`
    m, f = family_nand(12), sum_function(12)
    fixed = _annotate(build_skeleton(m, tuple(range(1, 13))), f, "fixed", None)
    adaptive = _annotate(build_skeleton(m), f, "adaptive", None)
    assert root_step(fixed) == Fraction(9217, 2048)
    assert max_step(adaptive) == 1
    assert_same_steps(fixed)
    assert_same_steps(adaptive)
