"""Adaptive-ordering Doob martingales on {0,1}^n.

The revelation order is chosen node by node: always the minimum
unrevealed index that is either deterministic under the current
conditioning or has influence sum at most 1.  For measures with negative
regression this yields martingale increments confined to an interval of
width 2 (width 1 for monotone f).  A fixed-ordering comparator builds
the same tree with a prescribed permutation and no width guarantee.

Nodes hold integer weights over the measure's common denominator (and,
in trees, f's weighted numerator sums); probabilities, conditional
expectations and interval ends are exact rationals built on read.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .bitops import bits_from_mask, indices_of, refuse_over_cap
from .errors import (
    DimensionMismatch,
    IntervalViolation,
    LemmaViolated,
    NoEligibleIndex,
    ZeroProbabilityEvent,
)
from .measure import Assignment, ExplicitMeasure, TestFunction, format_rational

ZERO = Fraction(0)


@dataclass(frozen=True)
class PickResult:
    """Outcome of the index-selection rule at one conditioning event."""

    index: int
    deterministic: bool
    influence_sum: Optional[Fraction]

    def __post_init__(self):
        if not self.deterministic and self.influence_sum is None:
            raise ValueError("non-deterministic pick must carry its influence sum")


def _conditional(m: ExplicitMeasure, revealed: Assignment):
    """The law given `revealed` and the original labels of its variables
    (the pick rule does not change when the weights are scaled)."""
    unrevealed = ((1 << m.n) - 1) & ~revealed.index_mask
    if unrevealed:
        return m.condition(revealed), indices_of(unrevealed)
    if m.prob_of_assignment(revealed) == 0:
        raise ZeroProbabilityEvent("conditioning event has probability 0")
    raise NoEligibleIndex("every variable is already revealed")


def _influence_terms(atoms, bit: int, others_mask: int):
    """(w1, w0, S1, S0): one-weights of the candidate and the weighted
    one-counts of the other unrevealed variables on each branch."""
    w1 = s1 = s0 = 0
    total = 0
    for mask, weight in atoms:
        total += weight
        ones = (mask & others_mask).bit_count() * weight
        if mask & bit:
            w1 += weight
            s1 += ones
        else:
            s0 += ones
    return w1, total - w1, s1, s0


def _pick_from_atoms(atoms, n: int, revealed_mask: int) -> PickResult:
    full_unrevealed = ((1 << n) - 1) & ~revealed_mask
    for i in indices_of(full_unrevealed):
        bit = 1 << (i - 1)
        w1, w0, s1, s0 = _influence_terms(atoms, bit, full_unrevealed & ~bit)
        if w1 == 0 or w0 == 0:
            return PickResult(i, True, None)
        # influence s0/w0 - s1/w1 <= 1, with both denominators cleared
        excess = s0 * w1 - s1 * w0
        if excess <= w0 * w1:
            return PickResult(i, False, Fraction(excess, w0 * w1))
    raise NoEligibleIndex(
        "no unrevealed index is deterministic or has influence sum <= 1"
    )


def pick_index(m: ExplicitMeasure, revealed: Assignment) -> PickResult:
    """The minimum unrevealed index that is deterministic given the
    assignment or whose influence sum
    sum_l (E[X_l | ., Xi=0] - E[X_l | ., Xi=1]) is at most 1."""
    law, labels = _conditional(m, revealed)
    pick = _pick_from_atoms(law.scaled_weights()[1].items(), law.n, 0)
    return PickResult(labels[pick.index - 1], pick.deterministic, pick.influence_sum)


@dataclass(frozen=True)
class PickLemmaEntry:
    index: int
    pi: Fraction
    variance: Fraction
    covariance_sum: Fraction
    quantity: Fraction
    deterministic: bool
    influence_sum: Optional[Fraction]


@dataclass
class PickLemmaReport:
    revealed: Assignment
    entries: list[PickLemmaEntry]
    satisfied: list[int]
    chosen: PickResult

    def to_json(self) -> dict:
        return {
            "revealed": self.revealed.to_json(),
            "entries": [
                {
                    "index": e.index,
                    "pi": format_rational(e.pi),
                    "variance": format_rational(e.variance),
                    "covariance_sum": format_rational(e.covariance_sum),
                    "quantity": format_rational(e.quantity),
                    "deterministic": e.deterministic,
                    "influence_sum": None
                    if e.influence_sum is None
                    else format_rational(e.influence_sum),
                }
                for e in self.entries
            ],
            "satisfied": self.satisfied,
            "chosen_index": self.chosen.index,
        }


def verify_pick_lemma(m: ExplicitMeasure, revealed: Assignment) -> PickLemmaReport:
    """Recompute, for every unrevealed i, the nonnegativity witness
    Var[Xi | .] + sum_j Cov[Xi, Xj | .] and check it against the
    influence-sum form pi*(1-pi)*(1 - influence).

    At least one index must have a nonnegative witness (the variance of
    the conditional sum is nonnegative); LemmaViolated means the
    implementation or the input measure is broken.
    """
    law, labels = _conditional(m, revealed)
    total, weights = law.scaled_weights()
    atoms = weights.items()
    entries = []
    satisfied = []
    for t, i in enumerate(labels):
        bit = 1 << t
        w1, w0, s1, s0 = _influence_terms(atoms, bit, ((1 << law.n) - 1) & ~bit)
        pi = Fraction(w1, total)
        variance = pi * (1 - pi)
        # s0 + s1 is the weighted count of ones among the other variables
        cov_sum = Fraction(s1, total) - pi * Fraction(s0 + s1, total)
        quantity = variance + cov_sum
        deterministic = w1 == 0 or w0 == 0
        influence = None if deterministic else Fraction(s0, w0) - Fraction(s1, w1)
        if deterministic and quantity != 0:
            raise LemmaViolated(f"deterministic index {i} has nonzero witness {quantity}")
        if not deterministic and quantity != variance * (1 - influence):
            raise LemmaViolated(
                f"index {i}: witness {quantity} != pi(1-pi)(1-influence) "
                f"{variance * (1 - influence)}"
            )
        entries.append(
            PickLemmaEntry(i, pi, variance, cov_sum, quantity, deterministic, influence)
        )
        if quantity >= 0:
            satisfied.append(i)
    if not satisfied:
        raise LemmaViolated(
            f"no unrevealed index has a nonnegative witness at {revealed.to_json()}"
        )
    # the pick rule takes the first satisfied index: where pi(1 - pi) > 0,
    # quantity >= 0 exactly when influence <= 1
    first = next(e for e in entries if e.index == satisfied[0])
    chosen = PickResult(first.index, first.deterministic, first.influence_sum)
    return PickLemmaReport(revealed, entries, satisfied, chosen)


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SkeletonNode:
    """Structure of one conditioning event, independent of any f: the
    revealed indices and their bits, its integer weight w over the
    measure's common denominator, its pick and the pick's influence sum
    (adaptive, non-deterministic picks only).  The Assignment, whether the
    pick is deterministic, probability = w / denom, p1 = w1 / w and p0 are
    built on every read."""

    indices: tuple[int, ...]
    values: tuple[int, ...]
    denom: int
    w: int
    pick: Optional[int]
    pick_influence: Optional[Fraction]
    child0: Optional["SkeletonNode"]
    child1: Optional["SkeletonNode"]
    leaf_mask: Optional[int]

    @property
    def assignment(self) -> Assignment:
        return Assignment(self.indices, self.values)

    @property
    def pick_deterministic(self) -> bool:
        # a pick is deterministic exactly when one branch has weight 0
        return self.pick is not None and (self.child0 is None or self.child1 is None)

    @property
    def probability(self) -> Fraction:
        return Fraction(self.w, self.denom)

    @property
    def p0(self) -> Optional[Fraction]:
        return None if self.pick is None else 1 - self.p1

    @property
    def p1(self) -> Optional[Fraction]:
        if self.pick is None:
            return None
        return Fraction(0 if self.child1 is None else self.child1.w, self.w)


@dataclass
class Skeleton:
    measure: ExplicitMeasure
    order: Optional[tuple[int, ...]]
    root: SkeletonNode


def build_skeleton(m: ExplicitMeasure, order=None) -> Skeleton:
    """The decision-tree structure for a measure: picks, branch
    weights, reachable assignments.  order=None selects adaptively;
    otherwise order must be a permutation of the ints 1..n, checked once
    here.  The revealed and one masks are carried down."""
    n = m.n
    refuse_over_cap("tree", n)
    if order is not None:
        order = tuple(order)
        if any(type(i) is not int for i in order) or sorted(order) != list(range(1, n + 1)):
            raise ValueError("order must be a permutation of 1..n")
    denom, weights = m.scaled_weights()

    def grow(indices, values, index_mask, one_mask, atoms, total) -> SkeletonNode:
        if len(indices) == n:
            return SkeletonNode(indices, values, denom, total, None, None,
                                None, None, one_mask)
        if order is None:
            pick = _pick_from_atoms(atoms, n, index_mask)
            index, influence = pick.index, pick.influence_sum
        else:
            index, influence = order[len(indices)], None
        bit = 1 << (index - 1)
        ones, zeros, w1 = [], [], 0
        for atom in atoms:
            mask, weight = atom
            if mask & bit:
                ones.append(atom)
                w1 += weight
            else:
                zeros.append(atom)
        w0 = total - w1
        below, below_mask = indices + (index,), index_mask | bit
        child1 = child0 = None
        if w1:
            child1 = grow(below, values + (1,), below_mask, one_mask | bit, ones, w1)
        if w0:
            child0 = grow(below, values + (0,), below_mask, one_mask, zeros, w0)
        return SkeletonNode(
            indices, values, denom, total, index, influence, child0, child1, None,
        )

    return Skeleton(m, order, grow((), (), 0, 0, sorted(weights.items()), denom))


@dataclass(slots=True)
class TreeNode(SkeletonNode):
    """A skeleton node annotated with f = nums / den: s is the sum of
    w_x * nums[x] over the atoms x below, so the martingale value is
    y = s / (den * w).  y and the increment interval (alpha, beta) are
    built on every read; alpha/beta are (0, 0) at leaves and forced
    branches."""

    s: int
    den: int
    _terms: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _branch_terms(self) -> tuple:
        """Each branch's probability and increment y_c - y as floats,
        (p0, d0, p1, d1), or () at leaves and forced branches; computed on
        first use and kept."""
        if self._terms is None:
            c0, c1 = self.child0, self.child1
            forced = c0 is None or c1 is None
            self._terms = () if forced else (*_step(self, c0), *_step(self, c1))
        return self._terms

    @property
    def is_leaf(self) -> bool:
        return self.pick is None

    @property
    def depth(self) -> int:
        return len(self.indices)

    @property
    def y(self) -> Fraction:
        return Fraction(self.s, self.den * self.w)

    @property
    def alpha(self) -> Fraction:
        if self.child0 is None or self.child1 is None:
            return ZERO
        return min(self.child0.y, self.child1.y) - self.y

    @property
    def beta(self) -> Fraction:
        if self.child0 is None or self.child1 is None:
            return ZERO
        return max(self.child0.y, self.child1.y) - self.y

    def _gap_terms(self) -> tuple[int, int]:
        """|y1 - y0| = num / (den q) as (num, q), the denominators den w0
        and den w1 cleared; (0, 1) at leaves and forced branches."""
        c0, c1 = self.child0, self.child1
        if c0 is None or c1 is None:
            return 0, 1
        return abs(c1.s * c0.w - c0.s * c1.w), c0.w * c1.w

    @property
    def gap(self) -> Fraction:
        num, q = self._gap_terms()
        return Fraction(num, self.den * q)


@dataclass
class MartingaleTree:
    measure: ExplicitMeasure
    f: TestFunction
    kind: str  # "adaptive" | "fixed"
    order: Optional[tuple[int, ...]]
    root: TreeNode

    @property
    def n(self) -> int:
        return self.measure.n

    def nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.child1 is not None:
                stack.append(node.child1)
            if node.child0 is not None:
                stack.append(node.child0)

    def internal_nodes(self) -> Iterator[TreeNode]:
        return (node for node in self.nodes() if not node.is_leaf)

    def leaves(self) -> Iterator[TreeNode]:
        return (node for node in self.nodes() if node.is_leaf)

    @cached_property
    def _leaf_terms(self) -> list[tuple[float, float]]:
        """(p, d) of every leaf in preorder: its probability and Y_final - Y_0."""
        return [_step(self.root, leaf) for leaf in self.leaves()]

    # -- serialization ----------------------------------------------------

    def _node_json(self, node: TreeNode) -> dict:
        if node.is_leaf:
            return {
                "x": bits_from_mask(node.leaf_mask, self.n),
                "y": format_rational(node.y),
            }
        doc = {
            "pick": node.pick,
            "p0": format_rational(node.p0),
            "p1": format_rational(node.p1),
            "y": format_rational(node.y),
            "alpha": format_rational(node.alpha),
            "beta": format_rational(node.beta),
            "children": {},
        }
        if node.child0 is not None:
            doc["children"]["0"] = self._node_json(node.child0)
        if node.child1 is not None:
            doc["children"]["1"] = self._node_json(node.child1)
        return doc

    def to_json(self) -> dict:
        doc = {
            "n": self.n,
            "kind": self.kind,
            "f": self.f.name,
            "root": self._node_json(self.root),
        }
        if self.order is not None:
            doc["order"] = list(self.order)
        return doc

    def _pattern(self, node: TreeNode) -> str:
        chars = ["*"] * self.n
        for i, v in zip(node.indices, node.values):
            chars[i - 1] = str(v)
        return "".join(chars)

    def to_csv(self) -> str:
        """One row per node, root first, children in 0-then-1 order."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["depth", "pattern", "probability", "pick",
             "p0", "p1", "y", "alpha", "beta", "node"]
        )

        for node in self.nodes():  # preorder: root, 0-subtree, 1-subtree
            forced = node.child0 is None or node.child1 is None
            kind = "leaf" if node.is_leaf else "forced" if forced else "branch"
            writer.writerow([
                node.depth,
                self._pattern(node),
                format_rational(node.probability),
                "" if node.pick is None else node.pick,
                "" if node.p0 is None else format_rational(node.p0),
                "" if node.p1 is None else format_rational(node.p1),
                format_rational(node.y),
                format_rational(node.alpha),
                format_rational(node.beta),
                kind,
            ])
        return out.getvalue()


def _step(node: TreeNode, below: TreeNode) -> tuple[float, float]:
    """Pr[below | node] and y_below - y as floats.  int / int true division
    rounds correctly, as float(Fraction) does."""
    w, s, v = node.w, node.s, below.w
    return v / w, (below.s * w - s * v) / (node.den * v * w)


def _annotate(
    skeleton: Skeleton, f: TestFunction, kind: str, gap_limit: Optional[int]
) -> MartingaleTree:
    m = skeleton.measure
    if f.n != m.n:
        raise DimensionMismatch(f"function on {f.n} vars, measure on {m.n}")
    nums, den = f.nums, f.den

    def value(node: SkeletonNode) -> TreeNode:
        child0 = value(node.child0) if node.child0 is not None else None
        child1 = value(node.child1) if node.child1 is not None else None
        if node.leaf_mask is not None:
            s = node.w * nums[node.leaf_mask]
        else:
            s = sum(c.s for c in (child0, child1) if c is not None)
        tree_node = TreeNode(
            node.indices, node.values, node.denom, node.w, node.pick,
            node.pick_influence, child0, child1, node.leaf_mask, s, den,
        )
        if gap_limit is not None and child0 is not None and child1 is not None:
            num, q = tree_node._gap_terms()
            if num > gap_limit * den * q:
                raise IntervalViolation(
                    f"martingale increment interval has width {tree_node.gap} "
                    f"> {gap_limit} at node {tree_node.assignment.to_json()}",
                    node=tree_node,
                )
        return tree_node

    return MartingaleTree(m, f, kind, skeleton.order, value(skeleton.root))


def _skeleton_for(
    m: ExplicitMeasure, order: Optional[tuple], skeleton: Optional[Skeleton]
) -> Skeleton:
    """The given skeleton if it was built for (m, order), else a new one."""
    if skeleton is None:
        return build_skeleton(m, order)
    if skeleton.order != order or skeleton.measure is not m:
        raise ValueError("skeleton was built for a different configuration")
    return skeleton


def build_adaptive_tree(
    m: ExplicitMeasure, f: TestFunction, skeleton: Optional[Skeleton] = None
) -> MartingaleTree:
    """The full adaptive-ordering martingale tree for (m, f).

    Assumes the caller has established negative regression for m; if the
    assumption fails, the increment interval at some node exceeds the
    guaranteed width and IntervalViolation carries that node as a
    certificate.  Pass a prebuilt skeleton to amortize the pick
    computations across many functions.
    """
    skeleton = _skeleton_for(m, None, skeleton)
    return _annotate(skeleton, f, "adaptive", 1 if f.declared_monotone else 2)


def fixed_order_tree(
    m: ExplicitMeasure,
    f: TestFunction,
    order=None,
    skeleton: Optional[Skeleton] = None,
) -> MartingaleTree:
    """Martingale tree with a prescribed revelation order (default the
    identity).  No increment-interval guarantee: intervals are reported
    as found."""
    if order is None:
        order = tuple(range(1, m.n + 1))
    skeleton = _skeleton_for(m, tuple(order), skeleton)
    return _annotate(skeleton, f, "fixed", None)


def max_step(tree: MartingaleTree, mode: Optional[str] = None) -> Fraction:
    """Worst-case step size over all nodes.

    mode "gap": the increment-interval width beta - alpha (default for
    adaptive trees).  mode "deviation": the largest child deviation
    max(|y0 - y|, |y1 - y|) (default for fixed trees).  The steps are
    compared on integers; one Fraction is built, for the largest."""
    if mode is None:
        mode = "gap" if tree.kind == "adaptive" else "deviation"
    if mode not in ("gap", "deviation"):
        raise ValueError(f"unknown mode {mode!r}")
    num, q, _ = _largest_step(tree.nodes(), mode)
    return Fraction(num, tree.root.den * q)


def _largest_step(nodes, mode: str) -> tuple:
    """(num, q, node): the largest step num / (den q) and the first node to take
    it, or (0, 1, None).  den is common, so steps compare as num q' > num' q.
    Gap: |s1 w0 - s0 w1| / (den w0 w1); deviation: |s_c w - s w_c| / (den w_c w)."""
    best, best_q, best_node = 0, 1, None
    for node in nodes:
        if mode == "deviation":
            w, s = node.w, node.s
            steps = [(abs(c.s * w - s * c.w), c.w * w)
                     for c in (node.child0, node.child1) if c is not None]
        else:
            steps = [node._gap_terms()]
        for num, q in steps:
            if num * best_q > best * q:
                best, best_q, best_node = num, q, node
    return best, best_q, best_node


def root_step(tree: MartingaleTree) -> Fraction:
    """Largest first-step deviation |Y1 - Y0| over the root's branches."""
    num, q, _ = _largest_step((tree.root,), "deviation")
    return Fraction(num, tree.root.den * q)


__all__ = [
    "PickResult",
    "PickLemmaReport",
    "pick_index",
    "verify_pick_lemma",
    "Skeleton",
    "build_skeleton",
    "TreeNode",
    "MartingaleTree",
    "build_adaptive_tree",
    "fixed_order_tree",
    "max_step",
    "root_step",
]
