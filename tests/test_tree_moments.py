"""Tail tables and exponential moments against frozen Fraction copies.

``verify_theorem`` compares integer numerators against the integer
thresholds ceil((mu + t) * den) and floor((mu - t) * den), and takes
each bound's exponent as one int / int division.  Node moments read
branch terms each node computes once, and chain moments read the leaf
terms each tree computes once.  The ``frozen_*`` functions below are the
code these replaced, which compared Fractions and recomputed every term
per call.  Rows, bounds, verdicts and moments must be equal under ``==``,
so every float is the same correctly rounded quotient as before.
"""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from negdep.concentration import (
    REL_TOL,
    TailReport,
    TailRow,
    TailSide,
    chain_exponential_moment,
    default_t_grid,
    exact_tail,
    node_exponential_moment,
    theorem_bound,
    verify_theorem,
)
from negdep.errors import NodeIsLeaf
from negdep.martingale import build_adaptive_tree, build_skeleton
from negdep.measure import (
    TestFunction,
    parse_family,
    random_lipschitz,
    sum_function,
)

LAMBDAS = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1)
SEEDS = range(3)
# n = 8 with common denominator near 2^128; NR holds
WIDE_SPEC = (
    "condsum:9973/65521,19946/65519,29919/65497,39892/65479,"
    "49865/65449,59838/65447,4374/65437,14361/65423:1:7"
)


# ---------------------------------------------------------------------------
# Frozen copies of the Fraction code
# ---------------------------------------------------------------------------


def frozen_theorem_bound(n, t, monotone):
    if n < 1:
        raise ValueError("n must be at least 1")
    t = Fraction(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if monotone:
        exponent = Fraction(-2) * t * t / n
    else:
        exponent = -t * t / (2 * n)
    return math.exp(float(exponent))


def frozen_exact_tail(m, f, t, side):
    t = Fraction(t)
    mu = m.expectation(f)
    total, weights = m.scaled_weights()
    nums = f.nums
    if side is TailSide.Upper:
        threshold = (mu + t) * f.den
        hit = sum(w for x, w in weights.items() if nums[x] >= threshold)
    else:
        threshold = (mu - t) * f.den
        hit = sum(w for x, w in weights.items() if nums[x] <= threshold)
    return Fraction(hit, total)


def _within(exact, bound):
    return float(exact) <= bound * (1 + REL_TOL)


def frozen_verify_theorem(m, f, t_grid=None):
    if t_grid is None:
        t_grid = default_t_grid(f)
    t_grid = sorted(Fraction(t) for t in t_grid)
    mu = m.expectation(f)
    total, weights = m.scaled_weights()
    nums, den = f.nums, f.den
    by_value = {}
    for x, w in weights.items():
        v = nums[x]
        by_value[v] = by_value.get(v, 0) + w
    values = sorted(by_value)
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + by_value[v])

    def upper_tail(threshold):
        return Fraction(total - prefix[bisect_left(values, threshold * den)], total)

    def lower_tail(threshold):
        return Fraction(prefix[bisect_right(values, threshold * den)], total)

    rows = []
    verdict = True
    for t in t_grid:
        upper = upper_tail(mu + t)
        lower = lower_tail(mu - t)
        bound = frozen_theorem_bound(m.n, t, False)
        mono = frozen_theorem_bound(m.n, t, True) if f.declared_monotone else None
        worst = max(upper, lower)
        passed = _within(worst, bound)
        if mono is not None:
            passed = passed and _within(worst, mono)
        verdict = verdict and passed
        rows.append(TailRow(t, upper, lower, bound, mono, passed))
    return TailReport(m.n, mu, rows, verdict)


def frozen_node_exponential_moment(tree, node, lam):
    if node.is_leaf:
        raise NodeIsLeaf(f"node {node.assignment.to_json()} has no increment")
    c0, c1 = node.child0, node.child1
    if c0 is None or c1 is None:
        return 1.0
    w, s, den = node.w, node.s, node.den
    d0 = (c0.s * w - s * c0.w) / (den * c0.w * w)
    d1 = (c1.s * w - s * c1.w) / (den * c1.w * w)
    return c0.w / w * math.exp(lam * d0) + c1.w / w * math.exp(lam * d1)


def frozen_chain_exponential_moment(tree, lam):
    root = tree.root
    w, s, den = root.w, root.s, root.den
    return sum(
        leaf.w / w * math.exp(lam * ((leaf.s * w - s * leaf.w) / (den * leaf.w * w)))
        for leaf in tree.leaves()
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def thirds(f):
    """f / 3 - 1/7: still 1-Lipschitz, with values over a denominator
    dividing 84 rather than 4."""
    return TestFunction(
        f.n, [v / 3 - Fraction(1, 7) for v in f.values],
        declared_monotone=f.declared_monotone, name=f"{f.name}/3",
    )


def functions(name, n):
    for seed in SEEDS:
        for monotone in (True, False):
            rng = random.Random(f"tree_moments:{name}:{seed}")
            yield random_lipschitz(n, rng, monotone=monotone)
    yield thirds(random_lipschitz(n, random.Random(f"thirds:{name}")))
    yield sum_function(n)


def grids(f):
    lo, hi = f.exact_range()
    beyond = hi - lo + Fraction(1, 3)
    return [
        None,  # the default quarter grid over the range width
        [Fraction(0), Fraction(1, 3), Fraction(7, 5)],
        [Fraction(7, 5), beyond, Fraction(0), 2 * beyond + f.n],
    ]


@pytest.fixture(scope="module")
def tail_cases(the_zoo):
    """(name, measure) for every catalog measure and the wide conditioned
    sum; tail tables do not need NR, and some of these fail their bound."""
    return [*the_zoo.items(), ("condsum_wide", parse_family(WIDE_SPEC))]


@pytest.fixture(scope="module")
def cases(nr_zoo):
    """(name, measure, skeleton) for every NR catalog measure and the wide
    conditioned sum."""
    measures = dict(nr_zoo)
    measures["condsum_wide"] = parse_family(WIDE_SPEC)
    return [(name, m, build_skeleton(m)) for name, m in measures.items()]


# ---------------------------------------------------------------------------
# Tail tables
# ---------------------------------------------------------------------------


def test_the_wide_measure_has_a_denominator_above_2_64():
    assert parse_family(WIDE_SPEC).scaled_weights()[0] > 1 << 64


def test_tail_reports_equal_the_frozen_ones(tail_cases):
    reports = failing = 0
    for name, m in tail_cases:
        for f in functions(name, m.n):
            for grid in grids(f):
                got = verify_theorem(m, f, grid)
                want = frozen_verify_theorem(m, f, grid)
                assert got == want, (name, f.name, grid)
                assert [row.bound for row in got.rows] == [row.bound for row in want.rows]
                assert [row.passed for row in got.rows] == [row.passed for row in want.rows]
                assert got.verdict == want.verdict
                reports += 1
                failing += not got.verdict
    assert reports > 300
    # the sum on the measures without NR breaks the bound: the comparison
    # covers failed rows as well as passed ones
    assert failing > 0


def test_exact_tails_equal_the_frozen_ones(tail_cases):
    for name, m in tail_cases:
        for f in functions(name, m.n):
            for t in grids(f)[1] + grids(f)[2] + [Fraction(-1, 3)]:
                for side in TailSide:
                    assert exact_tail(m, f, t, side) == frozen_exact_tail(m, f, t, side)


@pytest.mark.parametrize("monotone", [False, True])
def test_bounds_equal_the_frozen_ones(monotone):
    ts = [Fraction(k, q) for q in (1, 3, 4, 5, 7, 2**40 + 3) for k in range(0, 60, 7)]
    for n in (1, 2, 3, 8, 13):
        for t in ts + [0, 2, Fraction(7, 5)]:
            assert theorem_bound(n, t, monotone) == frozen_theorem_bound(n, t, monotone)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_moments_equal_the_frozen_ones(cases):
    branching = forced = 0
    for name, m, sk in cases:
        for f in functions(name, m.n):
            tree = build_adaptive_tree(m, f, skeleton=sk)
            for lam in LAMBDAS:
                assert chain_exponential_moment(tree, lam) == (
                    frozen_chain_exponential_moment(tree, lam)
                ), (name, f.name, lam)
            for node in tree.internal_nodes():
                for lam in LAMBDAS:
                    got = node_exponential_moment(tree, node, lam)
                    assert got == frozen_node_exponential_moment(tree, node, lam)
                if node.child0 is None or node.child1 is None:
                    forced += 1
                    assert got == 1.0
                else:
                    branching += 1
    assert branching > 1000 and forced > 50


def test_leaves_raise_before_and_after_their_parent_is_read(cases):
    _, m, sk = cases[0]
    tree = build_adaptive_tree(m, random_lipschitz(m.n, random.Random(1)), skeleton=sk)
    leaves = list(tree.leaves())
    for leaf in leaves[:3]:
        with pytest.raises(NodeIsLeaf):
            frozen_node_exponential_moment(tree, leaf, 1.0)
        with pytest.raises(NodeIsLeaf):
            node_exponential_moment(tree, leaf, 1.0)
    for node in tree.internal_nodes():
        node_exponential_moment(tree, node, 1.0)
    chain_exponential_moment(tree, 1.0)
    for leaf in leaves:
        with pytest.raises(NodeIsLeaf):
            node_exponential_moment(tree, leaf, 0.5)


def test_terms_are_computed_on_first_use_only(cases):
    _, m, sk = cases[0]
    tree = build_adaptive_tree(m, random_lipschitz(m.n, random.Random(2)), skeleton=sk)
    # a tree that never asks for a moment keeps no terms
    assert all(node._terms is None for node in tree.nodes())
    assert "_leaf_terms" not in vars(tree)
    node = tree.root
    first = [node_exponential_moment(tree, node, lam) for lam in LAMBDAS]
    assert node._terms is not None
    assert [node_exponential_moment(tree, node, lam) for lam in LAMBDAS] == first
    assert all(other._terms is None for other in tree.nodes() if other is not node)
    chain = [chain_exponential_moment(tree, lam) for lam in LAMBDAS]
    assert "_leaf_terms" in vars(tree)
    assert [chain_exponential_moment(tree, lam) for lam in reversed(LAMBDAS)] == chain[::-1]
