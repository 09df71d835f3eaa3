"""Differential tests for the integer core of test functions and trees.

A TestFunction stores integer numerators over one denominator, and a
martingale tree carries the integer sum s = sum of w_x * nums[x] per
node.  The Fraction code they replaced is kept here as the oracle:
random_lipschitz's quarter sums, the per-edge Lipschitz loop, the
recursive annotation and the float-of-Fraction exponential moments.
Values, node quantities and error messages must be equal, and moments
equal bit for bit.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from negdep.concentration import chain_exponential_moment, node_exponential_moment
from negdep.errors import IntervalViolation, InvalidTestFunction, NoEligibleIndex
from negdep.martingale import build_skeleton
from negdep.martingale import _annotate as annotate
from negdep.measure import (
    TestFunction,
    constant_function,
    family_conditioned_sum,
    family_independent,
    random_lipschitz,
    sum_function,
    xor_function,
    zoo,
)

ZERO = Fraction(0)
LAMBDAS = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1)
# shifts every numerator past the int64 bound of TestFunction._verify
OFFSET = Fraction(2**70 + 1, 3)
BIG_PROBS = [
    Fraction(1, 101), Fraction(50, 103), Fraction(7, 107), Fraction(60, 109),
    Fraction(33, 113), Fraction(20, 127),
]


# ---------------------------------------------------------------------------
# Oracles: the Fraction code, as it was before the integer core
# ---------------------------------------------------------------------------


def oracle_random_lipschitz(n, rng, monotone=False, pieces=3):
    combine = min if rng.random() < 0.5 else max
    terms = []
    for _ in range(max(1, pieces)):
        offset = Fraction(rng.randint(-12, 12), 4)
        low = 0 if monotone else -4
        slopes = [Fraction(rng.randint(low, 4), 4) for _ in range(n)]
        terms.append((offset, slopes))
    vals = []
    for mask in range(1 << n):
        candidates = [
            offset + sum((s for pos, s in enumerate(slopes) if mask >> pos & 1), ZERO)
            for offset, slopes in terms
        ]
        vals.append(combine(candidates))
    return vals


def oracle_verify(values, n, monotone, name):
    """The message for the first failing bit-flip edge, or None."""
    for x in range(1 << n):
        for pos in range(n):
            y = x | (1 << pos)
            if y == x:
                continue
            step = values[y] - values[x & ~(1 << pos)]
            if abs(step) > 1:
                return f"{name}: flip of x{pos + 1} changes value by {step}"
            if monotone and step < 0:
                return f"{name}: not monotone along x{pos + 1}"
    return None


Node = namedtuple("Node", "probability p0 p1 y alpha beta kids")


class OracleViolation(Exception):
    def __init__(self, message, node, alpha, beta):
        super().__init__(message)
        self.node, self.alpha, self.beta = node, alpha, beta


def oracle_tree(skel, atoms, values, limit, probability=Fraction(1)):
    """The Fraction annotation of a skeleton node, with its branch
    probabilities recomputed from the atoms (mask, mass) below it."""
    if skel.leaf_mask is not None:
        return Node(probability, None, None, values[skel.leaf_mask], ZERO, ZERO, ())
    bit = 1 << (skel.pick - 1)
    ones = [(x, p) for x, p in atoms if x & bit]
    zeros = [(x, p) for x, p in atoms if not x & bit]
    p1 = sum((p for _, p in ones), ZERO) / sum((p for _, p in atoms), ZERO)
    p0 = 1 - p1
    kids = []
    for child, part, p in ((skel.child0, zeros, p0), (skel.child1, ones, p1)):
        if child is not None:
            kids.append(oracle_tree(child, part, values, limit, probability * p))
    if len(kids) == 2:
        y = p0 * kids[0].y + p1 * kids[1].y
        alpha = min(k.y for k in kids) - y
        beta = max(k.y for k in kids) - y
    else:
        y, alpha, beta = kids[0].y, ZERO, ZERO
    if limit is not None and beta - alpha > limit:
        raise OracleViolation(
            f"martingale increment interval has width {beta - alpha} "
            f"> {limit} at node {skel.assignment.to_json()}",
            skel, alpha, beta,
        )
    return Node(probability, p0, p1, y, alpha, beta, tuple(kids))


def oracle_node_moment(o, lam):
    if len(o.kids) < 2:
        return 1.0
    d0, d1 = o.kids[0].y - o.y, o.kids[1].y - o.y
    return float(o.p0) * math.exp(lam * float(d0)) + float(o.p1) * math.exp(
        lam * float(d1)
    )


def oracle_leaves(o):
    if not o.kids:
        return [o]
    return [leaf for kid in o.kids for leaf in oracle_leaves(kid)]


def oracle_chain_moment(root, lam):
    return sum(
        float(leaf.probability) * math.exp(lam * float(leaf.y - root.y))
        for leaf in oracle_leaves(root)
    )


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

CASES = list(zoo().items()) + [
    ("condsum12", family_conditioned_sum(
        [Fraction(1, 3)] * 6 + [Fraction(2, 5)] * 6, 5, 6)),
    ("independent_big", family_independent(BIG_PROBS[:5])),
    ("condsum_big", family_conditioned_sum(BIG_PROBS, 2, 3)),
]


def shifted(f):
    """f + OFFSET: the same increments, numerators past the int64 bound."""
    return TestFunction(
        f.n, [OFFSET + v for v in f.values], declared_monotone=f.declared_monotone,
        name=f"{f.name}+offset",
    )


def functions(name, n):
    rng = random.Random(f"integer_functions:{name}")
    randoms = [random_lipschitz(n, rng, monotone=j % 2 == 0) for j in range(4)]
    if n > 8:
        return [randoms[0], shifted(randoms[1])]
    return [
        sum_function(n), xor_function(n), constant_function(n, Fraction(7, 2)),
        *randoms, shifted(randoms[0]), shifted(randoms[1]),
    ]


def assert_same_tree(tree, node, o):
    """Every node quantity equal, and the node moments bit for bit."""
    assert node.probability == o.probability
    assert (node.p0, node.p1) == (o.p0, o.p1)
    assert (node.y, node.alpha, node.beta) == (o.y, o.alpha, o.beta)
    assert node.gap == o.beta - o.alpha
    if not node.is_leaf:
        for lam in LAMBDAS:
            got = node_exponential_moment(tree, node, lam)
            assert got.hex() == oracle_node_moment(o, lam).hex()
    kids = [c for c in (node.child0, node.child1) if c is not None]
    assert len(kids) == len(o.kids)
    for kid, okid in zip(kids, o.kids):
        assert_same_tree(tree, kid, okid)


def annotate_both(m, f, skeleton, kind, limit):
    """(tree, oracle root), or the two violations when either raises."""
    values = f.values
    try:
        expected = oracle_tree(skeleton.root, list(m.items()), values, limit)
    except OracleViolation as exc:
        expected = exc
    try:
        got = annotate(skeleton, f, kind, limit)
    except IntervalViolation as exc:
        got = exc
    return got, expected


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 9))
def test_random_lipschitz_matches_fraction_sums(n):
    for seed in range(6):
        for monotone in (False, True):
            f = random_lipschitz(n, random.Random(seed), monotone)
            rng = random.Random(seed)
            assert f.values == oracle_random_lipschitz(n, rng, monotone)
            assert f.declared_monotone == monotone


@pytest.mark.parametrize(
    "offset", [ZERO, OFFSET, -OFFSET], ids=["small", "big", "minus_big"]
)
def test_verify_reports_the_first_failing_edge_like_the_edge_loop(offset):
    rng = random.Random(f"integer_functions:verify:{offset}")
    outcomes = set()
    for trial in range(400):
        n = rng.randint(1, 5)
        values = oracle_random_lipschitz(n, rng, monotone=trial % 2 == 0)
        for _ in range(rng.randint(0, 2)):  # break an edge, or not
            bump = Fraction(rng.randint(-6, 6), rng.choice((1, 3, 4)))
            values[rng.randrange(1 << n)] += bump
        values = [offset + v for v in values]
        for monotone in (False, True):
            expected = oracle_verify(values, n, monotone, "t")
            try:
                f = TestFunction(n, values, declared_monotone=monotone, name="t")
            except InvalidTestFunction as exc:
                got = str(exc)
            else:
                got = None
                assert f.values == values
            assert got == expected
            outcomes.add(expected.split(" ")[1] if expected else None)
    assert outcomes == {None, "flip", "not"}


@pytest.mark.parametrize(
    "values, message",
    [
        # a step of 2^63 wraps to -2^63 in int64
        ([-(2**62), 2**62], "t: flip of x1 changes value by 9223372036854775808"),
        ([2**62 - 1, 1 - 2**62], "t: flip of x1 changes value by -9223372036854775806"),
        ([2**62, 2**62 + 1, 2**62 - 1, 2**62], "t: not monotone along x2"),
        ([0, Fraction(1, 2**70), 2, 1], "t: flip of x2 changes value by 2"),
        ([Fraction(1, 2**70), 0, 1, 1], "t: not monotone along x1"),
    ],
)
def test_verify_at_the_int64_bound(values, message):
    n = len(values).bit_length() - 1
    assert oracle_verify([Fraction(v) for v in values], n, True, "t") == message
    with pytest.raises(InvalidTestFunction) as exc:
        TestFunction(n, values, declared_monotone=True, name="t")
    assert str(exc.value) == message


def test_inputs_cover_large_denominators_and_numerators():
    dens = {name: m.scaled_weights()[0] for name, m in CASES}
    assert dens["independent_big"] > 1 << 20 and dens["condsum_big"] > 1 << 20
    assert max(m.n for _, m in CASES) == 12
    f = functions("nand5", 5)[-1]
    assert max(map(abs, f.nums)) >= 1 << 62


@pytest.mark.parametrize("name, m", CASES, ids=[name for name, _ in CASES])
def test_trees_and_moments_match_the_fraction_recursion(name, m):
    skeletons = [("fixed", build_skeleton(m, range(1, m.n + 1)))]
    try:
        skeletons.append(("adaptive", build_skeleton(m)))
    except NoEligibleIndex:
        pass
    for f in functions(name, m.n):
        for kind, skeleton in skeletons:
            limit = None if kind == "fixed" else (1 if f.declared_monotone else 2)
            got, expected = annotate_both(m, f, skeleton, kind, limit)
            if isinstance(expected, OracleViolation):
                assert isinstance(got, IntervalViolation), (name, f.name, kind)
                assert str(got) == str(expected)
                assert got.node.assignment == expected.node.assignment
                got_interval = (got.node.alpha, got.node.beta)
                assert got_interval == (expected.alpha, expected.beta)
                continue
            assert not isinstance(got, IntervalViolation), (name, f.name, kind)
            assert_same_tree(got, got.root, expected)
            for lam in LAMBDAS:
                chain = chain_exponential_moment(got, lam)
                assert chain.hex() == oracle_chain_moment(expected, lam).hex()


def test_interval_violations_match_on_foils():
    """The NR-failing catalog measures reach the IntervalViolation path."""
    violations = 0
    for name, m in CASES:
        if name not in ("pos_pair", "anti_pair", "hadamard_4"):
            continue
        skeleton = build_skeleton(m)
        for f in functions(name, m.n):
            got, expected = annotate_both(m, f, skeleton, "adaptive", 1)
            if isinstance(expected, OracleViolation):
                violations += 1
                assert str(got) == str(expected)
                assert got.node.assignment == expected.node.assignment
    assert violations > 0
