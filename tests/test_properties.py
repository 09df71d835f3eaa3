"""Property-based checks over randomized measures and functions."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from negdep.concentration import TailSide, exact_tail, verify_theorem
from negdep.coupling import DominanceFails, build_monotone_coupling, check_dominance
from negdep.dependence import (
    NOTION_IMPLICATIONS,
    Notion,
    check_cna,
    check_cylinder,
    check_neg_association,
    check_neg_regression,
    check_pairwise_nc,
    check_stochastic_covering,
)
from negdep.errors import IntervalViolation
from negdep.martingale import (
    build_adaptive_tree,
    build_skeleton,
    verify_pick_lemma,
)
from negdep.measure import Assignment, new_explicit, random_lipschitz, sum_function
from negdep.upsets import upset_bitmasks, upset_members


def weights_to_measure(n, weights):
    total = sum(weights)
    return new_explicit(
        n, [(x, Fraction(w, total)) for x, w in enumerate(weights) if w]
    )


def measures(n):
    return (
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=1 << n,
            max_size=1 << n,
        )
        .filter(lambda ws: any(ws))
        .map(lambda ws: weights_to_measure(n, ws))
    )


CHECKS = {
    Notion.PAIRWISE_NC: check_pairwise_nc,
    Notion.CYLINDER: check_cylinder,
    Notion.NEG_ASSOCIATION: check_neg_association,
    Notion.NEG_REGRESSION: check_neg_regression,
    Notion.CNA: check_cna,
    Notion.STOCHASTIC_COVERING: check_stochastic_covering,
}


@settings(max_examples=60, deadline=None)
@given(m=measures(3))
def test_hierarchy_never_inverted(m):
    verdicts = {notion: CHECKS[notion](m).ok for notion in CHECKS}
    for stronger, weaker in NOTION_IMPLICATIONS:
        assert not (verdicts[stronger] and not verdicts[weaker])


@settings(max_examples=60, deadline=None)
@given(m=measures(3))
def test_pick_lemma_never_fails(m):
    # the pigeonhole behind the pick rule holds for every measure, not
    # just negatively dependent ones
    stack = [Assignment.empty()]
    while stack:
        a = stack.pop()
        if len(a.indices) == m.n:
            continue
        rep = verify_pick_lemma(m, a)
        i = rep.chosen.index
        for v in (0, 1):
            ext = Assignment(a.indices + (i,), a.values + (v,))
            if m.prob_of_assignment(ext) > 0:
                stack.append(ext)


@settings(max_examples=40, deadline=None)
@given(m=measures(3), data=st.data())
def test_skeleton_probabilities_partition(m, data):
    sk = build_skeleton(m)
    level_mass = [Fraction(0)] * (m.n + 1)

    def walk(node):
        level_mass[len(node.assignment.indices)] += node.probability
        for child in (node.child0, node.child1):
            if child is not None:
                walk(child)

    walk(sk.root)
    # forced chains keep each level's reachable mass at exactly 1
    assert all(mass == 1 for mass in level_mass)


@settings(max_examples=40, deadline=None)
@given(m=measures(2), seed=st.integers(min_value=0, max_value=10_000))
def test_adaptive_tree_interval_contract(m, seed):
    # either the tree respects the width guarantee or it raises with the
    # offending node; nothing in between
    f = random_lipschitz(m.n, random.Random(seed), monotone=False)
    try:
        tree = build_adaptive_tree(m, f)
    except IntervalViolation as exc:
        assert exc.node is not None
        assert exc.node.beta - exc.node.alpha > 2
        return
    for node in tree.nodes():
        assert node.beta - node.alpha <= 2


@settings(max_examples=60, deadline=None)
@given(lower=measures(3), upper=measures(3))
def test_dominance_agrees_with_upset_oracle(lower, upper):
    res = check_dominance(lower, upper)
    brute = all(
        sum((upper.prob(p) for p in upset_members(bm, 3)), Fraction(0))
        >= sum((lower.prob(p) for p in upset_members(bm, 3)), Fraction(0))
        for bm in upset_bitmasks(3)
    )
    assert res.dominates == brute
    if not res.dominates:
        assert res.certificate.check(lower, upper)


@settings(max_examples=40, deadline=None)
@given(lower=measures(3), upper=measures(3))
def test_coupling_marginals_whenever_built(lower, upper):
    try:
        c = build_monotone_coupling(lower, upper)
    except DominanceFails as exc:
        assert exc.certificate is not None
        return
    c.validate()
    row = {}
    col = {}
    for x, y, p in c.pairs():
        assert x & ~y == 0
        row[x] = row.get(x, Fraction(0)) + p
        col[y] = col.get(y, Fraction(0)) + p
    assert row == dict(lower.items())
    assert col == dict(upper.items())


@settings(max_examples=30, deadline=None)
@given(m=measures(3), seed=st.integers(min_value=0, max_value=10_000))
def test_tails_consistent_and_monotone(m, seed):
    f = random_lipschitz(3, random.Random(seed))
    rep = verify_theorem(m, f)
    last_upper = Fraction(1)
    last_lower = Fraction(1)
    for row in rep.rows:
        assert row.upper_exact == exact_tail(m, f, row.t, TailSide.Upper)
        assert row.lower_exact == exact_tail(m, f, row.t, TailSide.Lower)
        assert row.upper_exact <= last_upper
        assert row.lower_exact <= last_lower
        last_upper, last_lower = row.upper_exact, row.lower_exact


@settings(max_examples=60, deadline=None)
@given(m=measures(3))
def test_measure_json_roundtrip_property(m):
    from negdep.measure import ExplicitMeasure

    assert ExplicitMeasure.from_json(m.to_json()) == m


@settings(max_examples=60, deadline=None)
@given(m=measures(3), idx=st.integers(min_value=1, max_value=3))
def test_conditioning_preserves_total_mass(m, idx):
    for v in (0, 1):
        a = Assignment.of({idx: v})
        p = m.prob_of_assignment(a)
        if p == 0:
            continue
        c = m.condition(a)
        assert sum((q for _, q in c.items()), Fraction(0)) == 1
        # conditional times event probability recovers the joint
        for x, q in c.items():
            full = (x & ((1 << (idx - 1)) - 1)) | (v << (idx - 1)) | (
                (x >> (idx - 1)) << idx
            )
            assert q * p == m.prob(full)


@settings(max_examples=60, deadline=None)
@given(m=measures(3))
def test_sum_expectation_matches_mean_vector(m):
    f = sum_function(3)
    assert m.expectation(f) == sum(m.mean_vector(), Fraction(0))
