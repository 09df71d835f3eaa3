"""Subset transport on the cube's Hasse network against the bipartite one.

``oracle_transport`` below is a frozen copy of the all-pairs bipartite
transport: one node per support atom on each side, an arc for every
admissible pair, flows read off the arcs.  The library decides subset
dominance on the Hasse network of the cube when that has fewer arcs, so
feasibility, flow value and the minimal minimum cut must agree with the
oracle (Strassen; Picard-Queyranne), and covering mode, which keeps the
bipartite network, must also return the oracle's flows.  Plain couplings
come from a path decomposition of a different flow: they must pass
``Coupling.validate`` and repeat exactly.
"""

import random
from fractions import Fraction

import pytest

import negdep.coupling as coupling
from negdep.coupling import (
    Dinic,
    _sorted_scaled,
    build_monotone_coupling,
    check_dominance,
    transport,
)
from negdep.errors import DominanceFails
from negdep.measure import Assignment, family_conditioned_sum, family_nand, new_explicit
from negdep.zoo import random_measure

from test_cover_scan import _buckets_for

BIG_PROBS = (Fraction(1, 3), Fraction(2, 7), Fraction(5, 11), Fraction(4, 13),
             Fraction(6, 17), Fraction(9, 19), Fraction(10, 23))


def oracle_transport(lower_items, lower_total, upper_items, upper_total, covering=False):
    """(feasible, flow value, left cut, pair flows) on the bipartite network
    of all admissible pairs; flows are read off the arcs when feasible."""
    nl, nr = len(lower_items), len(upper_items)
    source, sink = 0, nl + nr + 1
    target = lower_total * upper_total
    inf = target + 1
    net = Dinic(nl + nr + 2)
    for i, (_, w) in enumerate(lower_items):
        net.add_edge(source, 1 + i, w * upper_total)
    for j, (_, w) in enumerate(upper_items):
        net.add_edge(1 + nl + j, sink, w * lower_total)
    middle = []
    for i, (x, _) in enumerate(lower_items):
        for j, (y, _) in enumerate(upper_items):
            if not x & ~y and (not covering or (x ^ y).bit_count() <= 1):
                middle.append((i, j, net.add_edge(1 + i, 1 + nl + j, inf)))
    value = net.max_flow(source, sink)
    if value == target:
        flows = [
            (lower_items[i][0], upper_items[j][0], net.flow_on(handle, inf))
            for i, j, handle in middle
        ]
        return True, value, (), [f for f in flows if f[2]]
    side = net.residual_reachable(source)
    cut = tuple(key for i, (key, _) in enumerate(lower_items) if 1 + i in side)
    return False, value, cut, []


def _items(m):
    return _sorted_scaled(m)


def _conditional_pairs():
    """(label, lower, upper) with lower = law given x_i = 1, upper = given
    x_i = 0, of conditioned sums; these dominate."""
    out = []
    for probs, lo, hi in (((Fraction(1, 3),) * 7, 2, 4), (BIG_PROBS, 2, 5),
                          (tuple(Fraction(k, 12) for k in (4, 6, 8, 3, 9, 6, 4, 8)), 3, 5)):
        m = family_conditioned_sum(probs, lo, hi)
        for i in (1, m.n):
            lower = m.condition(Assignment((i,), (1,)))
            upper = m.condition(Assignment((i,), (0,)))
            out.append((f"condsum{m.n}_{lo}_{hi}_x{i}", lower, upper))
    return out


def _seeded_pairs():
    """Random pairs with n = 2..6, every fifth with weights up to 2^40."""
    rng = random.Random(8080)
    out = []
    for k in range(150):
        n = 2 + k % 5
        max_weight = 1 << 40 if k % 5 == 4 else 8
        out.append((random_measure(n, rng, max_weight), random_measure(n, rng, max_weight)))
    return out


SEEDED = _seeded_pairs()
CONDITIONALS = _conditional_pairs()


def _agree(left, lt, right, ut, covering=False):
    res = transport(left, lt, right, ut, covering=covering, want_flows=True)
    feasible, value, cut, flows = oracle_transport(left, lt, right, ut, covering)
    assert (res.feasible, res.flow_value, res.target) == (feasible, value, lt * ut)
    assert res.left_cut == cut
    if covering:
        assert res.network == "bipartite"
        assert res.pair_flows == flows
    return res


def test_seeded_pairs_decide_and_cut_like_the_bipartite_network():
    infeasible = 0
    for a, b in SEEDED:
        for lower, upper in ((a, b), (b, a)):
            left, lt = _items(lower)
            right, ut = _items(upper)
            res = _agree(left, lt, right, ut)
            assert res.network == "cube"  # dense supports
            infeasible += not res.feasible
    assert 0 < infeasible < 2 * len(SEEDED)


def test_inputs_cover_large_denominators():
    assert sum(a.scaled_weights()[0] > 1 << 20 for a, _ in SEEDED) >= 20
    assert any(lower.scaled_weights()[0] > 1 << 20 for _, lower, _ in CONDITIONALS)


@pytest.mark.parametrize("label,lower,upper", CONDITIONALS, ids=[c[0] for c in CONDITIONALS])
def test_conditioned_sum_conditionals_both_directions(label, lower, upper):
    left, lt = _items(lower)
    right, ut = _items(upper)
    assert _agree(left, lt, right, ut).feasible
    reverse = _agree(right, ut, left, lt)
    assert reverse.network == "cube" and not reverse.feasible


def test_packed_conditional_laws_of_negative_regression():
    # the laws NR transports: free patterns packed to the low bits, so the
    # cube's dimension is read from the keys, not from m.n
    rng = random.Random(77)
    measures = [family_nand(5), family_conditioned_sum(BIG_PROBS[:5], 1, 3)]
    measures += [random_measure(5, rng, 1 << 40) for _ in range(3)]
    networks = {"cube": 0, "bipartite": 0}
    for m in measures:
        for cond_mask in (0b00001, 0b00100, 0b10010, 0b01011):
            laws = _buckets_for(m, cond_mask)
            for a in laws:
                for b in laws:
                    if a != b:
                        networks[_agree(*laws[a], *laws[b]).network] += 1
    assert networks["cube"] > 300 and networks["bipartite"] >= 10


def test_covering_flows_equal_the_bipartite_arc_flows():
    for a, b in SEEDED[:60]:
        for lower, upper in ((a, b), (b, a)):
            left, lt = _items(lower)
            right, ut = _items(upper)
            _agree(left, lt, right, ut, covering=True)
            _agree(left, lt, list(reversed(right)), ut, covering=True)
    for _, lower, upper in CONDITIONALS:
        left, lt = _items(lower)
        right, ut = _items(upper)
        assert _agree(left, lt, right, ut, covering=True).feasible


def test_plain_couplings_validate_and_repeat():
    built = 0
    pairs = [(lower, upper) for _, lower, upper in CONDITIONALS] + SEEDED
    for lower, upper in pairs:
        try:
            first = build_monotone_coupling(lower, upper)  # validates
        except DominanceFails:
            continue
        again = build_monotone_coupling(lower, upper)
        assert first.to_json() == again.to_json()
        assert list(first.pairs()) == list(again.pairs())
        built += 1
    assert built >= len(CONDITIONALS) + 5


def test_plain_coupling_of_nand3_conditionals_is_unchanged():
    m = family_nand(3)
    lower = m.condition(Assignment.of({2: 1}))
    upper = m.condition(Assignment.of({2: 0}))
    left, lt = _items(lower)
    right, ut = _items(upper)
    res = transport(left, lt, right, ut, want_flows=True)
    assert res.pair_flows == oracle_transport(left, lt, right, ut)[3]


def test_sparse_pair_in_dimension_twenty_stays_bipartite(monkeypatch):
    walks = []
    down_closure = coupling._down_closure

    def spy(seeds, budget):
        down = down_closure(seeds, budget)
        walks.append(down)
        return down

    monkeypatch.setattr(coupling, "_down_closure", spy)
    lower = new_explicit(20, [("0" * 20, Fraction(1))])
    upper = new_explicit(20, [("1" * 20, Fraction(1))])
    res = check_dominance(lower, upper)
    assert res.dominates
    assert res.work["network"] == "bipartite" and res.work["edges"] == 1
    assert walks == [None]  # the walk stopped at its budget of one point


def test_cube_network_stops_listing_arcs_at_the_budget(monkeypatch):
    # one lower atom under all 16 points of {0,1}^4: the down-closure fits
    # the budget of 16 pairs, but the Hasse network has 32 arcs
    listed = []
    steps = coupling.up_steps

    def spy(p, members, d):
        above = steps(p, members, d)
        listed.extend(above)
        return above

    monkeypatch.setattr(coupling, "up_steps", spy)
    res = transport([(0, 1)], 1, [(y, 1) for y in range(16)], 16)
    assert res.feasible
    assert res.network == "bipartite" and res.edges == 16
    assert len(listed) < 16 + 4  # at most one point's steps past the budget
