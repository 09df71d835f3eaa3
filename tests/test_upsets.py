import operator
import random
from functools import reduce

import numpy as np
import pytest

import negdep.upsets as upsets
from negdep.coupling import Dinic, up_steps
from negdep.errors import TooLarge
from negdep.upsets import (
    ENUMERABLE_DIM,
    is_up_closed,
    max_weight_upset,
    nontrivial_upsets,
    upset_bitmasks,
    upset_matrix,
    upset_maxima,
    upset_members,
    upset_sums,
)

# Number of antichains / up-sets of {0,1}^d, including the empty and full
# ones (the Dedekind numbers).
DEDEKIND = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


@pytest.mark.parametrize("d", sorted(DEDEKIND))
def test_upset_counts_match_dedekind(d):
    assert len(upset_bitmasks(d)) == DEDEKIND[d]


@pytest.mark.parametrize("d", sorted(DEDEKIND))
def test_upset_order_extends_inclusion(d):
    # each up-set comes after every up-set one point smaller, hence after
    # all of its up-subsets: the first maximum of a product over up-sets in
    # this order is the least maximizing up-set, as a closure returns it
    order = {upset: at for at, upset in enumerate(upset_bitmasks(d))}
    pairs = 0
    for upset, at in order.items():
        for p in range(1 << d):
            smaller = upset & ~(1 << p)
            if smaller != upset and smaller in order:
                assert order[smaller] < at
                pairs += 1
    assert pairs >= len(order) - 1  # each nonempty up-set has a minimal point


def test_negative_dimension_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        upset_bitmasks(-1)


def test_enumerable_dim_bound():
    assert ENUMERABLE_DIM == 5
    with pytest.raises(TooLarge):
        upset_bitmasks(ENUMERABLE_DIM + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_all_enumerated_sets_up_closed(d):
    for bitmask in upset_bitmasks(d):
        members = upset_members(bitmask, d)
        assert is_up_closed(members, d), members


@pytest.mark.parametrize("d", sorted(DEDEKIND))
def test_nontrivial_drops_exactly_the_empty_and_full_sets(d):
    full = (1 << (1 << d)) - 1
    every = upset_bitmasks(d)
    assert (every[0], every[-1]) == (0, full)
    assert nontrivial_upsets(d) == every[1:-1]


@pytest.mark.parametrize("d", [d for d in DEDEKIND if d > 0])
def test_upsets_are_halves_in_runs_of_equal_high_half(d):
    # bits below 2^(d-1) are the points with last coordinate 0 (A0), the
    # rest those with last coordinate 1 (A1): A0 inside A1, both up-sets
    # of {0,1}^(d-1), every such pair once, each A1 in one contiguous run
    half = 1 << (d - 1)
    prev = upset_bitmasks(d - 1)
    pairs = [(b & (1 << half) - 1, b >> half) for b in upset_bitmasks(d)]
    assert all(a0 & ~a1 == 0 for a0, a1 in pairs)
    assert sorted(pairs) == sorted((a0, a1) for a1 in prev for a0 in prev if a0 & ~a1 == 0)
    runs = [a1 for at, (_, a1) in enumerate(pairs) if at == 0 or pairs[at - 1][1] != a1]
    assert runs == list(prev)


# the largest D whose D^2 fits int64
D_INT64 = 3_037_000_499


def _kernel_rows(d, rng):
    """Seeded int64 rows over the 2^d points: small and wide random rows,
    rows with a single +D^2 and -D^2, NA rows D x_b - w_A y_b of seeded
    joints with denominator D, and rows of cancelling pairs (+c at p, -c
    above it), whose maximum several up-sets reach."""
    size, big = 1 << d, D_INT64 * D_INT64
    assert big <= (1 << 63) - 1 < (D_INT64 + 1) ** 2
    rows = [[0] * size, [rng.randint(-9, 9) for _ in range(size)],
            [rng.randint(-(1 << 40), 1 << 40) for _ in range(size)]]
    for p in range(size):
        q = rng.randrange(size)
        if q != p:
            rows.append([big * ((r == p) - (r == q)) for r in range(size)])
    for _ in range(4):
        cuts = sorted(rng.randrange(D_INT64 + 1) for _ in range(2 * size - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, D_INT64])]
        y = [parts[2 * b] + parts[2 * b + 1] for b in range(size)]  # weight of X_J = b
        x = [parts[2 * b] for b in range(size)]  # weight of {X_I in A, X_J = b}
        rows.append([D_INT64 * xb - sum(x) * yb for xb, yb in zip(x, y)])
    for _ in range(4):
        rows.append(_cancelling_pairs(rng, d, 5, size))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("d", sorted(DEDEKIND))
def test_upset_sums_and_maxima_equal_the_table_product(d):
    rng = random.Random(50 + d)
    rows = _kernel_rows(d, rng)
    # the reference on Python ints, so that it cannot wrap
    expected = rows.astype(object) @ upset_matrix(d).T.astype(object)
    sums = upset_sums(rows, d)
    assert sums.dtype == np.int64 and sums.shape == expected.shape
    assert sums.tolist() == expected.tolist()
    assert [upset_sums(row, d).tolist() for row in rows] == expected.tolist()  # one row
    if d:  # {0,1}^0 has no nontrivial up-set
        assert upset_maxima(rows, d).tolist() == [max(row) for row in expected.tolist()]
        tied = sum(row.count(max(row)) > 1 and max(row) > 0 for row in expected.tolist())
        assert tied >= (3 if d >= 4 else 0)


@pytest.mark.parametrize("d", [d for d in DEDEKIND if d > 0])
def test_upset_maxima_reach_a_maximizer_in_every_run(d):
    # per run of equal high half A1, one up-set B and the row +1 on B and
    # -2^d off it, whose only maximizing up-set is B, at |B|: a run merged
    # into its neighbour, or a half taken from the wrong table, misses it
    rng = random.Random(70 + d)
    half = 1 << (d - 1)
    ups = nontrivial_upsets(d)
    runs = {}
    for at, b in enumerate(ups):
        runs.setdefault(b >> half, []).append(at)
    chosen = [rng.choice(ats) for ats in runs.values()]
    rows = np.array([[1 if ups[at] >> p & 1 else -(1 << d) for p in range(1 << d)]
                     for at in chosen], dtype=np.int64)
    assert upset_maxima(rows, d).tolist() == [ups[at].bit_count() for at in chosen]
    sums = upset_sums(rows, d)
    assert (sums == rows @ upset_matrix(d).T).all()
    assert sums.argmax(axis=1).tolist() == chosen


def test_upset_members_roundtrip():
    # up-set {11, 01, 10} of the square: membership bitmask has bits 1,2,3
    bitmask = 0b1110
    assert upset_members(bitmask, 2) == (1, 2, 3)


def test_is_up_closed_negative():
    assert not is_up_closed([0], 2)  # 00 alone misses its supersets
    assert is_up_closed([], 2)
    assert is_up_closed([0, 1, 2, 3], 2)


def _zero_sum(rng, d, scale, zeros=0.0):
    """Seeded integer weights in [-scale, scale], each 0 with probability
    ``zeros``, with one point moved so that they sum to 0."""
    weights = [0 if rng.random() < zeros else rng.randint(-scale, scale)
               for _ in range(1 << d)]
    weights[rng.randrange(1 << d)] -= sum(weights)
    return weights


def test_max_weight_upset_matches_brute_force():
    rng = random.Random(13)
    tied = 0
    for trial in range(200):
        d = rng.randint(1, 4)
        weights = _zero_sum(rng, d, 6, zeros=rng.choice((0.0, 0.5)))
        best, chosen = max_weight_upset(weights, d)
        values = {
            bm: sum(weights[p] for p in upset_members(bm, d)) for bm in upset_bitmasks(d)
        }
        brute = max(values.values())  # the empty up-set is among them
        maximizers = [bm for bm, value in values.items() if value == brute]
        assert best == brute
        # the least maximizing up-set: the intersection of all of them
        assert chosen == upset_members(reduce(operator.and_, maximizers), d)
        tied += brute > 0 and len(maximizers) > 1
    assert tied > 20


def test_max_weight_upset_all_negative_picks_empty():
    # +3 at 00 and +1 at 01 are dominated by -1 at 01 and -3 at 11: every
    # up-set through 00 holds 11, so the empty set is the best
    best, chosen = max_weight_upset([3, 0, 0, -3], 2)
    assert (best, chosen) == (0, ())
    assert max_weight_upset({0: 1, 1: -1, 2: 2, 3: -2}, 2) == (0, ())
    with pytest.raises(ValueError, match="sum to 0"):
        max_weight_upset([-1] * 4, 2)
    with pytest.raises(ValueError, match="sum to 0"):
        max_weight_upset([1, 0, 0, -2], 2)


def full_cube_closure(weights, d):
    """Frozen copy of the maximum-weight closure on the whole cube:
    source -> p at a positive weight, p -> sink at a negative one, and an
    arc past every weight from p to each p | e_i.  The residual side of
    the minimal minimum cut is the least maximizing up-set."""
    size = 1 << d
    source, sink = size, size + 1
    total_pos = sum(w for w in (weights[p] for p in range(size)) if w > 0)
    if total_pos == 0:
        return 0, ()
    inf = total_pos + 1
    net = Dinic(size + 2)
    for p in range(size):
        w = weights[p]
        if w > 0:
            net.add_edge(source, p, w)
        elif w < 0:
            net.add_edge(p, sink, -w)
        for above in up_steps(p, range(size), d):
            net.add_edge(p, above, inf)
    flow = net.max_flow(source, sink)
    chosen = tuple(sorted(p for p in net.residual_reachable(source) if p < size))
    return total_pos - flow, chosen


def _cancelling_pairs(rng, d, scale, pairs):
    """Zero-sum weights of +c at p and -c at a point above p: adding them
    to a row adds up-sets of the same value, so its maximum is tied."""
    weights = [0] * (1 << d)
    for _ in range(pairs):
        p = rng.randrange(1 << d)
        c = rng.randint(1, scale)
        weights[p] += c
        weights[p | rng.randrange(1 << d)] -= c
    return weights


@pytest.mark.parametrize("d", range(1, 8))
def test_max_weight_upset_matches_the_full_cube_closure(monkeypatch, d):
    calls = []
    transport = upsets.transport
    monkeypatch.setattr(upsets, "transport", lambda *a: calls.append(a) or transport(*a))
    rng = random.Random(100 + d)
    positive = 0
    for bits in (3, 40, 201, 261):
        scale = 1 << bits
        rows = [[0] * (1 << d)]
        for _ in range(6):
            rows.append(_zero_sum(rng, d, scale))
            rows.append(_zero_sum(rng, d, scale, zeros=0.75))
            rows.append(_cancelling_pairs(rng, d, scale, 1 << d))
            dense = _zero_sum(rng, d, scale)
            pairs = _cancelling_pairs(rng, d, scale, 1 << d)
            rows.append([a + b for a, b in zip(dense, pairs)])
        for weights in rows:
            del calls[:]
            result = max_weight_upset(weights, d)
            assert result == full_cube_closure(weights, d)
            # one transport, none for a row without positive weights
            assert len(calls) == (max(weights) > 0)
            positive += result[0] > 0
    assert positive > 25
