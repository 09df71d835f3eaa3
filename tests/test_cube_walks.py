"""The cube walks against frozen copies of their earlier implementations.

`check_cylinder` sweeps the superset sums and the products of singles on
arrays; the oracle below is the earlier design, frozen: two zeta
transforms and a lowest-bit product DP in plain Python lists, then a
scan of every S in mask order that keeps the smallest index tuple,
"ones" before "zeros".  Both must return the same report, `work` and
its key order included, on the catalog, on seeded measures (many
failing on one side only, some on both), on sparse measures with
n = 12..14 and on inputs whose bound D^n exceeds 2^63, where the arrays
hold Python integers.

`up_closure` is the complement of a down-closure; the oracle is the
breadth-first walk up the Hasse diagram it replaced.  `upset_matrix` is
one shift of the up-set bitmasks; the oracle sets one entry per member.
"""

import json
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from negdep.bitops import _exact_dtype, indices_of
from negdep.coupling import up_closure, up_steps
from negdep.dependence import (
    Notion,
    NotionReport,
    Verdict,
    check_cylinder,
)
from negdep.measure import ExplicitMeasure, family_conditioned_sum, format_rational
from negdep.upsets import nontrivial_upsets, upset_matrix
from negdep.zoo import random_measure, zoo


def loop_cylinder(m):
    """Frozen copy of the list-based cylinder check."""
    n = m.n
    d, w = m.scaled_weights()
    size = 1 << n
    ones = [0] * size
    zeros = [0] * size
    for key, weight in w.items():
        ones[key] += weight
        zeros[key] += weight
    for pos in range(n):
        bit = 1 << pos
        for s in range(size):
            if s & bit:
                ones[s ^ bit] += ones[s]
            else:
                zeros[s | bit] += zeros[s]
    singles1 = [ones[1 << pos] for pos in range(n)]
    singles0 = [d - s1 for s1 in singles1]
    prod1 = [1] * size
    prod0 = [1] * size
    for s in range(1, size):
        low = s & -s
        pos = low.bit_length() - 1
        prod1[s] = prod1[s ^ low] * singles1[pos]
        prod0[s] = prod0[s ^ low] * singles0[pos]
    best = None
    checked = 0
    full = size - 1
    for s in range(1, size):
        k = s.bit_count()
        if k < 2:
            continue
        checked += 2
        scale = d ** (k - 1)
        if ones[s] * scale > prod1[s]:
            key = indices_of(s)
            if best is None or key < best[0]:
                best = (key, "ones", ones[s], prod1[s], k)
        if zeros[full ^ s] * scale > prod0[s]:
            key = indices_of(s)
            if best is None or (key, 1) < (best[0], 0 if best[1] == "ones" else 1):
                best = (key, "zeros", zeros[full ^ s], prod0[s], k)
    work = {"sets_checked": checked}
    if best is None:
        return NotionReport(Notion.CYLINDER, Verdict.HOLDS, None, work)
    key, side, lhs_w, prod, k = best
    cert = {
        "S": list(key),
        "side": side,
        "lhs": format_rational(Fraction(lhs_w, d)),
        "rhs": format_rational(Fraction(prod, d**k)),
    }
    return NotionReport(Notion.CYLINDER, Verdict.FAILS, cert, work)


def _seeded():
    rng = random.Random(20261019)
    return [random_measure(n, rng) for n in range(1, 9) for _ in range(25)]


def _sparse():
    rng = random.Random(1214)
    out = []
    for n in (12, 13, 14):
        for _ in range(2):
            keys = rng.sample(range(1 << n), 24)
            out.append(ExplicitMeasure._from_weights(n, {k: rng.randint(1, 9) for k in keys}))
    # all mass on two antipodal points: every pair of coordinates fails
    out.append(ExplicitMeasure._from_weights(12, {0: 1, (1 << 12) - 1: 1}))
    return out


OBJECT_PATH = [
    # D is a product of five primes near 10^6, so D^n is far above 2^63
    family_conditioned_sum(
        [Fraction(1, p) for p in (1000003, 1000033, 1000037, 1000039, 1000081)], 1, 3
    ),
    # D near 3 * 10^6, so D^4 is above 2^63 while D is not
    ExplicitMeasure._from_weights(4, {0b0000: 1000003, 0b1111: 1000033, 0b0101: 1000037}),
    # D itself above 2^64
    ExplicitMeasure._from_weights(4, {0b0000: 2**64 + 1, 0b0111: 2**64 + 13, 0b1000: 3}),
]


def _same(m):
    got, want = check_cylinder(m).to_json(), loop_cylinder(m).to_json()
    assert json.dumps(got) == json.dumps(want)
    return want


def test_catalog_reports_equal_the_loop():
    for m in zoo().values():
        _same(m)


def test_seeded_reports_equal_the_loop_on_both_sides_and_both_dtypes():
    reports, dtypes = [], set()
    for m in _seeded():
        reports.append(_same(m))
        dtypes.add(_exact_dtype(m.scaled_weights()[0] ** m.n))
    sides = [r["certificate"]["side"] for r in reports if r["certificate"]]
    assert len(reports) >= 200 and dtypes == {np.int64, object}
    assert "ones" in sides and "zeros" in sides
    assert any(r["verdict"] == "Holds" for r in reports)


def test_ties_between_the_sides_go_to_ones():
    # x1 = x2 with probability 1: both sides of S = {1, 2} fail
    m = ExplicitMeasure._from_weights(2, {0b00: 1, 0b11: 1})
    report = _same(m)
    assert report["certificate"]["S"] == [1, 2]
    assert report["certificate"]["side"] == "ones"


def test_object_path_above_the_int64_bound_equals_the_loop():
    verdicts = set()
    for m in OBJECT_PATH:
        assert _exact_dtype(m.scaled_weights()[0] ** m.n) is object
        verdicts.add(_same(m)["verdict"])
    assert verdicts == {"Holds", "Fails"}


def test_sparse_reports_equal_the_loop():
    for m in _sparse():
        _same(m)


def test_one_coordinate_holds_with_no_set_checked():
    for seed in range(3):
        report = _same(random_measure(1, random.Random(seed)))
        assert report["verdict"] == "Holds" and report["work"] == {"sets_checked": 0}


def bfs_up_closure(seeds, n):
    """Frozen copy of the breadth-first up-closure."""
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        for y in up_steps(queue.popleft(), range(1 << n), n):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


@pytest.mark.parametrize("n", range(11))
def test_up_closure_equals_the_bfs(n):
    rng = random.Random(n)
    cases = [[], [0], [(1 << n) - 1]]
    cases += [rng.sample(range(1 << n), min(k, 1 << n)) for k in (1, 2, 3, 5, 8)]
    for seeds in cases:
        assert up_closure(seeds, n) == bfs_up_closure(seeds, n)


@pytest.mark.parametrize("d", range(6))
def test_upset_matrix_equals_the_per_bit_build(d):
    ups = nontrivial_upsets(d)
    want = np.zeros((len(ups), 1 << d), dtype=np.int64)
    for row, a in enumerate(ups):
        for p in range(1 << d):
            if a >> p & 1:
                want[row, p] = 1
    got = upset_matrix(d)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
