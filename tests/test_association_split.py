"""Negative association and CNA against a frozen per-atom joint matrix.

`_na_violation` takes the joint weight matrix of each bipartition from
one dense split of the measure's weights.  The oracle below is the
earlier design, frozen: it fills each joint matrix atom by atom in
Python, packing the bits of both sides with a bit loop.  Running
`check_neg_association` and `check_cna` once as they are and once with
the oracle in place of `_na_violation` must give the same verdict, the
same certificate and the same `work` counters, memo counters included,
on the catalog, on seeded measures (many failing deep in the scan), and
on random measures whose common denominator exceeds 2^20 (int64 arrays)
and on conditioned sums whose denominator exceeds isqrt(2^63 - 1) (where
the arrays hold Python integers) and 2^63.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import negdep.dependence as dependence
from negdep.dependence import Verdict, check_cna, check_neg_association
from negdep.measure import ExplicitMeasure, family_conditioned_sum
from negdep.upsets import (
    ENUMERABLE_DIM,
    max_weight_upset,
    nontrivial_upsets,
    upset_matrix,
)
from negdep.zoo import random_measure, zoo

INT64_MAX = (1 << 63) - 1


def _pack(key, mask):
    """The bits of key on mask, packed in ascending position order."""
    packed = out = 0
    for pos in range(mask.bit_length()):
        if mask >> pos & 1:
            packed |= (key >> pos & 1) << out
            out += 1
    return packed


def oracle_na_violation(m, held):
    """`_na_violation` with each joint matrix filled atom by atom, as it
    was frozen."""
    n = m.n
    d, w = m.scaled_weights()
    full = (1 << n) - 1
    work = {"bipartitions": 0, "upsets_tested": 0, "closures": 0,
            "repeated_joints_skipped": 0}
    dtype = np.int64 if d * d <= INT64_MAX else object
    for imask in range(1, full):
        if not imask & 1:
            continue
        jmask = full ^ imask
        di, dj = imask.bit_count(), jmask.bit_count()
        if di <= dj:
            small_mask, large_mask, ds, dl = imask, jmask, di, dj
        else:
            small_mask, large_mask, ds, dl = jmask, imask, dj, di
        work["bipartitions"] += 1
        joint = np.zeros((1 << ds, 1 << dl), dtype=dtype)
        for key, weight in w.items():
            joint[_pack(key, small_mask), _pack(key, large_mask)] += weight
        held_key = (ds, dl, joint.tobytes() if dtype is np.int64 else tuple(joint.flat))
        if held_key in held:
            work["repeated_joints_skipped"] += 1
            continue
        ws = joint.sum(axis=1)
        wl = joint.sum(axis=0)
        u_small = upset_matrix(ds)
        joint_a = u_small @ joint
        wa = u_small @ ws
        weights = d * joint_a - wa[:, None] * wl[None, :]
        work["upsets_tested"] += len(u_small)
        found = None
        if (
            dtype is np.int64
            and dl <= ENUMERABLE_DIM
            and len(u_small) * len(nontrivial_upsets(dl)) <= 1 << 22
        ):
            covs = weights @ upset_matrix(dl).T
            hits = np.argwhere(covs > 0)
            if hits.size:
                row = int(hits[0, 0])
                col = int(np.argmax(covs[row]))
                found = row, nontrivial_upsets(dl)[col], int(covs[row, col])
        else:
            for row, row_weights in enumerate(weights):
                work["closures"] += 1
                best, chosen = max_weight_upset(list(map(int, row_weights)), dl)
                if best > 0:
                    found = row, sum(1 << p for p in chosen), best
                    break
        if found is not None:
            row, b_mask, cov = found
            a_mask = nontrivial_upsets(ds)[row]
            cov = Fraction(cov, d * d)
            return dependence._na_certificate(
                n, small_mask, large_mask, a_mask, b_mask, cov
            ), work
        held.add(held_key)
    return None, work


def _reports(m):
    return [check_neg_association(m).to_json(), check_cna(m).to_json()]


def _assert_same(m, monkeypatch):
    """Both notions agree with the oracle; returns their verdicts."""
    got = _reports(m)
    with monkeypatch.context() as patch:
        patch.setattr(dependence, "_na_violation", oracle_na_violation)
        expected = _reports(m)
    assert got == expected
    assert [list(doc["work"]) for doc in got] == [list(doc["work"]) for doc in expected]
    assert all(type(c) is int for doc in got for c in doc["work"].values())
    return [doc["verdict"] for doc in got]


@pytest.mark.parametrize("name", sorted(zoo()))
def test_catalog(name, monkeypatch):
    m = zoo()[name]
    assert m.n <= 8
    _assert_same(m, monkeypatch)


def _perturbed_sum(n, rng):
    """A conditioned sum with one atom's weight nudged: CNA often fails
    it on a late conditional, after repeated laws and joints."""
    probs = [Fraction(rng.randint(1, 6), 7) for _ in range(n)]
    base = family_conditioned_sum(probs, 1, rng.randint(2, n - 1))
    weights = {key: 8 * weight for key, weight in base.scaled_weights()[1].items()}
    weights[rng.choice(sorted(weights))] += rng.choice((-1, 1)) * rng.randint(1, 4)
    return ExplicitMeasure._from_weights(n, weights)


def test_seeded_measures(monkeypatch):
    rng = random.Random(20261019)
    verdicts = []
    for trial in range(240):
        n = trial % 6 + 1
        if trial % 3 == 0:
            m = random_measure(n, rng, max_weight=rng.choice([1, 2, 8]))
        elif trial % 3 == 1:
            weights = {k: rng.randint(1, 5) for k in range(1 << n) if rng.random() < 0.4}
            m = ExplicitMeasure._from_weights(n, weights or {0: 1})
        else:
            m = _perturbed_sum(max(n, 3), rng)
        verdicts.append(_assert_same(m, monkeypatch))
    assert {Verdict.HOLDS.value, Verdict.FAILS.value} <= {na for na, _ in verdicts}
    # CNA failing where NA holds: the failure is on a proper conditional
    assert sum(a == "Holds" and c == "Fails" for a, c in verdicts) > 20


@pytest.mark.parametrize("bits, sizes", [(20, (3, 4)), (63, (5, 6))])
def test_large_denominators(bits, sizes, monkeypatch):
    rng = random.Random(bits)
    primes = [8191, 8209, 8219, 8221, 8231, 8233]
    measures = [
        family_conditioned_sum([Fraction(rng.randint(1, p - 1), p) for p in primes[:n]], 1, n - 1)
        for n in sizes
    ]
    measures += [random_measure(n, rng, 1 << bits + 1) for n in (2, 3, 4, 5) for _ in range(3)]
    for m in measures:
        assert m.scaled_weights()[0] > 1 << bits
        _assert_same(m, monkeypatch)
