"""The covering-pair scan of negative regression and stochastic covering
against a frozen per-atom oracle.

`_first_failing_cover` splits the weights of each conditioning set J into
one dense matrix, divides each row by its gcd and marks equal laws for all
covering pairs at once; it builds law tuples only for unequal pairs.  The
oracle below is the earlier design, frozen: it buckets the atoms one by one
in Python (`_buckets_for`) and walks every covering pair.  Both must return
the same failure (J, a, b and the two laws), the same minimal cut of the
failed transport and the same `work` counters, including on an early exit,
and on measures whose common denominator exceeds 2^63, where the split
holds Python integers.
"""

import math
import random
from fractions import Fraction

import pytest

from negdep.bitops import subsets_lex
from negdep.coupling import transport
from negdep.dependence import _first_failing_cover
from negdep.measure import ExplicitMeasure, family_conditioned_sum, family_nand
from negdep.zoo import random_measure, zoo


def _pack(key, mask):
    """The bits of key on mask, packed in ascending position order."""
    packed = out = 0
    for pos in range(mask.bit_length()):
        if mask >> pos & 1:
            packed |= (key >> pos & 1) << out
            out += 1
    return packed


def _buckets_for(m, cond_mask):
    """Split the integer-weighted atoms by their assignment on cond_mask.

    Returns {a: (law, total)} over the positive assignments a: law is the
    sorted tuple of (packed free-coordinate pattern, weight // g), g the
    gcd of the bucket's weights, and total its weight sum.  Two
    assignments have the same conditional law iff their entries are equal.
    """
    free_mask = ((1 << m.n) - 1) ^ cond_mask
    buckets = {}
    # in key order, the free patterns of each bucket come out sorted
    for key, weight in sorted(m.scaled_weights()[1].items()):
        buckets.setdefault(_pack(key, cond_mask), []).append((_pack(key, free_mask), weight))
    laws = {}
    for a, bucket in buckets.items():
        g = math.gcd(*(weight for _, weight in bucket))
        if g > 1:
            bucket = [(rest, weight // g) for rest, weight in bucket]
        laws[a] = (tuple(bucket), sum(weight for _, weight in bucket))
    return laws


def oracle_first_failing_cover(m, covering):
    """The scan over per-atom buckets, pair by pair, as it was frozen."""
    n = m.n
    work = dict.fromkeys((
        "conditioning_sets", "pairs_checked", "flows_run", "equal_laws_skipped",
        "repeated_laws_skipped",
    ), 0)
    feasible = set()
    for cond_mask in subsets_lex(n):
        width = cond_mask.bit_count()
        if width == n:
            continue
        work["conditioning_sets"] += 1
        laws = _buckets_for(m, cond_mask)
        for a in sorted(laws):
            for pos in range(width):
                b = a | (1 << pos)
                if b == a or b not in laws:
                    continue
                work["pairs_checked"] += 1
                lower, upper = laws[b], laws[a]
                if lower == upper:
                    work["equal_laws_skipped"] += 1
                elif (lower, upper) in feasible:
                    work["repeated_laws_skipped"] += 1
                else:
                    work["flows_run"] += 1
                    res = transport(*lower, *upper, covering=covering)
                    if not res.feasible:
                        return (cond_mask, a, b, lower, upper, res), work
                    feasible.add((lower, upper))
    return None, work


def _assert_same_scan(m):
    """Both notions agree with the oracle; returns how many of them failed
    past the first pair of the scan."""
    deep = 0
    for covering in (False, True):
        failure, work = _first_failing_cover(m, covering)
        expected, expected_work = oracle_first_failing_cover(m, covering)
        assert work == expected_work
        assert list(work) == list(expected_work)
        assert all(type(count) is int for count in work.values())
        if expected is None:
            assert failure is None
            continue
        assert failure[:5] == expected[:5]
        assert failure[5].left_cut == expected[5].left_cut
        assert not failure[5].feasible
        deep += work["pairs_checked"] > 1
    return deep


@pytest.mark.parametrize("name", sorted(zoo()))
def test_catalog(name):
    m = zoo()[name]
    assert m.n <= 10
    _assert_same_scan(m)


@pytest.mark.parametrize("n", range(3, 11))
def test_nand(n):
    _assert_same_scan(family_nand(n))


def _perturbed_sum(n, rng):
    """A conditioned sum with one atom's weight nudged: it often fails both
    notions deep in the scan, after equal and repeated pairs."""
    probs = [Fraction(rng.randint(1, 6), 7) for _ in range(n)]
    lo = rng.randint(0, n - 1)
    base = family_conditioned_sum(probs, lo, rng.randint(lo, n))
    weights = {key: 8 * weight for key, weight in base.scaled_weights()[1].items()}
    weights[rng.choice(sorted(weights))] += rng.choice((-1, 1)) * rng.randint(1, 4)
    return ExplicitMeasure._from_weights(n, weights)


def test_seeded_measures_including_early_exits():
    rng = random.Random(20261018)
    failures = deep = 0
    for trial in range(300):
        n = trial % 6 + 1
        if trial % 4 == 0:
            m = random_measure(n, rng)
        elif trial % 4 == 1:
            # sparse support: many unequal and unchained laws
            weights = {k: rng.randint(1, 5) for k in range(1 << n) if rng.random() < 0.4}
            m = ExplicitMeasure._from_weights(n, weights or {0: 1})
        else:
            m = _perturbed_sum(max(n, 2), rng)
        deep += _assert_same_scan(m)
        failures += _first_failing_cover(m, False)[0] is not None
    assert failures > 100 and deep > 40


def test_denominators_beyond_int64():
    rng = random.Random(63)
    primes = [8191, 8209, 8219, 8221, 8231, 8233, 8237]
    measures = [
        family_conditioned_sum([Fraction(rng.randint(1, p - 1), p) for p in primes[:n]], 1, n - 1)
        for n in (5, 6, 7)
    ]
    measures += [random_measure(n, rng, 1 << 70) for n in (2, 3, 4, 5, 6) for _ in range(4)]
    for m in measures:
        assert m.scaled_weights()[0] >> 63
        _assert_same_scan(m)
