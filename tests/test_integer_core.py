"""Differential tests for the integer core of ExplicitMeasure.

A measure is stored as its least common denominator D and positive
integer weights.  Every derived measure (conditional, marginal, family)
must keep that form canonical, and every query answered on the integers
must equal a brute force over the Fraction masses written here.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_anti_pair,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    family_pos_pair,
    random_lipschitz,
    random_measure,
    sum_function,
    xor_function,
    zoo,
)

BIG_PROBS = [
    Fraction(1, 101), Fraction(50, 103), Fraction(7, 107), Fraction(60, 109),
    Fraction(33, 113), Fraction(20, 127),
]


def _random_measures():
    out = []
    for seed in range(24):
        rng = random.Random(seed)
        n = 1 + seed % 6
        max_weight = (1, 8, 1 << 40)[seed % 3]
        out.append((f"random_{seed}", random_measure(n, rng, max_weight=max_weight)))
    return out


def _large_denominator_products():
    out = [
        ("ind_big", family_independent(BIG_PROBS[:5])),
        ("condsum_big_4", family_conditioned_sum(BIG_PROBS[:4], 1, 2)),
        ("condsum_big_6", family_conditioned_sum(BIG_PROBS, 2, 4)),
    ]
    base = family_independent(BIG_PROBS)
    out.append(("ind_big_given_x2", base.condition(Assignment((2,), (1,)))))
    return out


def _view_dtype_extremes():
    """A measure whose denominator exceeds 2^63, so its dense view holds
    Python ints, and a sparse one at the width cap."""
    rng = random.Random(64)
    huge = {x: rng.randint(1, 1 << 70) for x in range(1 << 7) if rng.random() < 0.5}
    sparse = {rng.randrange(1 << 20): rng.randint(1, 9) for _ in range(48)}
    return [
        ("huge_denominator_7", ExplicitMeasure._from_weights(7, huge)),
        ("sparse_20", ExplicitMeasure._from_weights(20, sparse)),
    ]


MEASURES = (
    list(zoo().items()) + _random_measures() + _large_denominator_products()
    + _view_dtype_extremes()
)


def masses(m: ExplicitMeasure) -> dict[int, Fraction]:
    return dict(m.items())


def assert_canonical(m: ExplicitMeasure) -> None:
    d, w = m.scaled_weights()
    assert w and all(isinstance(v, int) and v > 0 for v in w.values())
    assert all(0 <= k < 1 << m.n for k in w)
    assert sum(w.values()) == d
    assert gcd(d, *w.values()) == 1


def brute_condition(mass, n, on: Assignment):
    keep = [pos for pos in range(n) if pos + 1 not in on.indices]
    picked = {}
    for x, p in mass.items():
        if all(x >> (i - 1) & 1 == v for i, v in zip(on.indices, on.values)):
            y = sum(1 << j for j, pos in enumerate(keep) if x >> pos & 1)
            picked[y] = picked.get(y, Fraction(0)) + p
    total = sum(picked.values(), Fraction(0))
    return total, {y: p / total for y, p in picked.items()} if total else {}


def brute_marginal(mass, subset):
    out = {}
    for x, p in mass.items():
        y = sum(1 << j for j, i in enumerate(subset) if x >> (i - 1) & 1)
        out[y] = out.get(y, Fraction(0)) + p
    return out


def assignments(n: int, rng: random.Random):
    """Every assignment for n <= 4; otherwise every one on at most two
    indices (one above n = 8, where each query splits 2^n weights) plus a
    few seeded larger ones."""
    sizes = range(n + 1) if n <= 4 else range(3) if n <= 8 else range(2)
    for size in sizes:
        for indices in itertools.combinations(range(1, n + 1), size):
            for values in itertools.product((0, 1), repeat=size):
                yield Assignment(indices, values)
    if n > 4:
        for _ in range(6):
            indices = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(3, n - 1))))
            yield Assignment(indices, tuple(rng.randint(0, 1) for _ in indices))


@pytest.mark.parametrize("name,m", MEASURES, ids=[name for name, _ in MEASURES])
def test_queries_match_fraction_brute_force(name, m):
    assert_canonical(m)
    mass = masses(m)
    assert sum(mass.values()) == 1
    rng = random.Random(name)
    for on in assignments(m.n, rng):
        total, expected = brute_condition(mass, m.n, on)
        # the same event with its indices listed in descending order
        backwards = Assignment(on.indices[::-1], on.values[::-1])
        assert m.prob_of_assignment(on) == m.prob_of_assignment(backwards) == total
        if total == 0 or len(on.indices) == m.n:
            continue
        cond = m.condition(on)
        assert cond.n == m.n - len(on.indices)
        assert masses(cond) == expected
        assert_canonical(cond)
        assert m.condition(backwards) == cond
    for size in (1, 2, m.n - 1, m.n):
        if size < 1:
            continue
        for subset in itertools.islice(
            itertools.combinations(range(1, m.n + 1), size), 12
        ):
            marg = m.marginal(subset)
            assert masses(marg) == brute_marginal(mass, subset)
            assert_canonical(marg)
    means = [
        sum((p for x, p in mass.items() if x >> pos & 1), Fraction(0))
        for pos in range(m.n)
    ]
    assert m.mean_vector() == means
    if m.n > 8:  # the function oracles below build 2^n values each
        return
    functions = [sum_function(m.n), xor_function(m.n)]
    functions += [random_lipschitz(m.n, random.Random(s), monotone=s % 2 == 1) for s in range(3)]
    for f in functions:
        assert m.expectation(f) == sum(
            (p * f.values[x] for x, p in mass.items()), Fraction(0)
        )


def test_dense_view_is_read_only_in_the_exact_dtype():
    for name, m in _view_dtype_extremes() + _large_denominator_products():
        dense = m.dense()
        assert dense is m.dense()
        assert not dense.flags.writeable
        assert dense.shape == (1 << m.n,)
        d, w = m.scaled_weights()
        assert dense.dtype == (object if d > (1 << 63) - 1 else np.int64), name
        assert {x: int(dense[x]) for x in np.flatnonzero(dense).tolist()} == w


def test_large_denominator_products_exceed_two_to_the_twenty():
    for _, m in _large_denominator_products():
        assert m.scaled_weights()[0] > 1 << 20


def _product_oracle(probs):
    n = len(probs)
    out = {}
    for bits in itertools.product((0, 1), repeat=n):
        p = Fraction(1)
        for b, q in zip(bits, probs):
            p *= q if b else 1 - q
        if p:
            out[sum(b << pos for pos, b in enumerate(bits))] = p
    return out


@pytest.mark.parametrize(
    "probs",
    [
        [Fraction(1, 2)] * 4,
        [Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)],
        [Fraction(0), Fraction(1), Fraction(2, 5)],
        [Fraction(1)] * 3,
        BIG_PROBS[:5],
    ],
)
def test_product_families_match_fraction_oracle(probs):
    expected = _product_oracle(probs)
    m = family_independent(probs)
    assert_canonical(m)
    assert masses(m) == expected
    n = len(probs)
    for lo, hi in [(0, n), (1, 1), (1, n - 1)]:
        kept = {x: p for x, p in expected.items() if lo <= x.bit_count() <= hi}
        total = sum(kept.values(), Fraction(0))
        if not total:
            continue
        c = family_conditioned_sum(probs, lo, hi)
        assert_canonical(c)
        assert masses(c) == {x: p / total for x, p in kept.items()}


@pytest.mark.parametrize(
    "m",
    [family_nand(n) for n in range(2, 9)]
    + [family_balls_bins(b, k) for b, k in [(1, 1), (2, 2), (3, 2), (2, 3)]]
    + [family_hadamard(order) for order in (2, 4, 8)]
    + [family_anti_pair(), family_pos_pair()],
    ids=repr,
)
def test_families_are_canonical_and_agree_with_the_public_constructor(m):
    assert_canonical(m)
    rebuilt = ExplicitMeasure(m.n, masses(m))
    assert rebuilt == m
    assert rebuilt.scaled_weights() == m.scaled_weights()


def test_public_constructor_stores_least_common_denominator():
    m = ExplicitMeasure(2, {0: Fraction(2, 6), 3: Fraction(1, 6), 1: Fraction(1, 2)})
    assert m.scaled_weights() == (6, {0: 2, 3: 1, 1: 3})
    assert_canonical(m)


def test_internal_constructor_divides_out_the_gcd():
    m = ExplicitMeasure._from_weights(2, {0: 6, 3: 4, 2: 2})
    assert m.scaled_weights() == (6, {0: 3, 3: 2, 2: 1})
    assert m == ExplicitMeasure(2, {0: Fraction(1, 2), 3: Fraction(1, 3), 2: Fraction(1, 6)})
