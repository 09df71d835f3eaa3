import random
from fractions import Fraction

import pytest

from negdep.errors import TooLarge
from negdep.upsets import (
    ENUMERABLE_DIM,
    is_up_closed,
    max_weight_upset,
    nontrivial_upsets,
    upset_bitmasks,
    upset_members,
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


def test_nontrivial_excludes_empty_and_full(d=3):
    full = (1 << (1 << d)) - 1
    masks = nontrivial_upsets(d)
    assert 0 not in masks
    assert full not in masks
    assert len(masks) == DEDEKIND[d] - 2


def test_upset_members_roundtrip():
    # up-set {11, 01, 10} of the square: membership bitmask has bits 1,2,3
    bitmask = 0b1110
    assert upset_members(bitmask, 2) == (1, 2, 3)


def test_is_up_closed_negative():
    assert not is_up_closed([0], 2)  # 00 alone misses its supersets
    assert is_up_closed([], 2)
    assert is_up_closed([0, 1, 2, 3], 2)


def test_max_weight_upset_matches_brute_force():
    rng = random.Random(13)
    for trial in range(200):
        d = rng.randint(1, 3)
        weights = {
            point: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            for point in range(1 << d)
        }
        best, chosen = max_weight_upset(weights, d)
        brute = max(
            sum((weights[p] for p in upset_members(bm, d)), Fraction(0))
            for bm in upset_bitmasks(d)
        )
        assert best == max(brute, 0)
        assert is_up_closed(chosen, d)
        assert sum((weights[p] for p in chosen), Fraction(0)) == best


def test_max_weight_upset_all_negative_picks_empty():
    weights = {p: Fraction(-1) for p in range(4)}
    best, chosen = max_weight_upset(weights, 2)
    assert best == 0
    assert chosen == ()
