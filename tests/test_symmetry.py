"""Symmetry classes, and the orbit skip of NR, SC and CNA, against oracles.

`ExplicitMeasure.symmetry_classes` finds the coordinates whose pairwise
swaps leave the measure unchanged by swapping axes of its dense view.
`oracle_classes` below decides the same from the atom dict alone: a swap
(i j) preserves the measure iff every atom x has the weight of x with
bits i and j exchanged.  It also asserts that these swaps form an
equivalence relation, which is what lets a class count stand for an orbit.

NR and SC skip each conditioning set J, and CNA each conditioning
(K, values), with the same counts in every class as one visited before.
The oracles of `test_cover_scan`, `test_regression_memo` and
`test_association_memo` take the classes and skip the same way; given
singleton classes they skip nothing and scan as before the skip.  Here
the checkers' verdicts and certificates must equal those unreduced scans.
"""

import random
from fractions import Fraction

import pytest

from negdep.dependence import (
    Verdict,
    check_cna,
    check_neg_regression,
    check_stochastic_covering,
)
from negdep.measure import (
    ExplicitMeasure,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    zoo,
)


def class_counts(mask, classes):
    """The count of mask's coordinates in each class."""
    return tuple((mask & c).bit_count() for c in classes)


def _swapped(x, i, j):
    """x with the bits at positions i and j exchanged."""
    return x ^ (1 << i | 1 << j) if (x >> i ^ x >> j) & 1 else x


def oracle_classes(m):
    """The classes of the swaps that leave every atom's weight unchanged,
    as masks ordered by their lowest coordinate."""
    n = m.n
    _, weights = m.scaled_weights()
    swaps = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if all(weights.get(_swapped(x, i, j), 0) == w for x, w in weights.items())
    }
    classes = []
    for i in range(n):
        mask = sum(1 << j for j in range(n) if (i, j) in swaps)
        if mask not in classes:
            classes.append(mask)
    # an equivalence relation: the classes partition the coordinates
    assert sum(c.bit_count() for c in classes) == n
    return tuple(classes)


def singletons(n):
    return tuple(1 << i for i in range(n))


def _planted(rng):
    """A measure whose weight depends only on the counts of its point in
    some random classes, so their swaps preserve it, and those classes;
    in a quarter of the draws one atom is nudged, which may break some of
    those symmetries, and no classes are returned."""
    n = rng.randint(2, 7)
    labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    planted = [sum(1 << i for i in range(n) if labels[i] == k) for k in set(labels)]
    table = {}
    weights = {}
    for x in range(1 << n):
        key = class_counts(x, planted)
        if key not in table:
            table[key] = rng.choice((0, 1, 1, 2, 3, 5))
        if table[key]:
            weights[x] = 4 * table[key]
    if rng.random() < 0.25:
        x = rng.choice(sorted(weights) or [0])
        weights[x] = weights.get(x, 0) + 1
        planted = []
    return ExplicitMeasure._from_weights(n, weights or {0: 1}), planted


PLANTED = [_planted(rng) for rng in [random.Random(20261019)] for _ in range(200)]


def _conditioned_sums():
    rng = random.Random(18)
    out = {}
    for k in range(18):
        n = rng.randint(3, 7)
        # few distinct probabilities, so that several classes appear
        probs = [Fraction(rng.choice((1, 2, 3)), 4) for _ in range(n)]
        lo = rng.randint(0, n - 1)
        out[f"condsum{k}"] = family_conditioned_sum(probs, lo, rng.randint(lo, n))
    return out


# D = 8191^2 * 8209^2 * 8219 > 2^63: the dense view holds Python ints
BIG_PRODUCT = family_independent(
    [Fraction(1, 8191), Fraction(2, 8209), Fraction(1, 8191), Fraction(2, 8209),
     Fraction(3, 8219)]
)

INPUTS = {
    **zoo(),
    **{f"nand{n}": family_nand(n) for n in range(2, 11)},
    **_conditioned_sums(),
    **{f"planted{k}": m for k, (m, _) in enumerate(PLANTED)},
    "big_product": BIG_PRODUCT,
}


def _fresh(m):
    """A copy of m with nothing cached."""
    return ExplicitMeasure._from_weights(m.n, dict(m.scaled_weights()[1]))


def test_classes_of_the_named_families():
    for n in range(3, 11):
        assert family_nand(n).symmetry_classes() == (1, (1 << n) - 2)
    for name, m in zoo().items():
        if name.startswith("condsum"):
            assert m.symmetry_classes() == ((1 << m.n) - 1,)
    assert family_balls_bins(3, 2).symmetry_classes() == (0b11, 0b1100, 0b110000)
    assert family_hadamard(8).symmetry_classes() == singletons(7)
    assert BIG_PRODUCT.dense().dtype == object
    assert BIG_PRODUCT.symmetry_classes() == (0b101, 0b1010, 0b10000)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_classes_match_the_oracle(name):
    m = _fresh(INPUTS[name])
    assert m.symmetry_classes() == oracle_classes(m)
    assert m.symmetry_classes() is m.symmetry_classes()


def test_planted_classes_lie_within_found_ones():
    nontrivial = 0
    for m, planted in PLANTED:
        classes = m.symmetry_classes()
        assert all(any(p & ~c == 0 for c in classes) for p in planted)
        nontrivial += len(classes) < m.n
    assert nontrivial > 100


def _unreduced(m):
    """(verdict, certificate) of NR, SC and CNA from the oracles, with
    singleton classes; those modules import this one's class oracle, so
    they are imported here."""
    from test_association_memo import oracle_cna
    from test_regression_memo import oracle_nr, oracle_sc

    cert, _ = oracle_cna(m, singletons(m.n))
    cna = Verdict.HOLDS if cert is None else Verdict.FAILS, cert
    return [oracle_nr(m, singletons(m.n))[:2], oracle_sc(m, singletons(m.n))[:2], cna]


# the unreduced oracles walk every pair with one transport each; nand9 and
# nand10, above the CNA cap, are left to the reduced oracle of test_cover_scan
DIFFERENTIAL = sorted(name for name, m in INPUTS.items() if m.n <= 8)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_reports_equal_the_unreduced_scans(name):
    m = INPUTS[name]
    checkers = [check_neg_regression, check_stochastic_covering, check_cna]
    for checker, (verdict, cert) in zip(checkers, _unreduced(m)):
        rep = checker(m)
        assert (rep.verdict, rep.certificate) == (verdict, cert)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_a_holding_scan_visits_or_skips_every_proper_set(name):
    m = INPUTS[name]
    for checker in (check_neg_regression, check_stochastic_covering):
        rep = checker(m)
        if rep.verdict is Verdict.HOLDS:
            work = rep.work_stats
            assert work["conditioning_sets"] + work["symmetric_skipped"] == (1 << m.n) - 2


def test_inputs_skip_and_fail():
    reports = [check_neg_regression(m) for m in INPUTS.values()]
    assert {r.verdict for r in reports} == {Verdict.HOLDS, Verdict.FAILS}
    assert sum(r.work_stats["symmetric_skipped"] > 0 for r in reports) > 40
    assert check_neg_regression(family_nand(10)).work_stats["conditioning_sets"] == 18
    assert check_cna(zoo()["condsum_8_3_5"]).work_stats["conditionings_checked"] == 26


def test_an_early_failure_builds_no_classes():
    early = 0
    for m in INPUTS.values():
        for checker in (check_neg_regression, check_stochastic_covering):
            fresh = _fresh(m)
            rep = checker(fresh)
            if rep.verdict is Verdict.FAILS and rep.work_stats["conditioning_sets"] == 1:
                assert rep.certificate.get("J", rep.certificate.get("I")) == [1]
                assert fresh._classes is None
                early += 1
            elif m.n > 1:
                assert fresh._classes is not None
    assert early > 20
    pos_pair = _fresh(zoo()["pos_pair"])
    assert check_cna(pos_pair).certificate["K"] == []
    assert pos_pair._classes is None
