"""The pick rule on conditionals against a frozen atom-filter oracle.

`pick_index` and `verify_pick_lemma` read the conditional law
`m.condition(revealed)` and map the picked index back to its original
label.  The oracle below is the earlier path, kept here unchanged: it
filters the measure's atoms by the revealed assignment over the full
mask and runs the rule on the surviving atoms at their original labels.
Picks, lemma reports and the error raised must agree on every revealed
assignment of the small catalog measures and of one measure whose
common denominator exceeds 2^63.
"""

import itertools
import random
from fractions import Fraction

import pytest

from negdep.bitops import mask_of_indices
from negdep.errors import (
    DimensionMismatch,
    LemmaViolated,
    NoEligibleIndex,
    ZeroProbabilityEvent,
)
from negdep.martingale import (
    PickLemmaEntry,
    PickLemmaReport,
    PickResult,
    pick_index,
    verify_pick_lemma,
)
from negdep.measure import Assignment, ExplicitMeasure, family_nand, zoo

# -- the frozen oracle ---------------------------------------------------------


def _conditional_atoms(m, revealed):
    if revealed.index_mask >> m.n:
        raise DimensionMismatch("assignment index out of range")
    _, w = m.scaled_weights()
    value_mask = mask_of_indices(i for i, v in zip(revealed.indices, revealed.values) if v)
    atoms = [(k, v) for k, v in sorted(w.items()) if k & revealed.index_mask == value_mask]
    total = sum(v for _, v in atoms)
    if total == 0:
        raise ZeroProbabilityEvent("conditioning event has probability 0")
    return atoms, total


def _influence_terms(atoms, bit, others_mask):
    w1 = s1 = s0 = 0
    total = 0
    for mask, weight in atoms:
        total += weight
        ones = (mask & others_mask).bit_count() * weight
        if mask & bit:
            w1 += weight
            s1 += ones
        else:
            s0 += ones
    return w1, total - w1, s1, s0


def _unrevealed(n, revealed_mask):
    unrevealed = [i for i in range(1, n + 1) if not revealed_mask >> (i - 1) & 1]
    if not unrevealed:
        raise NoEligibleIndex("every variable is already revealed")
    return unrevealed


def oracle_pick(m, revealed):
    atoms, _ = _conditional_atoms(m, revealed)
    full_unrevealed = ((1 << m.n) - 1) & ~revealed.index_mask
    for i in _unrevealed(m.n, revealed.index_mask):
        bit = 1 << (i - 1)
        w1, w0, s1, s0 = _influence_terms(atoms, bit, full_unrevealed & ~bit)
        if w1 == 0 or w0 == 0:
            return PickResult(i, True, None)
        excess = s0 * w1 - s1 * w0
        if excess <= w0 * w1:
            return PickResult(i, False, Fraction(excess, w0 * w1))
    raise NoEligibleIndex("no unrevealed index is deterministic or has influence sum <= 1")


def oracle_lemma(m, revealed):
    atoms, total = _conditional_atoms(m, revealed)
    full_unrevealed = ((1 << m.n) - 1) & ~revealed.index_mask
    entries = []
    satisfied = []
    for i in _unrevealed(m.n, revealed.index_mask):
        bit = 1 << (i - 1)
        w1, w0, s1, s0 = _influence_terms(atoms, bit, full_unrevealed & ~bit)
        pi = Fraction(w1, total)
        variance = pi * (1 - pi)
        cov_sum = Fraction(s1, total) - pi * Fraction(s0 + s1, total)
        quantity = variance + cov_sum
        deterministic = w1 == 0 or w0 == 0
        influence = None if deterministic else Fraction(s0, w0) - Fraction(s1, w1)
        if deterministic and quantity != 0:
            raise LemmaViolated(f"deterministic index {i} has nonzero witness {quantity}")
        if not deterministic and quantity != variance * (1 - influence):
            raise LemmaViolated(f"index {i}: witness {quantity}")
        entries.append(
            PickLemmaEntry(i, pi, variance, cov_sum, quantity, deterministic, influence)
        )
        if quantity >= 0:
            satisfied.append(i)
    if not satisfied:
        raise LemmaViolated("no unrevealed index has a nonnegative witness")
    first = next(e for e in entries if e.index == satisfied[0])
    chosen = PickResult(first.index, first.deterministic, first.influence_sum)
    return PickLemmaReport(revealed, entries, satisfied, chosen)


# -- inputs --------------------------------------------------------------------


def _huge_denominator_measure():
    """A 5-variable measure whose common denominator exceeds 2^63."""
    rng = random.Random(63)
    weights = {x: rng.randint(1, 1 << 70) for x in range(32) if rng.random() < 0.7}
    return ExplicitMeasure._from_weights(5, weights)


HUGE = _huge_denominator_measure()
MEASURES = [(name, m) for name, m in zoo().items() if m.n <= 6] + [("huge_denominator", HUGE)]


def _outcome(fn, m, revealed):
    try:
        return fn(m, revealed)
    except (DimensionMismatch, ZeroProbabilityEvent, NoEligibleIndex, LemmaViolated) as exc:
        return type(exc)


def _every_assignment(n):
    """Every assignment, its indices listed in descending order."""
    for size in range(n + 1):
        for indices in itertools.combinations(range(n, 0, -1), size):
            for values in itertools.product((0, 1), repeat=size):
                yield Assignment(indices, values)


def test_the_huge_measure_needs_python_ints():
    assert HUGE.scaled_weights()[0] > (1 << 63) - 1
    assert HUGE.dense().dtype == object


@pytest.mark.parametrize("name,m", MEASURES, ids=[name for name, _ in MEASURES])
def test_pick_and_lemma_match_the_frozen_oracle(name, m):
    positive = 0
    for revealed in _every_assignment(m.n):
        expected_pick = _outcome(oracle_pick, m, revealed)
        assert _outcome(pick_index, m, revealed) == expected_pick
        assert _outcome(verify_pick_lemma, m, revealed) == _outcome(oracle_lemma, m, revealed)
        positive += isinstance(expected_pick, PickResult)
    assert positive > 0


@pytest.mark.parametrize("m", [family_nand(3), HUGE], ids=["nand3", "huge_denominator"])
def test_error_precedence_matches_the_frozen_oracle(m):
    full = tuple(range(1, m.n + 1))
    zero = next(x for x in range(1 << m.n) if x not in m.scaled_weights()[1])
    null = Assignment(full, tuple(zero >> t & 1 for t in range(m.n)))
    support = next(iter(m.scaled_weights()[1]))
    point = Assignment(full, tuple(support >> t & 1 for t in range(m.n)))
    cases = [
        # out of range beats a zero-probability event and a full assignment
        (Assignment(full + (m.n + 1,), null.values + (0,)), DimensionMismatch),
        # a null event beats having nothing left to reveal
        (null, ZeroProbabilityEvent),
        (point, NoEligibleIndex),
    ]
    for revealed, error in cases:
        for fn, oracle in ((pick_index, oracle_pick), (verify_pick_lemma, oracle_lemma)):
            assert _outcome(oracle, m, revealed) is error
            with pytest.raises(error):
                fn(m, revealed)
