"""Negative association and CNA against memo-free oracles.

`check_cna` skips a conditional law it has already seen hold, and
`_na_violation` skips a bipartition whose joint weight matrix it has
already seen hold.  The oracles below run the same scan with nothing
remembered: the CNA oracle calls `_na_violation` on every positive
conditional, and neither oracle ever skips a bipartition.  Verdicts,
certificates and every counter the memos do not change must agree.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import negdep.bitops as bitops
import negdep.dependence as dependence
from negdep.bitops import indices_of, subsets_lex
from negdep.dependence import Verdict, check_cna, check_neg_association
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_conditioned_sum,
    family_nand,
)
from negdep.zoo import random_measure, zoo


class _Forgetful(set):
    """A `held` set that never remembers a bipartition."""

    def add(self, key):
        pass


def oracle_na(m):
    if m.n < 2:
        return None, {"bipartitions": 0, "upsets_tested": 0, "closures": 0}
    cert, work = dependence._na_violation(m, _Forgetful())
    assert work.pop("repeated_joints_skipped") == 0
    return cert, work


def oracle_cna(m):
    """CNA by scanning every positive conditional in full.

    Also returns what the law memo should report: how many conditionals
    repeat a law seen earlier, and the bipartitions of the first
    occurrences only.
    """
    n = m.n
    work = {"conditionings_checked": 0, "bipartitions": 0, "repeated_laws_skipped": 0}
    seen = []
    ks = [()]
    if n >= 2:
        ks += [indices_of(s) for s in subsets_lex(n) if s.bit_count() <= n - 2]
    for k_indices in ks:
        for pattern in range(1 << len(k_indices)):
            values = tuple(pattern >> t & 1 for t in range(len(k_indices)))
            asg = Assignment(k_indices, values)
            if k_indices and m.prob_of_assignment(asg) == 0:
                continue
            sub = m.condition(asg) if k_indices else m
            work["conditionings_checked"] += 1
            if sub.n < 2:
                continue
            cert, inner = dependence._na_violation(sub, _Forgetful())
            if sub in seen:
                work["repeated_laws_skipped"] += 1
                assert cert is None  # a repeated law repeats its verdict
                continue
            seen.append(sub)
            work["bipartitions"] += inner["bipartitions"]
            if cert is not None:
                keep = [i for i in range(1, n + 1) if i not in k_indices]
                return {
                    "K": list(k_indices),
                    "values": "".join(map(str, values)),
                    "I": [keep[i - 1] for i in cert["I"]],
                    "J": [keep[j - 1] for j in cert["J"]],
                    "A": cert["A"],
                    "B": cert["B"],
                    "covariance": cert["covariance"],
                }, work
    return None, work


def _inputs():
    cases = {name: m for name, m in zoo().items() if m.n <= 6}
    rng = random.Random(606)
    for k in range(24):
        n = 1 + k % 6
        cases[f"random{k}"] = random_measure(n, rng, max_weight=rng.choice([1, 2, 8]))
    # exchangeable: {1}|{2,3,4} holds, and its 2 x 8 joint matrix has the
    # same 16 entries in the same order as the 4 x 4 one of {1,2}|{3,4},
    # which fails
    cases["exchangeable4"] = ExplicitMeasure._from_weights(
        4, {x: 3 if x.bit_count() == 3 else 2 for x in range(15)}
    )
    # bipartitions with the same row sums as one that held, but failing:
    # in the measure itself and in the conditional x2 = 0
    cases["row_sums3"] = ExplicitMeasure._from_weights(
        3, {1: 3, 2: 1, 3: 1, 4: 1, 6: 3, 7: 3}
    )
    row_sums4 = [0, 1, 0, 3, 1, 1, 3, 3, 0, 2, 2, 1, 1, 2, 1, 1]
    cases["row_sums4"] = ExplicitMeasure._from_weights(
        4, {x: w for x, w in enumerate(row_sums4) if w}
    )
    big = [Fraction(1, 1009), Fraction(2, 1013), Fraction(3, 1019), Fraction(5, 1021)]
    cases["condsum_big"] = family_conditioned_sum(big + [Fraction(7, 1031)], 1, 3)
    return cases


INPUTS = _inputs()


@pytest.fixture(params=["int64", "object"])
def arrays(request, monkeypatch, record_dense_dtypes):
    # a bound of 0 sends every measure down the object-dtype path that
    # denominators above isqrt(2^63 - 1) take; the dtypes the weights
    # were laid out in show that it did
    dtypes = record_dense_dtypes()
    if request.param == "object":
        monkeypatch.setattr(bitops, "_INT64_MAX", 0)
    yield request.param
    if request.param == "object":
        assert dtypes == {np.dtype(object)}


def test_inputs_cover_large_denominators_repeats_and_both_verdicts():
    assert any(m.scaled_weights()[0] > 1 << 20 for m in INPUTS.values())
    reports = [check_cna(m) for m in INPUTS.values()]
    assert {r.verdict for r in reports} == {Verdict.HOLDS, Verdict.FAILS}
    assert any(r.work_stats["repeated_joints_skipped"] for r in reports)
    na = [check_neg_association(m) for m in INPUTS.values()]
    assert {r.verdict for r in na} == {Verdict.HOLDS, Verdict.FAILS}
    assert any(r.work_stats["repeated_joints_skipped"] for r in na)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_na_matches_oracle(name, arrays):
    m = INPUTS[name]
    rep = check_neg_association(m)
    cert, work = oracle_na(m)
    assert rep.verdict is (Verdict.HOLDS if cert is None else Verdict.FAILS)
    assert rep.certificate == cert
    got = dict(rep.work_stats)
    skipped = got.pop("repeated_joints_skipped")
    assert got["bipartitions"] == work["bipartitions"]
    # a skipped bipartition tests no up-set and runs no closure
    assert got["upsets_tested"] <= work["upsets_tested"]
    assert got["closures"] <= work["closures"]
    if skipped == 0:
        assert got == work


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cna_matches_oracle(name, arrays):
    m = INPUTS[name]
    rep = check_cna(m)
    cert, work = oracle_cna(m)
    assert rep.verdict is (Verdict.HOLDS if cert is None else Verdict.FAILS)
    assert rep.certificate == cert
    got = dict(rep.work_stats)
    assert got.pop("repeated_joints_skipped") <= got["bipartitions"]
    assert got == work


def test_cna_decides_each_law_of_nand_once():
    work = check_cna(family_nand(6)).work_stats
    assert work["repeated_laws_skipped"] > 0
    assert work["repeated_joints_skipped"] > 0
