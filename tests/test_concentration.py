import json
import math
import random
from fractions import Fraction

import pytest

from negdep.cli import main
from negdep.concentration import (
    REL_TOL,
    TailSide,
    chain_exponential_moment,
    default_t_grid,
    exact_tail,
    node_exponential_moment,
    theorem_bound,
    verify_theorem,
)
from negdep.errors import DimensionMismatch, NodeIsLeaf
from negdep.martingale import build_adaptive_tree
from negdep.measure import (
    constant_function,
    family_anti_pair,
    family_independent,
    family_nand,
    random_lipschitz,
    sum_function,
)

HALF = Fraction(1, 2)


# -- bounds ------------------------------------------------------------------


def test_bound_at_zero_is_one():
    for n in (1, 3, 7):
        assert theorem_bound(n, Fraction(0), False) == 1.0
        assert theorem_bound(n, Fraction(0), True) == 1.0


def test_bound_reference_values():
    assert math.isclose(
        theorem_bound(3, Fraction(1, 4), True), math.exp(-1 / 24), rel_tol=1e-15
    )
    assert math.isclose(
        theorem_bound(3, Fraction(1, 4), False), math.exp(-1 / 96), rel_tol=1e-15
    )
    assert f"{theorem_bound(3, Fraction(1, 4), True):.6f}" == "0.959189"
    assert f"{theorem_bound(3, Fraction(1, 4), False):.6f}" == "0.989637"


def test_bound_monotone_dominated_by_plain():
    for n in (2, 5, 9):
        for k in range(0, 4 * n + 1):
            t = Fraction(k, 4)
            assert theorem_bound(n, t, True) <= theorem_bound(n, t, False)


def test_bound_validation():
    with pytest.raises(ValueError):
        theorem_bound(0, Fraction(1), False)
    with pytest.raises(ValueError):
        theorem_bound(3, Fraction(-1), False)


def test_bound_past_the_float_range_is_zero():
    # t^2/n above the largest float, where the int / int exponent overflows
    for monotone in (False, True):
        assert theorem_bound(3, Fraction(10**200), monotone) == 0.0
        assert theorem_bound(1, Fraction(10**155), monotone) == 0.0
        assert theorem_bound(1, Fraction(10**200 + 1, 10**46), monotone) == 0.0
    # around where e^(-x) reaches 0.0, the bound is still e^(-x) bit for bit
    for k in range(1900, 2100):
        assert theorem_bound(1, Fraction(k, 50), False) == math.exp(-k * k / 5000)
        assert theorem_bound(1, Fraction(k, 100), True) == math.exp(-k * k / 5000)
    # huge terms whose ratio fits still take the one correctly rounded division
    t = Fraction(10**400 + 1, 10**400)
    assert theorem_bound(3, t, False) == math.exp(-float(t * t / 6))
    assert theorem_bound(3, t, True) == math.exp(-float(2 * t * t / 3))


def test_verify_rejects_a_negative_t():
    m, f = family_nand(3), sum_function(3)
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        verify_theorem(m, f, [Fraction(-1)])
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        verify_theorem(m, f, [Fraction(0), Fraction(-1, 3), Fraction(1)])


# -- exact tails -------------------------------------------------------------


def test_exact_tail_nand3():
    m = family_nand(3)
    f = sum_function(3)
    assert exact_tail(m, f, Fraction(1, 4), TailSide.Upper) == Fraction(3, 4)
    assert exact_tail(m, f, Fraction(1, 4), TailSide.Lower) == Fraction(1, 4)


def test_exact_tail_closed_comparisons():
    # t = 0 includes mass exactly at the mean from both sides
    m = family_independent([HALF])
    f = sum_function(1)
    assert exact_tail(m, f, Fraction(0), TailSide.Upper) == HALF
    assert exact_tail(m, f, Fraction(0), TailSide.Lower) == HALF
    # mu = 1/2, t = 1/2: the atom at 1 satisfies f >= 1 exactly
    assert exact_tail(m, f, HALF, TailSide.Upper) == HALF


def test_exact_tail_constant_function():
    m = family_nand(4)
    f = constant_function(4, Fraction(2))
    assert exact_tail(m, f, Fraction(1, 4), TailSide.Upper) == 0
    assert exact_tail(m, f, Fraction(1, 4), TailSide.Lower) == 0
    assert exact_tail(m, f, Fraction(0), TailSide.Upper) == 1


def test_exact_tail_binomial():
    m = family_independent([HALF] * 4)
    f = sum_function(4)
    assert exact_tail(m, f, Fraction(2), TailSide.Upper) == Fraction(1, 16)
    assert exact_tail(m, f, Fraction(2), TailSide.Lower) == Fraction(1, 16)


def test_exact_tail_dimension_check():
    with pytest.raises(DimensionMismatch, match="^function on 4 vars, measure on 3$"):
        exact_tail(family_nand(3), sum_function(4), Fraction(1), TailSide.Upper)
    with pytest.raises(DimensionMismatch, match="^function on 4 vars, measure on 3$"):
        verify_theorem(family_nand(3), sum_function(4))


def test_upper_tail_non_increasing_in_t():
    m = family_nand(5)
    rng = random.Random(8)
    f = random_lipschitz(5, rng)
    last = Fraction(2)
    for k in range(0, 21):
        tail = exact_tail(m, f, Fraction(k, 4), TailSide.Upper)
        assert tail <= last
        last = tail


# -- verify_theorem ----------------------------------------------------------


def test_verify_nand3_reference_grid():
    rep = verify_theorem(
        family_nand(3), sum_function(3), [0, Fraction(1, 4), HALF, 1]
    )
    assert rep.verdict
    assert rep.mu == Fraction(7, 4)
    assert [r.t for r in rep.rows] == [0, Fraction(1, 4), HALF, 1]
    r = rep.rows[1]
    assert r.upper_exact == Fraction(3, 4)
    assert r.lower_exact == Fraction(1, 4)
    assert r.monotone_bound is not None
    assert r.passed


def test_verify_rows_match_exact_tail():
    m = family_independent([HALF] * 4)
    rng = random.Random(21)
    f = random_lipschitz(4, rng, monotone=False)
    rep = verify_theorem(m, f)
    assert rep.rows, "default grid must not be empty"
    for row in rep.rows:
        assert row.upper_exact == exact_tail(m, f, row.t, TailSide.Upper)
        assert row.lower_exact == exact_tail(m, f, row.t, TailSide.Lower)
        assert row.monotone_bound is None


def test_default_grid_spans_range_width():
    f = sum_function(3)
    grid = default_t_grid(f)
    assert grid[0] == 0
    assert grid[-1] == 3
    assert len(grid) == 13
    assert default_t_grid(constant_function(2, Fraction(9))) == [0]


def test_grid_rows_sorted():
    rep = verify_theorem(family_nand(3), sum_function(3), [1, 0, HALF])
    assert [r.t for r in rep.rows] == [0, HALF, 1]


def test_report_serialization():
    rep = verify_theorem(family_nand(3), sum_function(3), [0, HALF])
    doc = rep.to_json()
    assert doc["n"] == 3
    assert doc["mu"] == "7/4"
    assert doc["verdict"] is True
    assert set(doc["rows"][0]) == {
        "t",
        "upper_exact",
        "lower_exact",
        "bound",
        "monotone_bound",
        "pass",
    }
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == (
        "t,upper_exact,lower_exact,bound,monotone_bound,pass"
    )
    assert len(csv_text.splitlines()) == 3


def test_report_files_read_back_as_the_serializations(tmp_path):
    rep = verify_theorem(family_nand(3), sum_function(3), [0, HALF])
    for fmt, want in (("json", json.dumps(rep.to_json(), indent=2) + "\n"),
                      ("csv", rep.to_csv())):
        path = tmp_path / f"tail.{fmt}"
        assert main(["tail", "--family", "nand:3", "--f", "sum", "--grid", "0:1/2:1/2",
                     "--format", fmt, "-o", str(path)]) == 0
        assert path.read_text() == want

def test_verdict_failure_identifies_row():
    # a deliberately absurd grid cannot fail for a true bound, so force a
    # failure through a non-NR measure where the bound is not a theorem
    from negdep.measure import new_explicit

    m = new_explicit(2, [("00", HALF), ("11", HALF)])
    f = sum_function(2)
    rep = verify_theorem(m, f, [Fraction(1)])
    # Pr[f >= mu + 1] = 1/2 but the n=2 monotone bound is e^{-1} < 1/2
    assert not rep.verdict
    assert rep.failures()
    assert rep.failures()[0].t == 1


# -- exponential moments -----------------------------------------------------


def test_node_moment_two_point():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    r = t.root
    # branch diffs are -1/4 and +1/4 with probability 1/2 each
    value = node_exponential_moment(t, r, 2.0)
    assert math.isclose(value, math.cosh(0.5), rel_tol=1e-15)
    assert value <= math.exp(0.5)
    assert node_exponential_moment(t, r, 0.0) == 1.0


def test_node_moment_leaf_raises():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    leaf = next(iter(t.leaves()))
    with pytest.raises(NodeIsLeaf):
        node_exponential_moment(t, leaf, 1.0)


def test_node_moment_forced_is_one():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    forced = [
        node
        for node in t.internal_nodes()
        if node.child0 is None or node.child1 is None
    ]
    assert forced
    for node in forced:
        assert node_exponential_moment(t, node, 1.7) == 1.0


def test_per_node_hoeffding():
    rng = random.Random(31)
    for monotone in (False, True):
        f = random_lipschitz(6, rng, monotone=monotone)
        t = build_adaptive_tree(family_nand(6), f)
        for node in t.internal_nodes():
            width = float(node.beta - node.alpha)
            for lam in (2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1):
                moment = node_exponential_moment(t, node, lam)
                assert moment <= math.exp(lam * lam * width * width / 8) * (
                    1 + REL_TOL
                )


def test_chain_moment_leaf_sum_identity():
    m = family_nand(5)
    rng = random.Random(77)
    f = random_lipschitz(5, rng)
    t = build_adaptive_tree(m, f)
    mu = m.expectation(f)
    for lam in (1.0, -1.0, 0.5, 2.0):
        chain = chain_exponential_moment(t, lam)
        atoms = sum(
            float(p) * math.exp(lam * float(f.values[x] - mu))
            for x, p in m.items()
        )
        assert abs(chain - atoms) <= REL_TOL * max(1.0, abs(atoms))


def test_chain_moment_bounds():
    t = build_adaptive_tree(family_nand(3), sum_function(3))
    assert chain_exponential_moment(t, 0.0) == 1.0
    assert chain_exponential_moment(t, 1.0) <= math.exp(3 / 8) * (1 + REL_TOL)


def test_markov_step_reproduces_bound_exactly():
    # exp(n lam^2/2 - lam t) at lam = t/n, with the exponent carried as
    # an exact rational, is bit-for-bit the plain bound
    for n in (3, 6, 10):
        for k in range(0, 4 * n + 1):
            t = Fraction(k, 4)
            lam = t / n
            exponent = Fraction(n) * lam * lam / 2 - lam * t
            assert math.exp(float(exponent)) == theorem_bound(n, t, False)


def test_optimized_markov_attained_at_t_over_n():
    n, t = 6, Fraction(3, 2)
    best_lam = None
    best = float("inf")
    for k in range(1, 200):
        lam = Fraction(k, 100)
        value = math.exp(float(Fraction(n) * lam * lam / 2 - lam * t))
        if value < best:
            best, best_lam = value, lam
    assert best_lam == t / n
