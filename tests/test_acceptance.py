"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Budgets are wall-clock seconds on a desktop-class machine.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from negdep.concentration import (
    REL_TOL,
    chain_exponential_moment,
    node_exponential_moment,
    verify_theorem,
)
from negdep.coupling import check_dominance, is_down_closed
from negdep.dependence import (
    NOTION_IMPLICATIONS,
    GeneratingPolynomial,
    Notion,
    Verdict,
    check_cna,
    check_cylinder,
    check_neg_association,
    check_neg_regression,
    check_pairwise_nc,
    check_stochastic_covering,
    rayleigh_falsify,
)
from negdep.martingale import (
    build_adaptive_tree,
    build_skeleton,
    fixed_order_tree,
    max_step,
    root_step,
    verify_pick_lemma,
)
from negdep.measure import (
    family_nand,
    random_lipschitz,
    random_measure,
    sum_function,
    zoo,
)
from negdep.upsets import upset_bitmasks, upset_members


def report(label: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"\n{label}: PASS ({elapsed:.1f} s, budget {budget:.0f} s)")
    assert elapsed < budget, f"{label} exceeded its {budget:.0f} s budget"


def function_matrix(name: str, n: int, count: int = 50):
    """The seeded test functions for one measure: half monotone."""
    out = []
    for j in range(count):
        rng = random.Random(f"matrix:{name}:{j}")
        out.append(random_lipschitz(n, rng, monotone=(j % 2 == 0)))
    return out


@pytest.fixture(scope="module")
def the_zoo():
    return zoo()


@pytest.fixture(scope="module")
def nr_pass_zoo(the_zoo):
    return {
        name: m
        for name, m in the_zoo.items()
        if check_neg_regression(m).verdict is Verdict.HOLDS
    }


def test_c1_nand_reproduction():
    started = time.time()
    for n in range(3, 11):
        m = family_nand(n)
        f = sum_function(n)
        nr = check_neg_regression(m)
        assert nr.verdict is Verdict.HOLDS, f"nand({n}) NR should hold"
        fixed = fixed_order_tree(m, f)
        formula = Fraction(n - 3, 2) + Fraction(1, 2 ** (n - 1))
        assert root_step(fixed) == formula, (
            f"nand({n}) fixed first step {root_step(fixed)} != {formula}"
        )
        adaptive = build_adaptive_tree(m, f)
        assert max_step(adaptive) <= 1, f"nand({n}) adaptive step above 1"
    report("C1 NAND reproduction n=3..10", started, 120)


def test_c2_pick_lemma_tripwire(the_zoo):
    started = time.time()
    nodes_checked = 0
    for name, m in the_zoo.items():
        if name == "pos_pair":
            continue  # criterion list: every catalog law except the foil
        sk = build_skeleton(m)
        stack = [sk.root]
        while stack:
            node = stack.pop()
            if node.leaf_mask is not None:
                continue
            rep = verify_pick_lemma(m, node.assignment)  # raises on breakage
            assert rep.chosen.index == node.pick
            nodes_checked += 1
            for child in (node.child0, node.child1):
                if child is not None:
                    stack.append(child)
    assert nodes_checked > 500
    report(f"C2 pick lemma at {nodes_checked} reachable nodes", started, 60)


def test_c3_interval_bounds(nr_pass_zoo):
    started = time.time()
    trees = 0
    for name, m in nr_pass_zoo.items():
        sk = build_skeleton(m)
        for f in function_matrix(name, m.n):
            tree = build_adaptive_tree(m, f, skeleton=sk)
            limit = 1 if f.declared_monotone else 2
            for node in tree.nodes():
                assert node.beta - node.alpha <= limit, (
                    name,
                    f.name,
                    node.assignment.to_json(),
                )
            trees += 1
    report(f"C3 increment intervals on {trees} adaptive trees", started, 180)


def test_c4_tail_bounds(nr_pass_zoo):
    started = time.time()
    reports = 0
    for name, m in nr_pass_zoo.items():
        for f in function_matrix(name, m.n):
            rep = verify_theorem(m, f)  # default grid: quarters, full range
            assert rep.verdict, (name, f.name, [r.t for r in rep.failures()])
            reports += 1
    report(f"C4 tail bounds on {reports} measure/function pairs", started, 120)


def test_c5_proof_chain(nr_pass_zoo):
    started = time.time()
    lambdas = (2.0, -2.0, 1.0, -1.0, 0.5, -0.5, 0.1, -0.1)
    nodes_checked = 0
    for name, m in nr_pass_zoo.items():
        sk = build_skeleton(m)
        for f in function_matrix(name, m.n):
            tree = build_adaptive_tree(m, f, skeleton=sk)
            for node in tree.internal_nodes():
                width = float(node.beta - node.alpha)
                for lam in lambdas:
                    bound = math.exp(lam * lam * width * width / 8)
                    assert node_exponential_moment(tree, node, lam) <= bound * (
                        1 + REL_TOL
                    ), (name, f.name)
                nodes_checked += 1
            mu = m.expectation(f)
            values = f.values
            n = m.n
            cap_exp = n / 8 if f.declared_monotone else n / 2
            for lam in lambdas:
                chain = chain_exponential_moment(tree, lam)
                assert chain <= math.exp(lam * lam * cap_exp) * (1 + REL_TOL), (
                    name,
                    f.name,
                    lam,
                )
                atoms = sum(
                    float(p) * math.exp(lam * float(values[x] - mu))
                    for x, p in m.items()
                )
                assert abs(chain - atoms) <= REL_TOL * max(1.0, abs(atoms))
    report(f"C5 exponential moments at {nodes_checked} nodes", started, 60)


def test_c6_strassen_machinery():
    started = time.time()
    rng = random.Random("acceptance:c6")
    failures_certified = 0
    couplings_checked = 0
    for trial in range(200):
        L = rng.randint(1, 4)
        lower = random_measure(L, rng)
        upper = random_measure(L, rng)
        res = check_dominance(lower, upper)
        brute = all(
            sum((upper.prob(p) for p in upset_members(bm, L)), Fraction(0))
            >= sum((lower.prob(p) for p in upset_members(bm, L)), Fraction(0))
            for bm in upset_bitmasks(L)
        )
        assert res.dominates == brute, trial
        if res.dominates:
            from negdep.coupling import build_monotone_coupling

            c = build_monotone_coupling(lower, upper)
            row = {}
            col = {}
            for x, y, p in c.pairs():
                assert x & ~y == 0
                row[x] = row.get(x, Fraction(0)) + p
                col[y] = col.get(y, Fraction(0)) + p
            assert row == dict(lower.items())
            assert col == dict(upper.items())
            couplings_checked += 1
        else:
            cert = res.certificate
            assert is_down_closed(cert.down_set, L)
            assert cert.check(lower, upper)
            assert cert.lower_mass < cert.upper_mass
            failures_certified += 1
    assert couplings_checked + failures_certified == 200
    report(
        f"C6 Strassen machinery ({couplings_checked} couplings, "
        f"{failures_certified} certificates)",
        started,
        60,
    )


def test_c7_notion_hierarchy(the_zoo):
    started = time.time()
    checks = {
        Notion.PAIRWISE_NC: check_pairwise_nc,
        Notion.CYLINDER: check_cylinder,
        Notion.NEG_ASSOCIATION: check_neg_association,
        Notion.NEG_REGRESSION: check_neg_regression,
        Notion.CNA: check_cna,
        Notion.STOCHASTIC_COVERING: check_stochastic_covering,
    }
    verdicts = {}
    for name, m in the_zoo.items():
        verdicts[name] = {notion: fn(m).ok for notion, fn in checks.items()}
        for stronger, weaker in NOTION_IMPLICATIONS:
            assert not (
                verdicts[name][stronger] and not verdicts[name][weaker]
            ), (name, stronger, weaker)
    # nand(3): NR without stochastic covering, with a checkable witness
    assert verdicts["nand3"][Notion.NEG_REGRESSION]
    assert not verdicts["nand3"][Notion.STOCHASTIC_COVERING]
    sc_cert = check_stochastic_covering(the_zoo["nand3"]).certificate
    assert sc_cert is not None
    assert Fraction(sc_cert["lower_mass"]) > Fraction(sc_cert["upper_mass"])
    # the positively correlated pair fails everything
    assert not any(verdicts["pos_pair"].values())
    assert rayleigh_falsify(the_zoo["pos_pair"]).verdict is Verdict.VIOLATION_FOUND
    # independent products pass everything
    for name in ("independent_half4", "independent_mixed"):
        assert all(verdicts[name].values()), name
        assert (
            rayleigh_falsify(the_zoo[name]).verdict is Verdict.NO_VIOLATION_FOUND
        )
    report("C7 notion hierarchy across the catalog", started, 120)


def test_c8_rayleigh_falsifier(the_zoo):
    started = time.time()
    rep = rayleigh_falsify(the_zoo["pos_pair"])
    assert rep.verdict is Verdict.VIOLATION_FOUND
    assert Fraction(rep.certificate["delta"]) == Fraction(-1, 4)
    # the difference polynomial is constant here, so the origin witnesses
    poly = GeneratingPolynomial.of(the_zoo["pos_pair"])
    origin = (Fraction(0), Fraction(0))
    assert poly.rayleigh_difference(1, 2, origin) == Fraction(-1, 4)
    assert rayleigh_falsify(the_zoo["anti_pair"]).verdict is (
        Verdict.NO_VIOLATION_FOUND
    )
    for name in ("independent_half4", "independent_mixed"):
        assert rayleigh_falsify(the_zoo[name]).verdict is (
            Verdict.NO_VIOLATION_FOUND
        )
    report("C8 Rayleigh falsifier", started, 10)
