import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import negdep.bitops as bitops
import negdep.dependence as dependence
from negdep.bitops import mask_from_bits
from negdep.coupling import is_down_closed
from negdep.dependence import (
    CHECKER_CAPS,
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
    covariance,
    default_rayleigh_grid,
    rayleigh_falsify,
    upset_indicator_cov,
)
from negdep.errors import DimensionMismatch, TooLarge
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
    parse_rational,
)
from negdep.zoo import random_measure, zoo

HALF = Fraction(1, 2)


# -- pairwise negative correlation ------------------------------------------


def test_nc_anti_pair_holds_with_worst_pair():
    rep = check_pairwise_nc(family_anti_pair())
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate is None
    assert rep.work_stats["worst_pair"] == [1, 2]
    assert parse_rational(rep.work_stats["worst_covariance"]) == Fraction(-1, 4)


def test_nc_pos_pair_fails():
    rep = check_pairwise_nc(family_pos_pair())
    assert rep.verdict is Verdict.FAILS
    assert rep.certificate == {"i": 1, "j": 2, "covariance": "1/4"}
    assert not rep.ok


def test_nc_hadamard_holds_at_zero():
    rep = check_pairwise_nc(family_hadamard(4))
    assert rep.verdict is Verdict.HOLDS
    assert parse_rational(rep.work_stats["worst_covariance"]) == 0


def test_nc_holds_vacuously_on_one_variable():
    rep = check_pairwise_nc(family_independent([HALF]))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate is None
    assert rep.work_stats["pairs_checked"] == 0


def test_covariance_matches_definition():
    m = family_nand(4)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            pij = sum(
                (p for x, p in m.items() if x >> (i - 1) & 1 and x >> (j - 1) & 1),
                Fraction(0),
            )
            pi = m.mean_vector()[i - 1]
            pj = m.mean_vector()[j - 1]
            assert covariance(m, i, j) == pij - pi * pj


# -- cylinder dependence -----------------------------------------------------


def test_cylinder_nand_holds():
    rep = check_cylinder(family_nand(3))
    assert rep.verdict is Verdict.HOLDS
    assert rep.certificate is None


def test_cylinder_pos_pair_fails_on_ones():
    rep = check_cylinder(family_pos_pair())
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["S"] == [1, 2]
    assert cert["side"] == "ones"
    assert parse_rational(cert["lhs"]) == HALF
    assert parse_rational(cert["rhs"]) == Fraction(1, 4)


def test_cylinder_certificate_recomputes():
    rep = check_cylinder(family_pos_pair())
    cert = rep.certificate
    m = family_pos_pair()
    S = cert["S"]
    means = m.mean_vector()
    lhs = sum(
        (
            p
            for x, p in m.items()
            if all(x >> (i - 1) & 1 for i in S)
        ),
        Fraction(0),
    )
    rhs = Fraction(1)
    for i in S:
        rhs *= means[i - 1]
    assert parse_rational(cert["lhs"]) == lhs
    assert parse_rational(cert["rhs"]) == rhs
    assert lhs > rhs


def test_cylinder_independent_holds_with_equality():
    rep = check_cylinder(family_independent([Fraction(1, 3), HALF, Fraction(2, 3)]))
    assert rep.verdict is Verdict.HOLDS


# -- negative association ----------------------------------------------------


def test_na_holds_on_anti_and_balls_bins():
    assert check_neg_association(family_anti_pair()).verdict is Verdict.HOLDS
    assert check_neg_association(family_balls_bins(2, 2)).verdict is Verdict.HOLDS


def test_na_pos_pair_fails_with_witness():
    rep = check_neg_association(family_pos_pair())
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["I"] == [1]
    assert cert["J"] == [2]
    assert cert["A"] == ["1"]
    assert cert["B"] == ["1"]
    assert parse_rational(cert["covariance"]) == Fraction(1, 4)


def test_na_certificate_recomputes():
    m = family_pos_pair()
    cert = check_neg_association(m).certificate
    cov = upset_indicator_cov(
        m,
        cert["I"],
        [mask_from_bits(b) for b in cert["A"]],
        cert["J"],
        [mask_from_bits(b) for b in cert["B"]],
    )
    assert cov == parse_rational(cert["covariance"])
    assert cov > 0


def test_na_single_variable_vacuous():
    rep = check_neg_association(family_independent([HALF]))
    assert rep.verdict is Verdict.HOLDS


def test_na_one_variable_reports_the_same_counters_as_two():
    one = check_neg_association(family_independent([HALF])).work_stats
    two = check_neg_association(family_independent([HALF] * 2)).work_stats
    assert list(one) == list(two)
    assert set(one.values()) == {0}


def test_na_cap_enforced():
    with pytest.raises(TooLarge):
        check_neg_association(family_nand(9))


@pytest.mark.parametrize("checker", [check_neg_association, check_cna])
def test_association_refuses_past_enumerable_bipartitions_before_splitting(
    checker, monkeypatch
):
    # at n = 12 the 6 | 6 bipartitions have no side of dimension <= 5
    monkeypatch.setenv("NEGDEP_MAX_N", "12")

    def never(*args):
        raise AssertionError("a bipartition was split")

    monkeypatch.setattr(dependence, "SubsetExtractor", never)
    with pytest.raises(TooLarge) as refusal:
        checker(family_nand(12))
    assert str(refusal.value) == "association check needs n <= 11, got n=12"


CAPPED_CHECKERS = {
    "cyl": check_cylinder,
    "na": check_neg_association,
    "cna": check_cna,
    "nr": check_neg_regression,
    "sc": check_stochastic_covering,
}


def test_every_capped_checker_is_in_the_cap_table():
    assert set(CAPPED_CHECKERS) == set(CHECKER_CAPS)


@pytest.mark.parametrize("key", sorted(CAPPED_CHECKERS))
def test_capped_checker_refuses_with_the_cap_table_message(key, monkeypatch):
    m = family_nand(5)
    monkeypatch.setenv("NEGDEP_MAX_N", "4")
    with pytest.raises(TooLarge) as refusal:
        CAPPED_CHECKERS[key](m)
    assert str(refusal.value) == f"n=5 exceeds the {CHECKER_CAPS[key]} cap 4"


def _small_measures():
    small = [m for m in zoo().values() if m.n <= 6]
    rng = random.Random(31)
    return small + [random_measure(n, rng) for n in range(1, 7) for _ in range(3)]


@pytest.mark.parametrize("checker", [check_neg_association, check_cna])
def test_na_python_int_path_matches_int64_path(checker, monkeypatch, record_dense_dtypes):
    # a bound of 0 forces the object-dtype arrays (and closures for every
    # up-set row) that measures with denominators above isqrt(2^63 - 1) take
    measures = _small_measures()
    fast = [checker(m) for m in measures]
    dtypes = record_dense_dtypes()
    monkeypatch.setattr(bitops, "_INT64_MAX", 0)
    slow = [checker(m) for m in measures]
    assert dtypes == {np.dtype(object)}
    for a, b in zip(fast, slow):
        assert (a.verdict, a.certificate) == (b.verdict, b.certificate)
        # "closures" counts how B was maximized, which is what differs
        assert {k: v for k, v in a.work_stats.items() if k != "closures"} == {
            k: v for k, v in b.work_stats.items() if k != "closures"
        }


# the largest D with D^2 <= 2^63 - 1: NA's int64 bound
NA_INT64_DENOMINATOR = 3_037_000_499


def _na_reports(m):
    return [check_neg_association(m).to_json(), check_cna(m).to_json()]


def _but_closures(docs):
    """Reports without the count of closures, which is what differs
    between the product path and the closure path."""
    return [{**doc, "work": {k: v for k, v in doc["work"].items() if k != "closures"}}
            for doc in docs]


def _forced_object_reports(m, monkeypatch):
    """Both reports with every array on Python ints, so every up-set row
    of A is maximized by a closure."""
    with monkeypatch.context() as patch:
        patch.setattr(bitops, "_INT64_MAX", 0)
        return _na_reports(m)


@pytest.mark.parametrize("offset, dtype", [(0, "int64"), (1, "object")])
@pytest.mark.parametrize(
    "heavy, verdict",
    [(0b01, "Holds"), (0b00, "Fails")],
    ids=["x1-heavy", "x1-rare"],
)
def test_na_int64_exactly_up_to_the_square_bound(
    offset, dtype, heavy, verdict, monkeypatch, record_dense_dtypes
):
    # one atom of weight D - 2 puts d * joint_a and wa * wl within 2D of D^2;
    # the other two atoms are {x2 = 1} and {x1 = x2 = 1}.  At x1 = 1 the
    # measure holds; at the origin it fails with Cov[X1, X2] = (D - 2) / D^2
    d = NA_INT64_DENOMINATOR + offset
    assert (d * d <= bitops._INT64_MAX) is (offset == 0)
    m = ExplicitMeasure._from_weights(2, {heavy: d - 2, 0b10: 1, 0b11: 1})
    assert m.scaled_weights()[0] == d
    dtypes = record_dense_dtypes()
    got = _na_reports(m)
    assert dtypes == {np.dtype(dtype)}
    assert [doc["verdict"] for doc in got] == [verdict, verdict]
    if verdict == "Fails":
        assert got[0]["certificate"]["covariance"] == str(Fraction(d - 2, d * d))
    assert _but_closures(got) == _but_closures(_forced_object_reports(m, monkeypatch))


def _large_failing(n, rng):
    """A measure with 2^20 < D <= isqrt(2^63 - 1) that often fails NA or
    CNA: weights up to 2^26 on a random support, or a conditioned sum
    scaled past 2^21 with one atom nudged.  Draws again while D, in
    lowest terms, is out of that range."""
    while True:
        if rng.random() < 0.5:
            weights = {x: rng.randint(1, 1 << 26) for x in range(1 << n) if rng.random() < 0.7}
        else:
            probs = [Fraction(rng.randint(1, 6), 7) for _ in range(n)]
            d, base = family_conditioned_sum(probs, 1, rng.randint(2, n - 1)).scaled_weights()
            scale = (1 << 21) // d + 1
            weights = {x: scale * w for x, w in base.items()}
            weights[rng.choice(sorted(weights))] += rng.choice((-1, 1)) * rng.randint(1, scale - 1)
        m = ExplicitMeasure._from_weights(n, weights) if weights else None
        if m is not None and 1 << 20 < m.scaled_weights()[0] <= NA_INT64_DENOMINATOR:
            return m


def test_na_product_path_matches_closures_above_two_to_the_twenty(
    monkeypatch, record_dense_dtypes
):
    # the int64 product over B against one closure per up-set row of A, on
    # seeded measures that the old 2^20 limit sent down the closure path
    rng = random.Random(17)
    measures = [_large_failing(3 + trial % 3, rng) for trial in range(60)]
    dtypes = record_dense_dtypes()
    reports = [_na_reports(m) for m in measures]
    assert dtypes == {np.dtype(np.int64)}
    verdicts = []
    for m, got in zip(measures, reports):
        assert _but_closures(got) == _but_closures(_forced_object_reports(m, monkeypatch))
        assert got[0]["work"]["closures"] == 0
        verdicts.append((got[0]["verdict"], got[1]["verdict"]))
    assert verdicts.count(("Fails", "Fails")) >= 10
    assert verdicts.count(("Holds", "Fails")) >= 5


# -- conditional negative association ---------------------------------------


def test_cna_holds_on_nand():
    for n in (3, 4, 6):
        assert check_cna(family_nand(n)).verdict is Verdict.HOLDS


def test_cna_pos_pair_fails_at_empty_conditioning():
    rep = check_cna(family_pos_pair())
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["K"] == []
    assert cert["values"] == ""
    assert cert["I"] == [1] and cert["J"] == [2]
    assert parse_rational(cert["covariance"]) == Fraction(1, 4)


def test_cna_finds_conditional_violation():
    # NA at the top level but positively correlated once X1 = 0 is
    # revealed: Cov[X2, X3 | X1=0] = 3/11 - (5/11)(6/11) = 3/121 > 0.
    from negdep.measure import new_explicit

    m = new_explicit(
        3,
        [
            ("000", Fraction(3, 23)),
            ("100", Fraction(4, 23)),
            ("010", Fraction(2, 23)),
            ("110", Fraction(4, 23)),
            ("001", Fraction(3, 23)),
            ("101", Fraction(4, 23)),
            ("011", Fraction(3, 23)),
        ],
    )
    top = check_neg_association(m)
    assert top.verdict is Verdict.HOLDS
    rep = check_cna(m)
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["K"] == [1]
    assert cert["values"] == "0"
    # indices in the inner witness refer to the original variables
    assert cert["I"] == [2]
    assert cert["J"] == [3]
    assert parse_rational(cert["covariance"]) == Fraction(3, 121)
    # recompute the conditional covariance from scratch
    c = m.condition(Assignment.of({1: 0}))
    assert covariance(c, 1, 2) == Fraction(3, 121)


# -- negative regression -----------------------------------------------------


def test_nr_nand_holds():
    for n in (3, 4, 5):
        rep = check_neg_regression(family_nand(n))
        assert rep.verdict is Verdict.HOLDS, n


def test_nr_pos_pair_fails():
    rep = check_neg_regression(family_pos_pair())
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["J"] == [1]
    assert cert["a"] == "0"
    assert cert["b"] == "1"
    assert cert["free_indices"] == [2]
    assert cert["down_set"] == ["0"]
    assert parse_rational(cert["lower_mass"]) == 0
    assert parse_rational(cert["upper_mass"]) == 1


def test_nr_hadamard4_fails():
    rep = check_neg_regression(family_hadamard(4))
    assert rep.verdict is Verdict.FAILS
    assert rep.certificate is not None


def recheck_nr_certificate(m, cert):
    """The certificate names two adjacent conditionings; the law at the
    higher one must put strictly less mass on the down-set."""
    J = cert["J"]
    a_bits = cert["a"]
    b_bits = cert["b"]
    lower_law = m.condition(
        Assignment.of({j: int(b_bits[t]) for t, j in enumerate(J)})
    )
    upper_law = m.condition(
        Assignment.of({j: int(a_bits[t]) for t, j in enumerate(J)})
    )
    down = [mask_from_bits(b) for b in cert["down_set"]]
    assert is_down_closed(down, lower_law.n)
    lm = sum((lower_law.prob(x) for x in down), Fraction(0))
    um = sum((upper_law.prob(x) for x in down), Fraction(0))
    assert lm == parse_rational(cert["lower_mass"])
    assert um == parse_rational(cert["upper_mass"])
    assert lm < um


def test_nr_certificates_recompute():
    for m in (family_pos_pair(), family_hadamard(4), family_hadamard(8)):
        rep = check_neg_regression(m)
        assert rep.verdict is Verdict.FAILS
        recheck_nr_certificate(m, rep.certificate)


def test_nr_cap_enforced():
    with pytest.raises(TooLarge):
        check_neg_regression(family_nand(11))


@pytest.mark.parametrize("check", [check_neg_regression, check_stochastic_covering])
def test_regression_checkers_one_variable_report_the_same_counters_as_two(check):
    one = check(family_independent([HALF]))
    two = check(family_independent([HALF] * 2))
    assert one.verdict is Verdict.HOLDS
    assert list(one.work_stats) == list(two.work_stats)
    assert set(one.work_stats.values()) == {0}


# -- stochastic covering -----------------------------------------------------


def test_sc_nand3_fails_with_hall_witness():
    rep = check_stochastic_covering(family_nand(3))
    assert rep.verdict is Verdict.FAILS
    cert = rep.certificate
    assert cert["I"] == [1]
    assert cert["a"] == "1"
    assert cert["a_prime"] == "0"
    assert cert["free_indices"] == [2, 3]
    assert cert["block"] == ["00"]
    assert cert["neighborhood"] == []
    assert parse_rational(cert["lower_mass"]) == Fraction(1, 3)
    assert parse_rational(cert["upper_mass"]) == 0


def test_sc_certificate_recomputes():
    m = family_nand(3)
    cert = check_stochastic_covering(m).certificate
    I = cert["I"]
    high = m.condition(Assignment.of({i: int(cert["a"][t]) for t, i in enumerate(I)}))
    low = m.condition(
        Assignment.of({i: int(cert["a_prime"][t]) for t, i in enumerate(I)})
    )
    block = [mask_from_bits(b) for b in cert["block"]]
    dim = low.n
    hood = {
        y
        for y, _ in low.items()
        if any(x & ~y == 0 and (x ^ y).bit_count() <= 1 for x in block)
    }
    assert hood == {mask_from_bits(b) for b in cert["neighborhood"]}
    lm = sum((high.prob(x) for x in block), Fraction(0))
    um = sum((low.prob(y) for y in hood), Fraction(0))
    assert lm == parse_rational(cert["lower_mass"])
    assert um == parse_rational(cert["upper_mass"])
    assert lm > um


def test_sc_holds_on_anti_and_independent():
    assert check_stochastic_covering(family_anti_pair()).verdict is Verdict.HOLDS
    assert (
        check_stochastic_covering(family_independent([HALF] * 3)).verdict
        is Verdict.HOLDS
    )


# -- Rayleigh falsifier ------------------------------------------------------


def test_rayleigh_pos_pair_violation_at_origin():
    m = family_pos_pair()
    rep = rayleigh_falsify(m)
    assert rep.verdict is Verdict.VIOLATION_FOUND
    cert = rep.certificate
    assert cert["i"] == 1 and cert["j"] == 2
    assert parse_rational(cert["delta"]) == Fraction(-1, 4)
    # the difference is constant in z for a pair, so it is -1/4 at the
    # origin as well
    poly = GeneratingPolynomial.of(m)
    assert poly.rayleigh_difference(1, 2, (Fraction(0), Fraction(0))) == Fraction(
        -1, 4
    )


def test_rayleigh_anti_and_independent_clean():
    assert rayleigh_falsify(family_anti_pair()).verdict is Verdict.NO_VIOLATION_FOUND
    assert (
        rayleigh_falsify(family_independent([HALF])).verdict
        is Verdict.NO_VIOLATION_FOUND
    )


def test_generating_polynomial_normalized():
    poly = GeneratingPolynomial.of(family_nand(3))
    assert poly.evaluate((Fraction(1), Fraction(1), Fraction(1))) == 1


def test_default_grid_small_n_is_lattice():
    grid = default_rayleigh_grid(2)
    assert len(grid) == 25
    assert (Fraction(0), Fraction(0)) in grid


def test_default_grid_large_n_is_seeded_sample():
    g1 = default_rayleigh_grid(6)
    g2 = default_rayleigh_grid(6)
    assert g1 == g2
    assert len(g1) == 1000


def test_default_grid_large_n_keeps_its_points():
    # the Fraction(numerator draw, denominator draw) points of the seeded rng
    for n in (6, 7):
        rng = random.Random(0)
        expect = [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))
            for _ in range(1000)
        ]
        assert default_rayleigh_grid(n) == expect


def test_rayleigh_empty_grid():
    rep = rayleigh_falsify(family_pos_pair(), grid=[])
    assert rep.verdict is Verdict.NO_VIOLATION_FOUND
    assert rep.work_stats == {"points": 0, "evaluations": 0}


def test_rayleigh_one_variable_has_no_pairs():
    one = family_independent([HALF])
    rep = rayleigh_falsify(one)
    assert rep.verdict is Verdict.NO_VIOLATION_FOUND
    assert rep.work_stats == {"points": 5, "evaluations": 0}
    with pytest.raises(DimensionMismatch):
        rayleigh_falsify(one, grid=[(0,), (1, 1)])


@pytest.mark.parametrize("before", [1, 40])
def test_rayleigh_bad_point_raises_when_reached(before):
    # hadamard_4 is clean at (-1, -1, -1) and not at (-2, -2, -2); after
    # `before` clean points, the violation and the bad point share a chunk
    m = family_hadamard(4)
    clean = [(-1, -1, -1)] * before
    for bad, error in [((1, 1), DimensionMismatch), (("x", 1, 1), ValueError)]:
        with pytest.raises(error):
            rayleigh_falsify(m, grid=clean + [bad, (-2, -2, -2)])
        # a violation found before the bad point is still returned
        grid = clean + [(-2, -2, -2), bad]
        rep = rayleigh_falsify(m, grid=grid)
        assert rep.verdict is Verdict.VIOLATION_FOUND
        assert rep.to_json() == _oracle_rayleigh(m, grid)


def test_rayleigh_difference_formula():
    # delta_ij = G10 G01 - G00 G11 where Gab fixes z_i = a, z_j = b
    m = family_nand(3)
    poly = GeneratingPolynomial.of(m)
    z = (Fraction(2), Fraction(-1), Fraction(1, 2))

    def G(zi, zj):
        return poly.evaluate((zi, zj, z[2]))

    expect = G(Fraction(1), Fraction(0)) * G(Fraction(0), Fraction(1)) - G(
        Fraction(0), Fraction(0)
    ) * G(Fraction(1), Fraction(1))
    assert poly.rayleigh_difference(1, 2, z) == expect



def _oracle_rayleigh(m, grid=None) -> dict:
    """The Rayleigh report, one Fraction evaluation at a time."""
    poly = GeneratingPolynomial.of(m)
    grid = default_rayleigh_grid(m.n) if grid is None else grid
    evaluations = 0
    for z in grid:
        if len(z) != m.n:
            raise DimensionMismatch("grid point has wrong length")
        zf = [Fraction(c) for c in z]
        for i, j in itertools.combinations(range(1, m.n + 1), 2):
            evaluations += 1
            delta = poly.rayleigh_difference(i, j, zf)
            if delta < 0:
                cert = {"i": i, "j": j, "z": [str(c) for c in zf], "delta": str(delta)}
                return _rayleigh_json("ViolationFound", cert, len(grid), evaluations)
    return _rayleigh_json("NoViolationFound", None, len(grid), evaluations)


def _rayleigh_json(verdict, cert, points, evaluations) -> dict:
    return {
        "notion": "RayleighFalsifier",
        "verdict": verdict,
        "certificate": cert,
        "work": {"points": points, "evaluations": evaluations},
    }


def _user_grid(rng, n, size):
    """Fraction and int coordinates mixed, the origin and ones included."""
    grid = [(0,) * n, (1,) * n]
    for _ in range(size):
        grid.append(
            tuple(
                rng.randint(-4, 4)
                if rng.random() < 0.5
                else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(n)
            )
        )
    return grid


@pytest.fixture(scope="module")
def rayleigh_cases():
    """(measure, grid or None, oracle report) over the catalog, seeded
    random measures with n = 1..6, and user grids."""
    rng = random.Random(41)
    cases = [(m, None) for m in zoo().values()]
    cases += [(random_measure(n, rng), None) for n in range(1, 7) for _ in range(4)]
    for m in [family_anti_pair(), family_nand(3), family_nand(4), family_hadamard(4)]:
        cases.append((m, _user_grid(rng, m.n, 30)))
    for n in range(2, 6):
        m = random_measure(n, rng)
        cases.append((m, _user_grid(rng, n, 30)))
    return [(m, grid, _oracle_rayleigh(m, grid)) for m, grid in cases]


@pytest.mark.parametrize("force_object", [False, True])
def test_rayleigh_scan_matches_fraction_oracle(
    rayleigh_cases, force_object, monkeypatch
):
    if force_object:
        # no bound fits under 0, so every chunk takes the object path
        monkeypatch.setattr(bitops, "_INT64_MAX", 0)
    for m, grid, expect in rayleigh_cases:
        assert rayleigh_falsify(m, grid).to_json() == expect


def test_rayleigh_cases_cover_both_verdicts(rayleigh_cases):
    verdicts = [expect["verdict"] for _, _, expect in rayleigh_cases]
    assert verdicts.count("ViolationFound") >= 10
    assert verdicts.count("NoViolationFound") >= 10


@pytest.mark.parametrize(
    "denominator, dtype", [((1 << 30) - 1, "int64"), ((1 << 30) + 1, "object")]
)
def test_rayleigh_int64_only_below_the_bound(denominator, dtype, monkeypatch):
    # at n = 3 on the lattice (M = 2) the bound is 2 (D * 2)^2, so D = 2^30 - 1
    # is the largest denominator on int64; G'10 = G'01 = D - 1 at z = (2, 2, 2)
    # makes |Delta'| about 2^60, close to the bound
    tiny = Fraction(1, denominator)
    m = ExplicitMeasure.from_atoms(
        3,
        [
            ("101", (1 - tiny) / 2),
            ("011", (1 - tiny) / 2),
            ("111", tiny),
        ],
    )
    assert m.scaled_weights()[0] == denominator
    original = dependence._exact_dtype
    chosen = []

    def recording(bound):
        chosen.append(original(bound))
        return chosen[-1]

    monkeypatch.setattr(dependence, "_exact_dtype", recording)
    assert rayleigh_falsify(m).to_json() == _oracle_rayleigh(m)
    assert chosen and {np.dtype(t).name for t in chosen} == {dtype}


# -- hierarchy ---------------------------------------------------------------

CHECKS = {
    Notion.PAIRWISE_NC: check_pairwise_nc,
    Notion.CYLINDER: check_cylinder,
    Notion.NEG_ASSOCIATION: check_neg_association,
    Notion.NEG_REGRESSION: check_neg_regression,
    Notion.CNA: check_cna,
    Notion.STOCHASTIC_COVERING: check_stochastic_covering,
}


def test_implication_list_shape():
    pairs = set(NOTION_IMPLICATIONS)
    assert (Notion.STOCHASTIC_COVERING, Notion.NEG_REGRESSION) in pairs
    assert (Notion.NEG_REGRESSION, Notion.CYLINDER) in pairs
    assert (Notion.NEG_ASSOCIATION, Notion.CYLINDER) in pairs
    assert (Notion.CYLINDER, Notion.PAIRWISE_NC) in pairs
    assert (Notion.CNA, Notion.NEG_ASSOCIATION) in pairs
    assert (Notion.CNA, Notion.NEG_REGRESSION) in pairs


def test_hierarchy_on_random_measures(rng):
    for trial in range(60):
        n = rng.randint(2, 4)
        m = random_measure(n, rng)
        verdicts = {
            notion: CHECKS[notion](m).ok for notion in CHECKS
        }
        for stronger, weaker in NOTION_IMPLICATIONS:
            if verdicts[stronger]:
                assert verdicts[weaker], (
                    trial,
                    stronger,
                    weaker,
                    dict(m.items()),
                )


def test_nr_survives_conditioning_on_nand():
    # conditioning a NAND measure on any single variable keeps NR
    m = family_nand(5)
    for i in range(1, 6):
        for v in (0, 1):
            c = m.condition(Assignment.of({i: v}))
            assert check_neg_regression(c).verdict is Verdict.HOLDS, (i, v)
