import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import negdep.bitops as bitops
import negdep.dependence as dependence
from negdep.bitops import bits_from_mask, mask_from_bits
from negdep.coupling import is_down_closed
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
    random_measure,
    zoo,
)
from negdep.upsets import upset_matrix

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
    key = "na" if checker is check_neg_association else "cna"
    assert str(refusal.value) == f"n=12 exceeds the {key} cap 11"


CAPPED_CHECKERS = {
    "cyl": check_cylinder,
    "na": check_neg_association,
    "cna": check_cna,
    "nr": check_neg_regression,
    "sc": check_stochastic_covering,
    "rayleigh": rayleigh_falsify,
}


def test_every_capped_checker_is_in_the_cap_table():
    assert set(CAPPED_CHECKERS) == set(bitops._DEFAULT_CAPS) - {"measure", "tree"}
    for key, checker in CAPPED_CHECKERS.items():
        assert dependence.NOTION_RUNNERS[key] is checker


@pytest.mark.parametrize("key", sorted(CAPPED_CHECKERS))
def test_capped_checker_refuses_with_the_cap_table_message(key, monkeypatch):
    m = family_nand(5)
    monkeypatch.setenv("NEGDEP_MAX_N", "4")
    with pytest.raises(TooLarge) as refusal:
        CAPPED_CHECKERS[key](m)
    assert str(refusal.value) == f"n=5 exceeds the {key} cap 4"


def test_rayleigh_cap_bounds_only_the_default_grid(monkeypatch):
    m = family_nand(5)
    monkeypatch.setenv("NEGDEP_MAX_N", "4")
    rep = rayleigh_falsify(m, grid=[(1,) * 5])
    assert rep.work_stats == {"points": 1, "evaluations": 10}


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


# the smallest D at which NA's product leaves its two int64 limbs for closures
NA_LIMB_DENOMINATOR = 1 << 60


@pytest.mark.parametrize(
    "d, closures",
    [
        (NA_INT64_DENOMINATOR, 0),  # one int64 pass
        (NA_INT64_DENOMINATOR + 1, 0),  # two limbs
        (NA_LIMB_DENOMINATOR - 1, 0),  # two limbs
        (NA_LIMB_DENOMINATOR, 1),  # one closure, on Python ints
    ],
    ids=["square-bound", "past-square-bound", "limb-bound", "past-limb-bound"],
)
@pytest.mark.parametrize(
    "heavy, verdict",
    [(0b01, "Holds"), (0b00, "Fails")],
    ids=["x1-heavy", "x1-rare"],
)
def test_na_int64_exactly_up_to_the_square_bound(
    d, closures, heavy, verdict, monkeypatch, record_dense_dtypes
):
    # one atom of weight D - 2 puts d * joint_a and wa * wl within 2D of D^2;
    # the other two atoms are {x2 = 1} and {x1 = x2 = 1}.  At x1 = 1 the
    # measure holds; at the origin it fails with Cov[X1, X2] = (D - 2) / D^2.
    # The dense weights are int64 on every path, since D fits
    assert (d * d <= bitops._INT64_MAX) is (d == NA_INT64_DENOMINATOR)
    m = ExplicitMeasure._from_weights(2, {heavy: d - 2, 0b10: 1, 0b11: 1})
    assert m.scaled_weights()[0] == d
    dtypes = record_dense_dtypes()
    got = _na_reports(m)
    assert dtypes == {np.dtype(np.int64)}
    assert [doc["verdict"] for doc in got] == [verdict, verdict]
    assert [doc["work"]["closures"] for doc in got] == [closures, closures]
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
        assert [doc["work"]["closures"] for doc in got] == [0, 0]
        verdicts.append((got[0]["verdict"], got[1]["verdict"]))
    assert verdicts.count(("Fails", "Fails")) >= 10
    assert verdicts.count(("Holds", "Fails")) >= 5


def _limb_range_measure(n, kind, rng):
    """A measure with isqrt(2^63 - 1) < D < 2^60, for NA's two-limb product.

    "product": a product of seeded per-coordinate weights near 2^(59/n) with
    one atom nudged by 1 to 3, so that every covariance is tiny against D^2
    and its sign rests on the low limbs and the carries.  "sparse": the same
    with about 40% of the atoms removed; a pattern of the larger side that
    no atom takes adds 0 to every B, so several B often tie at the maximum.
    "condsum": a conditioned sum scaled past 2^40 with one atom nudged,
    which NA often holds and CNA fails late.  Draws again while D, in
    lowest terms, is out of range."""
    while True:
        if kind == "condsum":
            probs = [Fraction(rng.randint(1, 6), 7) for _ in range(n)]
            d, base = family_conditioned_sum(probs, 1, rng.randint(2, n - 1)).scaled_weights()
            scale = (1 << 40) // d + rng.randint(1, 1 << 10)
            weights = {x: scale * w for x, w in base.items()}
            nudge = rng.randint(1, scale - 1)
        else:
            size = 1 << 59 // n
            sides = [(a := rng.randint(1, size - 1), size - a) for _ in range(n)]
            weights = {x: math.prod(side[x >> i & 1] for i, side in enumerate(sides))
                       for x in range(1 << n) if kind == "product" or rng.random() < 0.6}
            nudge = rng.randint(1, 3)
        if weights:
            weights[rng.choice(sorted(weights))] += rng.choice((-1, 1)) * nudge
            m = ExplicitMeasure._from_weights(n, weights)
            if NA_INT64_DENOMINATOR < m.scaled_weights()[0] < NA_LIMB_DENOMINATOR:
                return m


def _maximizers(m, cert):
    """How many up-sets B of the certificate's J reach the largest
    covariance with its A, on Python ints."""
    d, w = m.scaled_weights()
    a_points = {mask_from_bits(bits) for bits in cert["A"]}

    def pack(key, block):
        return sum(1 << t for t, i in enumerate(block) if key >> (i - 1) & 1)

    wa = sum(weight for key, weight in w.items() if pack(key, cert["I"]) in a_points)
    per_pattern = [0] * (1 << len(cert["J"]))
    for key, weight in w.items():
        in_a = pack(key, cert["I"]) in a_points
        per_pattern[pack(key, cert["J"])] += d * weight * in_a - wa * weight
    covs = (upset_matrix(len(cert["J"])) @ np.array(per_pattern, dtype=object)).tolist()
    assert Fraction(max(covs), d * d) == parse_rational(cert["covariance"])
    return covs.count(max(covs))


@pytest.mark.parametrize("kind", ["product", "sparse", "condsum"])
def test_na_limb_path_matches_closures(kind, monkeypatch, record_dense_dtypes):
    # the two-limb product over B against one closure per up-set row of A:
    # the same verdicts and work counts, and certificates equal byte for
    # byte, also where several B reach the largest covariance
    rng = random.Random(24)
    measures = [_limb_range_measure(3 + trial % 4, kind, rng) for trial in range(24)]
    dtypes = record_dense_dtypes()
    reports = [_na_reports(m) for m in measures]
    assert dtypes == {np.dtype(np.int64)}
    verdicts, ties = [], 0
    for m, got in zip(measures, reports):
        expected = _forced_object_reports(m, monkeypatch)
        assert _but_closures(got) == _but_closures(expected)
        assert [json.dumps(doc["certificate"]) for doc in got] == [
            json.dumps(doc["certificate"]) for doc in expected]
        assert [doc["work"]["closures"] for doc in got] == [0, 0]
        verdicts.append((got[0]["verdict"], got[1]["verdict"]))
        if got[0]["certificate"] is not None:
            ties += _maximizers(m, got[0]["certificate"]) > 1
    if kind == "condsum":  # whole scans that hold, and CNA failing on a conditional
        assert verdicts.count(("Holds", "Holds")) >= 10
        assert verdicts.count(("Holds", "Fails")) >= 5
    else:
        assert verdicts.count(("Fails", "Fails")) >= 20
    if kind == "sparse":
        assert ties >= 8


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


@pytest.mark.parametrize("n", range(2, 9))
def test_default_grid_is_the_grid_the_scan_reads(monkeypatch, n):
    scanned = []
    deltas = dependence._rayleigh_deltas

    def spy(bits, pairs, keep, weights, d, nums, dens, tables):
        scanned.extend(zip(nums, dens))
        return deltas(bits, pairs, keep, weights, d, nums, dens, tables)

    monkeypatch.setattr(dependence, "_rayleigh_deltas", spy)
    # a product measure is strongly Rayleigh, so the scan reads every point
    rep = rayleigh_falsify(family_independent([Fraction(1, 3)] * n))
    assert rep.verdict is Verdict.NO_VIOLATION_FOUND
    assert [tuple(map(Fraction, p, q)) for p, q in scanned] == default_rayleigh_grid(n)


def test_sampled_grid_is_drawn_once_per_n(monkeypatch):
    dependence._draws.cache_clear()
    head = list(itertools.islice(dependence._sampled_points(6), 3))
    full = default_rayleigh_grid(6)  # draws on from the fourth point
    assert [tuple(map(Fraction, p, q)) for p, q in head] == full[:3]

    def draw_again(*args):
        raise AssertionError("a kept point was drawn again")

    monkeypatch.setattr(random.Random, "randint", draw_again)
    assert default_rayleigh_grid(6) == full
    rep = rayleigh_falsify(family_independent([Fraction(1, 3)] * 6))
    assert rep.work_stats == {"points": 1000, "evaluations": 15000}


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


def _record_scan(monkeypatch):
    """Record each class table the scan builds as (width, dtype, limbs) and
    the dtype of each chunk's Delta'."""
    tables, deltas = [], []
    build, scan = dependence._class_table, dependence._rayleigh_deltas

    def class_table(bits, pairs, weights, width, shifts):
        table = build(bits, pairs, weights, width, shifts)
        tables.append((width, table.dtype.name, table.shape[2] // 4))
        return table

    def rayleigh_deltas(*args):
        out = scan(*args)
        deltas.append(out.dtype.name)
        return out

    monkeypatch.setattr(dependence, "_class_table", class_table)
    monkeypatch.setattr(dependence, "_rayleigh_deltas", rayleigh_deltas)
    return tables, deltas


@pytest.mark.parametrize("denominator", [(1 << 30) - 1, (1 << 30) + 1])
def test_rayleigh_int64_only_below_the_bound(denominator, monkeypatch):
    # at n = 3 on the lattice (M = 2) the bound is 2 (D * 2)^2, so D = 2^30 - 1
    # is the largest denominator of one int64 pass; G'10 = G'01 = D - 1 at
    # z = (2, 2, 2) makes |Delta'| about 2^60, close to the bound.  Above it
    # the class sums still run on int64, in one limb wide enough for D, and
    # only Delta' takes Python ints.
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
    tables, deltas = _record_scan(monkeypatch)
    assert rayleigh_falsify(m).to_json() == _oracle_rayleigh(m)
    # one limb as wide as D either way; only Delta' tells the passes apart
    width = denominator.bit_length()
    assert tables == [(width, "int64", 1)]
    assert set(deltas) == {"int64" if denominator < 1 << 30 else "object"}


def _probs(rng, n, bits):
    """n probabilities over distinct denominators of the given bit length."""
    dens = rng.sample(range(1 << (bits - 1), 1 << bits), n)
    return [Fraction(rng.randint(1, q - 1), q) for q in dens]


def _big_grid(rng, n, size):
    """Points whose numerators lie within 99 of +-2^20."""
    return [
        tuple(
            Fraction(rng.choice((-1, 1)) * ((1 << 20) - rng.randint(0, 99)), rng.randint(1, 7))
            for _ in range(n)
        )
        for _ in range(size)
    ]


@pytest.fixture(scope="module")
def limb_cases():
    """(measure, grid or None, oracle report, "limbs" or "object") where D
    or the coordinates push the scan past one int64 pass: seeded products
    and conditioned sums at n = 4..7 with D in (2^31, 2^62) and above 2^64,
    numerators near 2^20, and a support whose lowest limbs are all ones."""
    rng = random.Random(2024)
    cases = []
    for n in range(4, 8):
        for bits, low, high in [(56 // n + 1, 31, 62), (80 // n + 1, 64, 200)]:
            probs = _probs(rng, n, bits)
            product = family_independent(probs)
            narrow = family_conditioned_sum(probs, 1, 2)  # strongly Rayleigh
            wide = family_conditioned_sum(probs, 1, n - 1)  # refuted early
            for m in [product, narrow, wide, family_conditioned_sum(probs, 2, n - 1)]:
                assert low < m.scaled_weights()[0].bit_length() <= high
                cases.append((m, _user_grid(rng, n, 6), "limbs"))
            # full scans of the default grid only at n = 4: the oracle takes
            # seconds above
            for m in [wide] + ([product, narrow] if n == 4 else []):
                cases.append((m, None, "limbs"))
        # numerators near 2^20: narrow limbs at n = 4, no limb at all above
        m = family_conditioned_sum(_probs(rng, n, 72 // n + 1), 1, n - 1)
        cases.append((m, _big_grid(rng, n, 6), "limbs" if n == 4 else "object"))
    # at z = (1, ..., 1) nine atoms of class (x1, x2) = (1, 1) each add an
    # all-ones lowest limb, so one bit more of limb width overflows int64
    full = (1 << 61) - 1
    atoms = [(0, full - 1)] + [(0b11 | rest << 2, full) for rest in range(9)]
    m = ExplicitMeasure._from_weights(6, dict(atoms))
    cases.append((m, [(1,) * 6], "limbs"))
    # at n = 2 no coordinate enters a product, but the factors are still built
    cases.append((family_pos_pair(), [(Fraction(1 << 70, 3), -(1 << 80))], "object"))
    return [(m, grid, _oracle_rayleigh(m, grid), path) for m, grid, path in cases]


def test_rayleigh_limbs_match_fraction_oracle(limb_cases, monkeypatch):
    tables, deltas = _record_scan(monkeypatch)
    for m, grid, expect, path in limb_cases:
        first = len(tables)
        deltas.clear()
        assert rayleigh_falsify(m, grid).to_json() == expect
        assert set(deltas) == {"object"}
        built = tables[first:]
        if path == "limbs":
            assert built and all(width and dtype == "int64" for width, dtype, _ in built)
        else:
            assert {width for width, _, _ in built} == {0}
    # several narrow limbs somewhere
    assert max(limbs for _, _, limbs in tables) >= 4
    assert min(width for width, _, _ in tables if width) < 20
    verdicts = [expect["verdict"] for _, _, expect, _ in limb_cases]
    assert verdicts.count("ViolationFound") >= 10
    assert verdicts.count("NoViolationFound") >= 10


def test_rayleigh_atom_blocks_match_fraction_oracle(rayleigh_cases, limb_cases, monkeypatch):
    # with 16 elements per temporary every point is its own chunk, the atoms
    # come in blocks of a few, and a measure of more than 16 atoms builds
    # the class table of each block afresh
    monkeypatch.setattr(dependence, "_SCAN_ELEMENTS", 16)
    for m, grid, expect, *_ in rayleigh_cases + limb_cases:
        assert rayleigh_falsify(m, grid).to_json() == expect


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


def _hierarchy_draws(rng):
    """Random measures at n = 2..4, which above n = 2 almost never satisfy
    any notion, then seeded products, conditioned sums of width 1 and
    nand at n = 3..6, and conditioned sums of width 2 (three ranks) at
    n = 4..6, which satisfy most."""
    for _ in range(60):
        yield random_measure(rng.randint(2, 4), rng)
    for n in range(3, 7):
        for _ in range(4):
            yield family_independent([Fraction(rng.randint(0, 7), 7) for _ in range(n)])
            lo = rng.randint(0, n - 1)
            yield family_conditioned_sum([Fraction(rng.randint(1, 6), 7) for _ in range(n)],
                                         lo, lo + 1)
        yield family_nand(n)
    # three-rank truncations: products conditioned on lo <= sum <= lo + 2
    for n in range(4, 7):
        for _ in range(6):
            lo = rng.randint(0, n - 2)
            yield family_conditioned_sum([Fraction(rng.randint(1, 6), 7) for _ in range(n)],
                                         lo, lo + 2)


def test_hierarchy_on_random_measures(rng):
    premises_held = dict.fromkeys((stronger for stronger, _ in NOTION_IMPLICATIONS), 0)
    for trial, m in enumerate(_hierarchy_draws(rng)):
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
        for stronger in premises_held:
            premises_held[stronger] += m.n >= 3 and verdicts[stronger]
    # every implication is tested above n = 2, not only on pairs
    assert min(premises_held.values()) >= 20, premises_held


def recheck_na_certificate(m, cert, I, J):
    """The covariance of the named up-sets, recomputed on m by
    `upset_indicator_cov`; I and J are the certificate's sides as
    indices of m."""
    cov = upset_indicator_cov(m, I, [mask_from_bits(b) for b in cert["A"]],
                              J, [mask_from_bits(b) for b in cert["B"]])
    assert cov == parse_rational(cert["covariance"])
    assert cov > 0


def recheck_cna_certificate(m, cert):
    """The conditional named by K and its values, with the certificate's
    original indices renumbered onto its free coordinates."""
    fixed = dict(zip(cert["K"], map(int, cert["values"])))
    free = [i for i in range(1, m.n + 1) if i not in fixed]
    recheck_na_certificate(m.condition(Assignment.of(fixed)), cert,
                           [free.index(i) + 1 for i in cert["I"]],
                           [free.index(j) + 1 for j in cert["J"]])


def test_cylinder_does_not_imply_na_or_nr():
    m = ExplicitMeasure.from_atoms(3, [
        ("000", "1/17"), ("001", "1/17"), ("010", "4/17"), ("011", "2/17"),
        ("100", "1/17"), ("101", "2/17"), ("110", "6/17"),
    ])
    assert check_cylinder(m).verdict is Verdict.HOLDS
    na, nr = check_neg_association(m), check_neg_regression(m)
    assert (na.verdict, nr.verdict) == (Verdict.FAILS, Verdict.FAILS)
    assert na.certificate == {"I": [1], "J": [2, 3], "A": ["1"], "B": ["10", "01", "11"],
                              "covariance": "1/289"}
    recheck_na_certificate(m, na.certificate, na.certificate["I"], na.certificate["J"])
    assert (nr.certificate["J"], nr.certificate["a"], nr.certificate["b"]) == ([1], "0", "1")
    recheck_nr_certificate(m, nr.certificate)


def test_na_and_cylinder_do_not_imply_nr_or_cna():
    # weights over 112 on masks, where bit i - 1 is x_i
    m = ExplicitMeasure.from_atoms(4, [
        (bits_from_mask(mask, 4), f"{w}/112") for mask, w in zip(
            (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12), (1, 3, 4, 24, 3, 9, 12, 4, 24, 16, 12))
    ])
    assert check_neg_association(m).verdict is Verdict.HOLDS
    assert check_cylinder(m).verdict is Verdict.HOLDS
    nr, cna = check_neg_regression(m), check_cna(m)
    assert (nr.verdict, cna.verdict) == (Verdict.FAILS, Verdict.FAILS)
    assert (nr.certificate["J"], nr.certificate["a"], nr.certificate["b"]) == (
        [1, 2, 3], "000", "100")
    recheck_nr_certificate(m, nr.certificate)
    assert cna.certificate == {"K": [2, 3], "values": "00", "I": [1], "J": [4],
                               "A": ["1"], "B": ["1"], "covariance": "3/256"}
    recheck_cna_certificate(m, cna.certificate)


def test_nr_survives_conditioning_on_nand():
    # conditioning a NAND measure on any single variable keeps NR
    m = family_nand(5)
    for i in range(1, 6):
        for v in (0, 1):
            c = m.condition(Assignment.of({i: v}))
            assert check_neg_regression(c).verdict is Verdict.HOLDS, (i, v)
