"""Negative regression and stochastic covering against a pair-by-pair oracle.

The checkers flow-check the covering pairs only, solving each distinct
pair of conditional laws once per call.  The oracle below runs one
transport per examined pair, decides equal laws by cross-multiplying the
raw bucket weights, and, for negative regression, also examines every
distant pair of positive assignments that no chain of positive covering
steps joins.  Like the checkers, it skips each conditioning set with the
same count in every symmetry class (`test_symmetry.oracle_classes`) as a
set visited before.  Verdicts, certificates and all other work counters
must agree.  That the distant pairs never decide is the lemma in
`check_neg_regression`'s docstring, tested here without the library.
"""

import random
from fractions import Fraction

import pytest

from negdep.bitops import bits_from_mask, indices_of, subsets_lex
from negdep.coupling import covering_cut, down_set_certificate, transport
from negdep.dependence import Verdict, check_neg_regression, check_stochastic_covering
from negdep.measure import (
    ExplicitMeasure,
    family_conditioned_sum,
    family_independent,
    family_nand,
    random_measure,
    zoo,
)

from test_cover_scan import _buckets_for
from test_symmetry import class_counts, oracle_classes
from test_dependence import recheck_nr_certificate

# counters that the per-call memo changes on purpose
MEMO_COUNTERS = ("flows_run", "repeated_laws_skipped")


def _packed(key, block_mask):
    """The bits of key on block_mask, packed in ascending position order."""
    return sum(1 << t for t, i in enumerate(indices_of(block_mask)) if key >> (i - 1) & 1)


def _raw_buckets(m, cond_mask):
    """{a: {free pattern: weight}} and {a: total}, weights as stored."""
    n = m.n
    _, w = m.scaled_weights()
    free_mask = ((1 << n) - 1) ^ cond_mask
    buckets, totals = {}, {}
    for key, weight in w.items():
        a = _packed(key, cond_mask)
        buckets.setdefault(a, {})[_packed(key, free_mask)] = weight
        totals[a] = totals.get(a, 0) + weight
    return buckets, totals


def _proportional(wa, ta, wb, tb):
    return wa.keys() == wb.keys() and all(wa[k] * tb == wb[k] * ta for k in wa)


def _fields(cert):
    doc = cert.to_json()
    del doc["kind"]
    return doc


def _unchained(positive, width):
    """The pairs a < b of positive assignments that no chain of positive
    covering steps joins, in (a, then b) order."""
    present = sorted(positive)
    pairs = []
    for a in present:
        reached, frontier = {a}, [a]
        while frontier:
            cur = frontier.pop()
            for pos in range(width):
                nxt = cur | (1 << pos)
                if nxt in positive and nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        pairs.extend((a, b) for b in present if not a & ~b and b not in reached)
    return pairs


def oracle_nr(m, classes):
    """Negative regression with one transport per examined pair, on the
    conditioning sets whose counts in `classes` were not seen before."""
    n = m.n
    work = dict.fromkeys(("conditioning_sets", "pairs_checked", "flows_run",
                          "equal_laws_skipped", "symmetric_skipped"), 0)
    seen = set()
    if n < 2:
        return Verdict.HOLDS, None, work

    def examine(j_indices, a, b, buckets, totals):
        work["pairs_checked"] += 1
        lower, lt, upper, ut = buckets[b], totals[b], buckets[a], totals[a]
        if _proportional(lower, lt, upper, ut):
            work["equal_laws_skipped"] += 1
            return None
        work["flows_run"] += 1
        li, ui = sorted(lower.items()), sorted(upper.items())
        res = transport(li, lt, ui, ut)
        if res.feasible:
            return None
        jl = len(j_indices)
        return {
            "J": list(j_indices),
            "a": bits_from_mask(a, jl),
            "b": bits_from_mask(b, jl),
            "free_indices": [i for i in range(1, n + 1) if i not in j_indices],
            **_fields(down_set_certificate(li, lt, ui, ut, res.left_cut, n - jl)),
        }

    for cond_mask in subsets_lex(n):
        jl = cond_mask.bit_count()
        if jl == n:
            continue
        if (key := class_counts(cond_mask, classes)) in seen:
            work["symmetric_skipped"] += 1
            continue
        seen.add(key)
        j_indices = indices_of(cond_mask)
        work["conditioning_sets"] += 1
        buckets, totals = _raw_buckets(m, cond_mask)
        covers = [
            (a, a | 1 << pos) for a in sorted(buckets) for pos in range(jl)
            if not a >> pos & 1 and a | 1 << pos in buckets
        ]
        # by the lemma no distant pair is left once the covering pairs pass
        for a, b in covers + _unchained(buckets, jl):
            cert = examine(j_indices, a, b, buckets, totals)
            if cert is not None:
                return Verdict.FAILS, cert, work
    return Verdict.HOLDS, None, work


def oracle_sc(m, classes):
    """Stochastic covering with one covering transport per examined pair,
    on the conditioning sets whose counts in `classes` were not seen before."""
    n = m.n
    work = dict.fromkeys(("conditioning_sets", "pairs_checked", "flows_run",
                          "equal_laws_skipped", "symmetric_skipped"), 0)
    seen = set()
    if n < 2:
        return Verdict.HOLDS, None, work
    for cond_mask in subsets_lex(n):
        il = cond_mask.bit_count()
        if il == n:
            continue
        if (key := class_counts(cond_mask, classes)) in seen:
            work["symmetric_skipped"] += 1
            continue
        seen.add(key)
        i_indices = indices_of(cond_mask)
        work["conditioning_sets"] += 1
        buckets, totals = _raw_buckets(m, cond_mask)
        for a_low in sorted(buckets):
            for pos in range(il):
                a_high = a_low | (1 << pos)
                if a_high == a_low or a_high not in buckets:
                    continue
                work["pairs_checked"] += 1
                lower, lt = buckets[a_high], totals[a_high]
                upper, ut = buckets[a_low], totals[a_low]
                if _proportional(lower, lt, upper, ut):
                    work["equal_laws_skipped"] += 1
                    continue
                work["flows_run"] += 1
                li, ui = sorted(lower.items()), sorted(upper.items())
                res = transport(li, lt, ui, ut, covering=True)
                if res.feasible:
                    continue
                cut = covering_cut(li, lt, ui, ut, res.left_cut, n - il)
                return Verdict.FAILS, {
                    "I": list(i_indices),
                    "a": bits_from_mask(a_high, il),
                    "a_prime": bits_from_mask(a_low, il),
                    "free_indices": [i for i in range(1, n + 1) if i not in i_indices],
                    **_fields(cut),
                }, work
    return Verdict.HOLDS, None, work


def _inputs():
    cases = dict(zoo())
    rng = random.Random(2024)
    for k in range(40):
        n = rng.randint(1, 6)
        cases[f"random{k}"] = random_measure(n, rng, max_weight=rng.choice([1, 3, 8]))
    half = Fraction(1, 2)
    cases["condsum_repeated_6"] = family_conditioned_sum([half] * 6, 2, 4)
    cases["condsum_repeated_7"] = family_conditioned_sum([Fraction(1, 3)] * 7, 1, 3)
    distinct = [Fraction(k, 11) for k in range(1, 7)]
    cases["condsum_distinct_6"] = family_conditioned_sum(distinct, 2, 3)
    cases["condsum_distinct_5"] = family_conditioned_sum(distinct[:5], 1, 3)
    big = [Fraction(1, 1009), Fraction(2, 1013), Fraction(3, 1019), Fraction(5, 1021)]
    cases["product_big"] = family_independent(big)
    cases["condsum_big"] = family_conditioned_sum(big + [Fraction(7, 1031)], 1, 3)
    cases["random_big"] = random_measure(5, random.Random(5), max_weight=1 << 40)
    return cases


INPUTS = _inputs()


def test_inputs_cover_large_denominators_and_both_verdicts():
    assert sum(m.scaled_weights()[0] > 1 << 20 for m in INPUTS.values()) >= 3
    verdicts = {check_neg_regression(m).verdict for m in INPUTS.values()}
    assert verdicts == {Verdict.HOLDS, Verdict.FAILS}


def _assert_counters_match(got, work):
    """Memo counters against the oracle's flows, every other counter equal."""
    got = dict(got)
    assert got["flows_run"] + got["repeated_laws_skipped"] == work["flows_run"]
    assert got["pairs_checked"] == (
        got["equal_laws_skipped"] + got["repeated_laws_skipped"] + got["flows_run"]
    )
    for key in MEMO_COUNTERS:
        got.pop(key)
    assert got == {key: value for key, value in work.items() if key != "flows_run"}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_nr_matches_oracle(name):
    m = INPUTS[name]
    rep = check_neg_regression(m)
    verdict, cert, work = oracle_nr(m, oracle_classes(m))
    assert rep.verdict is verdict
    assert rep.certificate == cert
    _assert_counters_match(rep.work_stats, work)
    if cert is not None:
        recheck_nr_certificate(m, cert)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_sc_matches_oracle(name):
    m = INPUTS[name]
    rep = check_stochastic_covering(m)
    verdict, cert, work = oracle_sc(m, oracle_classes(m))
    assert rep.verdict is verdict
    assert rep.certificate == cert
    _assert_counters_match(rep.work_stats, work)


def test_memo_runs_one_flow_per_distinct_pair_of_laws():
    work = check_neg_regression(family_nand(7)).work_stats
    assert work["flows_run"] == 16
    assert work["repeated_laws_skipped"] == 26


def test_canonical_laws_divide_out_the_bucket_gcd():
    # given x1 = 0 the free weights are 2 and 4, given x1 = 1 they are 3 and 6
    m = ExplicitMeasure._from_weights(2, {0b00: 2, 0b10: 4, 0b01: 3, 0b11: 6})
    laws = _buckets_for(m, 0b01)
    assert laws == {0: (((0, 1), (1, 2)), 3), 1: (((0, 1), (1, 2)), 3)}


# On {1,2,3} (free coordinate x4) the positive assignments are 000, 100,
# 110, 111 and 011.  000 reaches 100, 110 and 111 through positive covering
# steps, but 001 and 010 have probability zero, so the pair (000, 011) is
# distant and unchained; P[x4 = 1] is 1/2 given 000 and 1 given 011.  110
# is chained below 011, 111 above it.
BROKEN_CHAIN = ExplicitMeasure._from_weights(
    4,
    {
        0b0000: 1, 0b1000: 1,  # 000
        0b0001: 1, 0b1001: 1,  # 100
        0b0011: 1, 0b1011: 1,  # 110
        0b0111: 1, 0b1111: 1,  # 111
        0b1110: 2,             # 011, always x4 = 1
    },
)

# On {1,2,3,4} (free coordinate x5) the positive assignments are 0000,
# 1000, 1100, 0101 and 0011.  From 0000, 1100 is chained (through 1000)
# and the unchained pairs are (0000, 0101), which holds, and then
# (0000, 0011), which fails: P[x5 = 1] is 1/2, 0 and 1 given 0000, 0101
# and 0011.
TWO_UNCHAINED = ExplicitMeasure._from_weights(
    5,
    {
        0b00000: 1, 0b10000: 1,  # 0000
        0b00001: 1, 0b10001: 1,  # 1000
        0b00011: 1, 0b10011: 1,  # 1100
        0b01010: 2,              # 0101, always x5 = 0
        0b11100: 2,              # 0011, always x5 = 1
    },
)


def _covers_hold(m, cond_mask):
    """True iff every covering pair on cond_mask passes its transport."""
    buckets, totals = _raw_buckets(m, cond_mask)
    for a in buckets:
        for pos in range(cond_mask.bit_count()):
            b = a | 1 << pos
            if b != a and b in buckets:
                lower, upper = sorted(buckets[b].items()), sorted(buckets[a].items())
                if not transport(lower, totals[b], upper, totals[a]).feasible:
                    return False
    return True


def _proper_prefixes(cond_mask):
    """Masks of the proper prefixes of J's ascending index tuple."""
    prefixes = []
    while cond_mask.bit_count() > 1:
        cond_mask ^= 1 << (cond_mask.bit_length() - 1)
        prefixes.append(cond_mask)
    return prefixes


def _assert_a_prefix_fails(m, cond_mask, holds):
    """Assert that a proper prefix of cond_mask fails a covering pair;
    holds caches _covers_hold per prefix."""
    for prefix in _proper_prefixes(cond_mask):
        if prefix not in holds:
            holds[prefix] = _covers_hold(m, prefix)
        if not holds[prefix]:
            return
    raise AssertionError(f"unchained pair on {indices_of(cond_mask)}, prefixes hold")


def _unchained_sets(m):
    """The proper conditioning sets J of m that have an unchained pair,
    each asserted to have a proper prefix failing a covering pair."""
    found, holds = [], {}
    for cond_mask in subsets_lex(m.n):
        if cond_mask.bit_count() < m.n:
            buckets, _ = _raw_buckets(m, cond_mask)
            if _unchained(buckets, cond_mask.bit_count()):
                found.append(cond_mask)
                _assert_a_prefix_fails(m, cond_mask, holds)
    return found


def _lemma_inputs():
    yield from INPUTS.values()
    yield from (family_nand(n) for n in range(3, 9))
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(3, 7)
        ps = [Fraction(rng.randint(1, 9), 10) for _ in range(n)]
        lo = rng.randint(0, n - 1)
        yield family_conditioned_sum(ps, lo, rng.randint(lo, n))


def test_lemma_on_the_oracle_inputs_nand_and_conditioned_sums():
    assert sum(len(_unchained_sets(m)) for m in _lemma_inputs()) > 0


def _positive_assignments(cond_mask, n):
    """For each support of {0,1}^n, as a bitmask over the points, the
    bitmask of the assignments on cond_mask that it makes positive."""
    packed = [_packed(x, cond_mask) for x in range(1 << n)]
    masks = [0] * (1 << (1 << n))
    for support in range(1, len(masks)):
        low = support & -support
        masks[support] = masks[support ^ low] | 1 << packed[low.bit_length() - 1]
    return masks


def test_lemma_on_every_support_of_the_4_cube():
    # whether J has an unchained pair depends on the support only
    sets = [(j, _positive_assignments(j, 4)) for j in subsets_lex(4) if j != 0b1111]
    has_unchained = {}  # (J, bitmask of positive assignments) -> bool
    rng = random.Random(4)
    unchained = 0
    for support in range(1, 1 << 16):
        weights = {x: rng.randint(1, 3) for x in range(16) if support >> x & 1}
        m = ExplicitMeasure._from_weights(4, weights)
        holds = {}
        for cond_mask, positive in sets:
            key = cond_mask, positive[support]
            if key not in has_unchained:
                width = cond_mask.bit_count()
                present = [a for a in range(1 << width) if key[1] >> a & 1]
                has_unchained[key] = bool(_unchained(present, width))
            if has_unchained[key]:
                unchained += 1
                _assert_a_prefix_fails(m, cond_mask, holds)
    assert unchained == 47934


@pytest.mark.parametrize(
    "m, j_indices", [(BROKEN_CHAIN, [1, 2, 3]), (TWO_UNCHAINED, [1, 2, 3, 4])]
)
def test_nr_broken_chain_in_lexicographic_order(m, j_indices):
    # a proper prefix of the unchained pair's J fails a covering pair first
    assert sum(1 << (j - 1) for j in j_indices) in _unchained_sets(m)
    rep = check_neg_regression(m)
    verdict, cert, _ = oracle_nr(m, oracle_classes(m))
    assert rep.verdict is verdict is Verdict.FAILS
    assert rep.certificate == cert
    assert len(cert["J"]) < len(j_indices) and cert["J"] == j_indices[: len(cert["J"])]
    assert sum(x != y for x, y in zip(cert["a"], cert["b"])) == 1
    recheck_nr_certificate(m, cert)
