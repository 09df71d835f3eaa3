"""Decision procedures for negative-dependence notions, with certificates.

Every checker is exact: probabilities are handled as integer weights over
a common denominator D, so each verdict is a theorem about the input
measure, not a numerical observation.  A Fails verdict always carries a
certificate that can be re-verified from the raw measure alone:

  * pairwise:     a pair (i, j) with Cov[Xi, Xj] > 0;
  * cylinder:     a set S and the violated product inequality, both sides;
  * association:  up-sets A over I and B over J with Cov[1_A, 1_B] > 0;
  * regression:   (J, a, b) and a down-closed set where dominance fails;
  * covering:     (I, a, a') and a Hall-type infeasibility cut.

Arrays are int64 only behind a proven bound on their values: D for
negative regression and stochastic covering and for the weights that
negative association and CNA sum, D^2 for their covariances in one pass
(two 30-bit limbs take them below D = 2^60), D^n for the cylinder
check; the Rayleigh scan bounds each chunk of grid points.

The strong Rayleigh property only gets a falsifier: a grid search for a
point with negative Rayleigh difference.  It can refute, never certify.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .bitops import (
    SubsetExtractor, _exact_dtype, _limb_width, bits_from_mask, covering_steps,
    indices_of, refuse_over_cap, subsets_lex,
)
from .coupling import covering_cut, down_set_certificate, transport
from .errors import DimensionMismatch
from .measure import Assignment, ExplicitMeasure, format_rational
from .upsets import (
    ENUMERABLE_DIM,
    max_weight_upset,
    nontrivial_upsets,
    upset_matrix,
    upset_maxima,
    upset_members,
    upset_sums,
)

ZERO = Fraction(0)
_LIMB = 30  # bits per limb of `_limb_covariances`


def _dense_weights(m: ExplicitMeasure, power: int) -> tuple[int, np.ndarray]:
    """The common denominator D and the measure's read-only dense view of
    its weights, copied to Python ints only when D ** power, the caller's
    proven bound on the values it makes from them, overflows int64."""
    d = m.scaled_weights()[0]
    return d, m.dense().astype(_exact_dtype(d ** power), copy=False)


def _orbit_firsts(m: ExplicitMeasure, masks, work: dict, weight=lambda mask: 1):
    """Yield the masks in order but skip, adding its weight to
    ``work["symmetric_skipped"]``, each with the class counts of one yielded
    before; m's symmetry classes are built when a second mask is asked for."""
    masks = iter(masks)
    for first in masks:  # one round: the inner loop takes the other masks
        yield first
        classes = m.symmetry_classes()
        seen = {tuple((first & c).bit_count() for c in classes)}
        for mask in masks:
            if (key := tuple((mask & c).bit_count() for c in classes)) in seen:
                work["symmetric_skipped"] += weight(mask)
            else:
                seen.add(key)
                yield mask


class Notion(str, Enum):
    PAIRWISE_NC = "PairwiseNC"
    CYLINDER = "CylinderDep"
    NEG_ASSOCIATION = "NegAssociation"
    NEG_REGRESSION = "NegRegression"
    CNA = "CondNegAssociation"
    STOCHASTIC_COVERING = "StochasticCovering"
    RAYLEIGH = "RayleighFalsifier"


class Verdict(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    VIOLATION_FOUND = "ViolationFound"
    NO_VIOLATION_FOUND = "NoViolationFound"


@dataclass
class NotionReport:
    notion: Notion
    verdict: Verdict
    certificate: Optional[dict]
    work_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when nothing negative-dependence-violating was found."""
        return self.verdict in (Verdict.HOLDS, Verdict.NO_VIOLATION_FOUND)

    def to_json(self) -> dict:
        return {
            "notion": self.notion.value,
            "verdict": self.verdict.value,
            "certificate": self.certificate,
            "work": self.work_stats,
        }


def _report(notion: Notion, certificate: Optional[dict], work: dict) -> NotionReport:
    """A checker's report, its verdict read from whether it has a
    certificate: Fails with one, Holds without (for the Rayleigh falsifier,
    ViolationFound and NoViolationFound)."""
    fails, holds = ((Verdict.VIOLATION_FOUND, Verdict.NO_VIOLATION_FOUND)
                    if notion is Notion.RAYLEIGH else (Verdict.FAILS, Verdict.HOLDS))
    return NotionReport(notion, holds if certificate is None else fails, certificate, work)


# ---------------------------------------------------------------------------
# Pairwise negative correlation
# ---------------------------------------------------------------------------


def covariance(m: ExplicitMeasure, i: int, j: int) -> Fraction:
    """Exact Cov[Xi, Xj]."""
    d, w = m.scaled_weights()
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    wi = wj = wij = 0
    for key, weight in w.items():
        if key & bi:
            wi += weight
            if key & bj:
                wij += weight
        if key & bj:
            wj += weight
    return Fraction(d * wij - wi * wj, d * d)


def check_pairwise_nc(m: ExplicitMeasure) -> NotionReport:
    """Holds iff Cov[Xi, Xj] <= 0 for every pair i < j (vacuously for n < 2);
    the worst pair is the first of the largest covariance."""
    pairs = list(itertools.combinations(range(1, m.n + 1), 2))
    covs = [covariance(m, i, j) for i, j in pairs]
    cov = max(covs, default=ZERO)
    worst = list(pairs[covs.index(cov)]) if pairs else None
    work = {"pairs_checked": len(pairs), "worst_pair": worst,
            "worst_covariance": format_rational(cov) if pairs else None}
    cert = {"i": worst[0], "j": worst[1], "covariance": format_rational(cov)} if cov > 0 else None
    return _report(Notion.PAIRWISE_NC, cert, work)


# ---------------------------------------------------------------------------
# Negative cylinder dependence
# ---------------------------------------------------------------------------


def _lex_first(masks: np.ndarray) -> int:
    """The mask whose ascending index tuple is smallest (a prefix first):
    fix the lowest next index among the masks that extend the prefix."""
    prefix = 0
    while (rest := masks ^ prefix).all():
        lows = rest & -rest  # the lowest index past the prefix, as a bit
        low = lows.min()
        masks, prefix = masks[lows == low], prefix | int(low)
    return prefix


def check_cylinder(m: ExplicitMeasure) -> NotionReport:
    """Holds iff for every S with |S| >= 2, both
    P[Xi = 1 for i in S] <= prod P[Xi = 1] and the same with zeros.

    Row 0 is the ones side, row 1 the zeros side; the zeros side of S is
    the ones side of S on the complemented points (the reversed array).
    Both sides and all products are at most D^n, so int64 is exact while
    D^n fits; otherwise the arrays hold Python ints."""
    n = m.n
    refuse_over_cap("cyl", n)
    d, dense = _dense_weights(m, n)
    side = np.stack([dense, dense[::-1]])
    for pos in range(n):  # superset sums: the weight of {x >= S}
        pairs = side.reshape(2, -1, 2, 1 << pos)
        pairs[:, :, 0] += pairs[:, :, 1]
    singles = side[:, 1 << np.arange(n), None, None]
    prod = np.ones_like(side)  # the product of the singles over S
    card = np.zeros(1 << n, dtype=np.int64)  # |S|
    for pos in range(n):
        prod.reshape(2, -1, 2, 1 << pos)[:, :, 1] *= singles[:, pos]
        card.reshape(-1, 2, 1 << pos)[:, 1] += 1
    # D^(|S| - 1), and 0 at S empty: never bad for |S| <= 1
    scale = np.array([0] + [d ** k for k in range(n)], dtype=dense.dtype)[card]
    bad = side * scale > prod
    work = {"sets_checked": 2 * ((1 << n) - n - 1)}
    if not bad.any():
        return _report(Notion.CYLINDER, None, work)
    s = _lex_first(np.flatnonzero(bad.any(axis=0)))
    row = 0 if bad[0, s] else 1
    cert = {
        "S": list(indices_of(s)),
        "side": ("ones", "zeros")[row],
        "lhs": format_rational(Fraction(int(side[row, s]), d)),
        "rhs": format_rational(Fraction(int(prod[row, s]), d ** s.bit_count())),
    }
    return _report(Notion.CYLINDER, cert, work)


# ---------------------------------------------------------------------------
# Negative association
# ---------------------------------------------------------------------------


def upset_indicator_cov(
    m: ExplicitMeasure, I, A_masks, J, B_masks
) -> Fraction:
    """Exact Cov[1_A(X_I), 1_B(X_J)] for up-sets given as packed masks
    (bit t of a packed mask is the t-th smallest index of the block).

    The reference that NA certificates are checked against: it packs each
    atom's bits with its own loop, sharing nothing with `split`."""
    I = sorted(I)
    J = sorted(J)
    A = set(A_masks)
    B = set(B_masks)
    pa = pb = pab = ZERO
    for key, p in m.items():
        ina = sum(1 << t for t, i in enumerate(I) if key >> (i - 1) & 1) in A
        inb = sum(1 << t for t, j in enumerate(J) if key >> (j - 1) & 1) in B
        if ina:
            pa += p
            if inb:
                pab += p
        if inb:
            pb += p
    return pab - pa * pb


def _limb_covariances(d: int, x, wa, wb):
    """(hi, lo) on int64 with d x - wa wb = hi 2^60 + lo and 0 <= lo < 2^60,
    for d, x (rows A, columns B), wa (per A) and wb (per B) in [0, 2^60):
    on 30-bit limbs each product is below 2^60 and each limb sum below 2^62."""
    mask = (1 << _LIMB) - 1
    (d1, d0), (x1, x0), (a1, a0), (b1, b0) = (
        (v >> _LIMB, v & mask) for v in (d, x, wa[:, None], wb))
    c0 = d0 * x0 - a0 * b0
    c1 = d1 * x0 - a1 * b0 + d0 * x1 - a0 * b1 + (c0 >> _LIMB)
    c2 = d1 * x1 - a1 * b1 + (c1 >> _LIMB)
    return c2, (c1 & mask) << _LIMB | c0 & mask


def _na_violation(m: ExplicitMeasure, held: set):
    """First bipartition with positively correlated up-set indicators.

    Returns (certificate | None, work).  The scan fixes the smaller side,
    enumerates its nontrivial up-sets A in a deterministic order, and for
    each A maximizes the covariance over up-sets B of the other side,
    either by exact int64 sums over every B (dimension <= 5, D < 2^60;
    `upset_maxima` finds the row of A) or by one transport (always exact,
    any dimension); both pick the least maximizing B, as
    `nontrivial_upsets` order extends inclusion.  Each joint weight
    matrix is one `split` of the dense weights, which hold int64 while D
    fits and Python integers above it.

    D^2 bounds every value.  An entry of d * joint_a - wa * wl, or its sum
    over any set S of the other side's patterns (B, or either half of B),
    is D x - wa y with y <= D the weight of S, wa <= D that of A and
    0 <= x <= min(wa, y) that of both: it is in [-D^2, D^2].  While D^2
    fits int64 the sums take one pass; below D = 2^60 they form x and y
    and D x - wa y on two limbs; closures take Python ints past D^2.

    A bipartition's answer depends only on its joint weight matrix: `held`
    collects the keys (ds, dl, joint) of those that held, and a bipartition
    whose key is in it is skipped.  The scan returns on the first failure.
    The callers' cap keeps n <= 2 ENUMERABLE_DIM + 1, so the smaller side
    of every bipartition is enumerable.
    """
    n = m.n
    full = (1 << n) - 1
    work = {"bipartitions": 0, "upsets_tested": 0, "closures": 0,
            "repeated_joints_skipped": 0}
    d, dense = _dense_weights(m, 1)
    exact = _exact_dtype(d * d)  # int64 while D^2 fits
    # covariance is symmetric: anchor variable 1 on the I side (odd masks)
    for imask in range(1, full, 2):
        # the smaller side, I on a tie
        small_mask, large_mask = sorted((imask, full ^ imask), key=int.bit_count)
        ds, dl = small_mask.bit_count(), large_mask.bit_count()
        work["bipartitions"] += 1
        joint = SubsetExtractor(small_mask, n).split(dense)
        held_key = (ds, dl, joint.tobytes() if joint.dtype != object else tuple(joint.flat))
        if held_key in held:
            work["repeated_joints_skipped"] += 1
            continue
        wl = joint.sum(axis=0)
        u_small = upset_matrix(ds)
        joint_a = u_small @ joint          # weight of {X_s in A, X_l = b}
        wa = joint_a.sum(axis=1)
        work["upsets_tested"] += len(u_small)
        found = None  # (row of A, up-set mask of B, covariance times d^2)
        if (
            d < 1 << 2 * _LIMB  # so the dense weights, and joint, are int64
            and dl <= ENUMERABLE_DIM
            and len(u_small) * len(nontrivial_upsets(dl)) <= 1 << 22
        ):
            if exact is np.int64:
                weights = d * joint_a - wa[:, None] * wl[None, :]
                if (hits := np.flatnonzero(upset_maxima(weights, dl) > 0)).size:
                    row = int(hits[0])
                    covs = upset_sums(weights[row], dl)
                    col = int(np.argmax(covs))
                    found = row, nontrivial_upsets(dl)[col], int(covs[col])
            else:
                hi, lo = _limb_covariances(d, upset_sums(joint_a, dl), wa, upset_sums(wl, dl))
                if (hits := np.argwhere((hi > 0) | (hi == 0) & (lo > 0))).size:
                    row = int(hits[0, 0])
                    # the first maximum of hi 2^60 + lo: the first largest lo among the largest hi
                    col = int(np.argmax(np.where(hi[row] == hi[row].max(), lo[row], -1)))
                    cov = (int(hi[row, col]) << 2 * _LIMB) + int(lo[row, col])
                    found = row, nontrivial_upsets(dl)[col], cov
        else:
            weights = d * joint_a.astype(exact) - wa.astype(exact)[:, None] * wl[None, :]
            for row, row_weights in enumerate(weights):
                work["closures"] += 1
                best, chosen = max_weight_upset(list(map(int, row_weights)), dl)
                if best > 0:
                    found = row, sum(1 << p for p in chosen), best
                    break
        if found is not None:
            row, b_mask, cov = found
            a_mask = nontrivial_upsets(ds)[row]
            return {
                "I": list(indices_of(small_mask)),
                "J": list(indices_of(large_mask)),
                "A": [bits_from_mask(p, ds) for p in upset_members(a_mask, ds)],
                "B": [bits_from_mask(p, dl) for p in upset_members(b_mask, dl)],
                "covariance": format_rational(Fraction(cov, d * d)),
            }, work
        held.add(held_key)
    return None, work


def check_neg_association(m: ExplicitMeasure) -> NotionReport:
    """Holds iff Cov[1_A(X_I), 1_B(X_J)] <= 0 for every bipartition
    I + J = [n] and all up-sets A, B; up-sets stand in for all pairs of
    non-decreasing functions."""
    refuse_over_cap("na", m.n)
    return _report(Notion.NEG_ASSOCIATION, *_na_violation(m, set()))  # n < 2: no bipartition


# ---------------------------------------------------------------------------
# Conditional negative association
# ---------------------------------------------------------------------------


def check_cna(m: ExplicitMeasure) -> NotionReport:
    """Holds iff the measure and all of its positive-probability partial
    conditionals are negatively associated.  K runs in `subsets_lex` order,
    and a K, then a pattern of ones on K, with the class counts of one
    visited is skipped (`_orbit_firsts`): a swap that preserves the measure
    maps its conditionals onto the visited one's.  Skips count patterns."""
    refuse_over_cap("cna", m.n)
    work = dict.fromkeys(("conditionings_checked", "bipartitions", "closures",
                          "repeated_laws_skipped", "repeated_joints_skipped",
                          "symmetric_skipped"), 0)
    held_laws: set[ExplicitMeasure] = set()
    held_joints: set = set()
    ks = (0, *(s for s in subsets_lex(m.n) if s.bit_count() <= m.n - 2))
    for k_mask in _orbit_firsts(m, ks, work, lambda k: 1 << k.bit_count()):
        k_indices = indices_of(k_mask)
        klen = len(k_indices)
        # the ones of each pattern of K, in ascending order of the pattern
        ones = (sum(1 << (i - 1) for t, i in enumerate(k_indices) if p >> t & 1)
                for p in range(1 << klen))
        for one_mask in _orbit_firsts(m, ones, work):
            values = tuple(one_mask >> (i - 1) & 1 for i in k_indices)
            asg = Assignment(k_indices, values)
            if klen:
                if m.prob_of_assignment(asg) == 0:
                    continue
                sub = m.condition(asg)
            else:
                sub = m
            work["conditionings_checked"] += 1
            if sub in held_laws:
                work["repeated_laws_skipped"] += 1
                continue
            cert, inner = _na_violation(sub, held_joints)
            for key in ("bipartitions", "closures", "repeated_joints_skipped"):
                work[key] += inner[key]
            if cert is not None:
                keep = [i for i in range(1, m.n + 1) if i not in k_indices]
                # the conditional's I and J relabeled, in their places
                cert = {"K": list(k_indices), "values": "".join(map(str, values)), **cert,
                        "I": [keep[i - 1] for i in cert["I"]],
                        "J": [keep[j - 1] for j in cert["J"]]}
                return _report(Notion.CNA, cert, work)
            held_laws.add(sub)
    return _report(Notion.CNA, None, work)


# ---------------------------------------------------------------------------
# Negative regression and stochastic covering
# ---------------------------------------------------------------------------


def _first_failing_cover(m: ExplicitMeasure, covering: bool):
    """The first covering pair whose conditional laws admit no coupling.

    Walks the proper nonempty J in `subsets_lex` order and, on each, the
    positive a and b = a with one coordinate raised, in (a, then b) order;
    each pair moves the law given b onto the law given a by a transport
    (covering: one that moves at most one coordinate).  Per J the weights
    are split into one matrix (`split`), a row per assignment on J and a
    column per free pattern, and each row is divided by its gcd, so two
    assignments have the same conditional law iff their rows are equal:
    equal laws are told apart for all pairs at once and need no flow, nor
    does a pair of laws already shown feasible in this call (kept as
    pairs of law ids).  A law is the sorted tuple of (packed free pattern,
    weight) over its row's support and the row sum, built only for
    unequal pairs.

    A swap of coordinates preserving the measure maps the pairs on J onto
    those on its image, verdicts kept, so a set with the class counts of one
    visited, the first of its orbit in `subsets_lex`, is skipped.

    Returns (failure, work), failure None or (J mask, a, b, law given b,
    law given a, the failed TransportResult).
    """
    n = m.n
    work = dict.fromkeys((
        "conditioning_sets", "pairs_checked", "flows_run", "equal_laws_skipped",
        "repeated_laws_skipped", "symmetric_skipped",
    ), 0)
    ids: dict[tuple, int] = {}
    feasible: set[tuple[int, int]] = set()
    _, dense = _dense_weights(m, 1)  # no weight, gcd or row sum exceeds D
    proper = (s for s in subsets_lex(n) if s.bit_count() < n)
    for cond_mask in _orbit_firsts(m, proper, work):
        width = cond_mask.bit_count()
        work["conditioning_sets"] += 1
        split = SubsetExtractor(cond_mask, n).split(dense)
        g = np.gcd.reduce(split, axis=1)
        positive = g > 0
        split //= np.maximum(g, 1)[:, None]
        below, above = covering_steps(width)
        both = positive[below] & positive[above]
        below, above = below[both], above[both]
        unequal = np.flatnonzero((split[below] != split[above]).any(axis=1))
        table = split.tolist() if unequal.size else None
        laws = {}
        pairs = zip(unequal.tolist(), below[unequal].tolist(), above[unequal].tolist())
        # the i-th unequal pair is the k-th pair checked, after k - i equal ones
        for i, (k, a, b) in enumerate(pairs):
            for r in (a, b):
                if r not in laws:
                    row = table[r]
                    law = (tuple((col, w) for col, w in enumerate(row) if w), sum(row))
                    laws[r] = law, ids.setdefault(law, len(ids))
            (lower, lower_id), (upper, upper_id) = laws[b], laws[a]
            if (lower_id, upper_id) in feasible:
                work["repeated_laws_skipped"] += 1
                continue
            work["flows_run"] += 1
            res = transport(*lower, *upper, covering=covering)
            if not res.feasible:
                work["pairs_checked"] += k + 1
                work["equal_laws_skipped"] += k - i
                return (cond_mask, a, b, lower, upper, res), work
            feasible.add((lower_id, upper_id))
        work["pairs_checked"] += len(below)
        work["equal_laws_skipped"] += len(below) - len(unequal)
    return None, work


def _cover_report(m: ExplicitMeasure, covering: bool) -> NotionReport:
    """The negative regression report, or with `covering` the stochastic
    covering one: the first failing covering pair on a set J (SC calls it
    I), certified by a down-closed set where dominance fails (Strassen) or
    by a Hall-type cut of the covering flow.  NR names the pair a <= b, SC
    names the raised assignment a and the other a'."""
    n = m.n
    notion = Notion.STOCHASTIC_COVERING if covering else Notion.NEG_REGRESSION
    refuse_over_cap("sc" if covering else "nr", n)
    failure, work = _first_failing_cover(m, covering)
    if failure is None:
        return _report(notion, None, work)
    cond_mask, a, b, lower, upper, res = failure
    width = cond_mask.bit_count()
    witness = (covering_cut if covering else down_set_certificate)(
        *lower, *upper, res.left_cut, n - width)
    low, high = bits_from_mask(a, width), bits_from_mask(b, width)
    cert = {
        "I" if covering else "J": list(indices_of(cond_mask)),
        **({"a": high, "a_prime": low} if covering else {"a": low, "b": high}),
        "free_indices": list(indices_of(((1 << n) - 1) ^ cond_mask)),
        **{key: value for key, value in witness.to_json().items() if key != "kind"},
    }
    return _report(notion, cert, work)


def check_neg_regression(m: ExplicitMeasure) -> NotionReport:
    """Holds iff for every proper nonempty J and every pair a <= b of
    positive-probability assignments on J, the conditional law given a
    stochastically dominates the one given b.

    Only covering pairs (b raises one coordinate of a) are flow-checked:
    dominance composes along chains of positive covering steps, and on
    each J the scan reaches every pair is chained.  Lemma: if the covering pairs hold
    on every proper prefix of J, which `subsets_lex` visits before J, any
    positive a <= b on J are chained.  By induction on |J|, with m = max J
    and J' = J minus m: a|J' and b|J' are equal or chained on J' by some
    c_0, ..., c_k, and negative regression on J' with the up-set
    {x_m = 1} keeps P[x_m = 1 | c_t] from rising along it.  So if b_m = 1,
    every c_t extended by x_m = 1 is positive; if a_m = 0, every c_t
    extended by x_m = 0 is, and when b_m = 1 one last step raises x_m.
    Each distinct pair of laws gets one flow per call.  A set skipped as
    the image of one visited under a swap that preserves the measure
    holds, so every proper prefix of J still holds when J is reached.
    """
    return _cover_report(m, covering=False)


def check_stochastic_covering(m: ExplicitMeasure) -> NotionReport:
    """Holds iff for every I and covering pair a >= a' of positive
    assignments on I, the conditionals admit a coupling moving at most
    one coordinate: x ~ law given a, y ~ law given a', x <= y,
    |y - x| <= 1.  Each distinct pair of laws gets one flow per call."""
    return _cover_report(m, covering=True)


# ---------------------------------------------------------------------------
# Rayleigh falsifier
# ---------------------------------------------------------------------------


@dataclass
class GeneratingPolynomial:
    """The multi-affine generating polynomial F(z) = E[prod z_j^{X_j}]."""

    n: int
    coefficients: dict[int, Fraction]

    @classmethod
    def of(cls, m: ExplicitMeasure) -> "GeneratingPolynomial":
        return cls(m.n, dict(m.items()))

    def evaluate(self, z) -> Fraction:
        total = ZERO
        for key, p in self.coefficients.items():
            total += p * math.prod(z[i - 1] for i in indices_of(key))
        return total

    def rayleigh_difference(self, i: int, j: int, z) -> Fraction:
        """dF/dzi * dF/dzj - F * d2F/dzi dzj at z, for multi-affine F.

        Equals G10*G01 - G00*G11 where Gab collects the atoms with
        (x_i, x_j) = (a, b), each evaluated on the other coordinates; the
        z_i and z_j values drop out.
        """
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        g = [ZERO, ZERO, ZERO, ZERO]
        for key, p in self.coefficients.items():
            term = p
            k = key & ~(bi | bj)
            pos = 0
            while k:
                if k & 1:
                    zl = z[pos]
                    if zl == 0:
                        term = ZERO
                        break
                    term *= zl
                k >>= 1
                pos += 1
            else:
                g[(1 if key & bi else 0) | (2 if key & bj else 0)] += term
        return g[1] * g[2] - g[0] * g[3]


# the default grid: the lattice {-2..2}^n up to n = 5, seeded rationals above
_LATTICE = (-2, -1, 0, 1, 2)
_LATTICE_MAX_N = 5
_SAMPLE_POINTS = 1000
# elements in one temporary array of the Rayleigh scan
_SCAN_ELEMENTS = 1 << 12
_ONE_HOT = np.eye(4, dtype=bool)  # row x_i + 2 x_j: the (x_i, x_j) class
_CLASS_BITS = np.array([1, 2])


@lru_cache(maxsize=16)
def _draws(n: int) -> tuple[list, random.Random]:
    """The sampled points drawn so far for n, and their rng."""
    return [], random.Random(0)


def _sampled_points(n: int):
    """The seeded default grid for n > 5, as (numerators, denominators),
    each point drawn once per n, when a scan first reads it."""
    drawn, rng = _draws(n)
    for k in range(_SAMPLE_POINTS):
        if k == len(drawn):
            point = [(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
            drawn.append(tuple(zip(*point)))
        yield drawn[k]


def _default_points(n: int):
    """The default grid's size and its points as (numerators,
    denominators), the one source of the scan and of the grid below."""
    if n <= _LATTICE_MAX_N:
        ones = (1,) * n
        return len(_LATTICE) ** n, ((p, ones) for p in itertools.product(_LATTICE, repeat=n))
    return _SAMPLE_POINTS, _sampled_points(n)


def default_rayleigh_grid(n: int) -> list[tuple]:
    """The default grid as tuples of Fractions: the integer grid {-2..2}^n
    for n <= 5, otherwise 1000 seeded pseudo-random rational points."""
    return [tuple(map(Fraction, p, q)) for p, q in _default_points(n)[1]]


def _integer_points(grid, n: int):
    """A user grid's points as (numerators, denominators), in order.  A
    malformed point (wrong length, or a coordinate Fraction refuses) ends
    the stream: its error is the last item, for the scan to raise once
    the points before it are scanned."""
    for z in grid:
        try:
            if len(z) != n:
                raise DimensionMismatch("grid point has wrong length")
            zf = [Fraction(c) for c in z]
        except (DimensionMismatch, TypeError, ValueError, ArithmeticError) as exc:
            yield exc
            return
        yield tuple(int(c.numerator) for c in zf), tuple(int(c.denominator) for c in zf)


def _class_table(bits, pairs, weights, width, shifts):
    """(pairs, atoms, 4 * limbs): each atom's limbs (w >> shift) & (2^width - 1)
    on int64 in the columns of its (x_i, x_j) class of each pair; width 0
    keeps whole weights on Python ints.  A single limb is the whole weight."""
    limbs = ([[x >> s & (1 << width) - 1 for s in shifts] for x in weights]
             if shifts[1:] else weights)
    w = np.array(limbs, dtype=object if width == 0 else np.int64).reshape(len(weights), -1)
    onehot = _ONE_HOT[_CLASS_BITS @ bits[pairs, 0]]
    return (onehot[..., None] * w[:, None, :]).reshape(len(pairs), len(weights), -1)


def _rayleigh_deltas(bits, pairs, keep, weights, d: int, nums, dens, tables: dict):
    """Delta' = G'10 G'01 - G'00 G'11 for each point (rows) and pair
    (columns) of one chunk: one gather and one product give every pair's
    leave-two-out products, and one batched matrix product per block of
    atoms every class sum.

    Each leave-two-out product is at most M^(n-2), M the largest |p_l| or
    q_l in the chunk, and the weights sum to D, so every G' is at most
    D M^(n-2) and |Delta'| <= 2 (D M^(n-2))^2.  Below 2^63 all runs on
    int64.  Above it the weights are cut into the widest limbs whose class
    sums still fit int64 (`bitops._limb_width`), and Python ints appear only
    where the limbs are combined and in Delta'.  Where no limb fits, all
    runs on Python ints.  `tables` keeps the class tables of up to
    `_SCAN_ELEMENTS` atoms for the next chunks, by limb width; no limb is
    wider than D, so chunks with one limb share one table.
    """
    n = bits.shape[0]
    # M^(n-2), but M itself at n = 2, where the factors must still fit
    big = max(map(abs, itertools.chain(*nums, *dens))) ** max(n - 2, 1)
    one_pass = _exact_dtype(2 * (d * big) ** 2) is np.int64
    width = min(_limb_width(len(weights), big), d.bit_length())
    shifts = range(0, d.bit_length(), width) if width else (0,)
    if (whole := len(weights) <= _SCAN_ELEMENTS) and width not in tables:
        tables[width] = _class_table(bits, pairs, weights, width, shifts)
    dtype = object if width == 0 else np.int64
    # factors[l, point, atom]: p_l where the atom has x_l = 1, else q_l
    factors = np.where(bits, np.array(nums, dtype=dtype).T[:, :, None],
                       np.array(dens, dtype=dtype).T[:, :, None])
    block = max(1, _SCAN_ELEMENTS // (len(nums) * max(n - 2, 1)))
    for lo in range(0, len(weights), block):
        part = slice(lo, lo + block)
        table = (tables[width][:, part] if whole
                 else _class_table(bits[..., part], pairs, weights[part], width, shifts))
        terms = factors[keep, :, part].prod(axis=1) @ table
        g = g + terms if lo else terms
    if not one_pass:  # limb k counts 2^(k * width), per (pair, point, class)
        scales = np.array([1 << s for s in shifts], dtype=object)
        g = g.reshape(*g.shape[:2], 4, -1).astype(object) @ scales
    return (g[..., 1] * g[..., 2] - g[..., 0] * g[..., 3]).T


def rayleigh_falsify(m: ExplicitMeasure, grid=None) -> NotionReport:
    """Search the grid for a negative Rayleigh difference.

    ViolationFound carries (i, j, z, delta); NoViolationFound only means
    the grid was clean, never that the measure is strong Rayleigh.

    The scan is exact and integer.  With z_l = p_l / q_l and the integer
    weights w over the common denominator D, let G'_ab sum
    w * prod_{l != i, j} (p_l if x_l = 1 else q_l) over the atoms with
    (x_i, x_j) = (a, b).  Then Delta' = G'10 G'01 - G'00 G'11 is the
    Rayleigh difference times (D prod_{l != i, j} q_l)^2.  Points are
    scanned in grid order, pairs in lexicographic order, in chunks of
    1, 2, 4, ... points, so an early violation costs little.  A malformed
    point raises its error once the points before it are scanned clean.
    Each chunk takes a fixed handful of numpy calls, on int64 or int64
    weight limbs wherever `_rayleigh_deltas` proves that they fit.
    The default grid is refused above the rayleigh cap; a grid the caller
    passes is the caller's own bound.
    """
    n = m.n
    if grid is None:
        refuse_over_cap("rayleigh", n)
        points, source = _default_points(n)
    else:
        points, source = len(grid), _integer_points(grid, n)
    d, w = m.scaled_weights()
    # bits[l, 0, atom]: the atom's x_l
    bits = np.array([[[key >> l & 1 for key in w]] for l in range(n)], dtype=bool)
    weights = list(w.values())
    pairs = list(itertools.combinations(range(n), 2))
    keep = np.array([[l for l in range(n) if l not in p] for p in pairs], dtype=np.intp)
    tables = {}
    cap = max(1, _SCAN_ELEMENTS // (len(w) * n))
    cert, evaluations, size = None, 0, 1
    while True:
        chunk = list(itertools.islice(source, size))
        error = chunk.pop() if chunk and isinstance(chunk[-1], Exception) else None
        if chunk and pairs:
            nums, dens = zip(*chunk)
            deltas = _rayleigh_deltas(bits, pairs, keep, weights, d, nums, dens, tables)
            hits = np.flatnonzero(deltas < 0)
            if hits.size:
                first = int(hits[0])
                row, col = divmod(first, len(pairs))
                i, j = pairs[col]
                z = zip(nums[row], dens[row])
                scale = d * math.prod(dens[row][l] for l in keep[col])
                cert = {
                    "i": i + 1,
                    "j": j + 1,
                    "z": [format_rational(Fraction(p, q)) for p, q in z],
                    "delta": format_rational(Fraction(int(deltas[row, col]), scale**2)),
                }
                evaluations += first + 1
                break
            evaluations += deltas.size
        if error is not None:
            raise error
        if len(chunk) < size:
            break
        size = min(2 * size, cap)
    return _report(Notion.RAYLEIGH, cert, {"points": points, "evaluations": evaluations})


# ---------------------------------------------------------------------------
# Hierarchy and registry
# ---------------------------------------------------------------------------


# (antecedent, consequent): whenever the first Holds, the second must
NOTION_IMPLICATIONS = [
    (Notion.STOCHASTIC_COVERING, Notion.NEG_REGRESSION),
    (Notion.NEG_REGRESSION, Notion.CYLINDER),
    (Notion.NEG_ASSOCIATION, Notion.CYLINDER),
    (Notion.CYLINDER, Notion.PAIRWISE_NC),
    (Notion.CNA, Notion.NEG_ASSOCIATION),
    (Notion.CNA, Notion.NEG_REGRESSION),
]


# The one checker registry: --notions keys, in the order "all" runs them.
NOTION_RUNNERS = {
    "nc": check_pairwise_nc,
    "cyl": check_cylinder,
    "na": check_neg_association,
    "nr": check_neg_regression,
    "cna": check_cna,
    "sc": check_stochastic_covering,
    "rayleigh": rayleigh_falsify,
}


__all__ = [
    "Notion",
    "Verdict",
    "NotionReport",
    "GeneratingPolynomial",
    "covariance",
    "upset_indicator_cov",
    "check_pairwise_nc",
    "check_cylinder",
    "check_neg_association",
    "check_cna",
    "check_neg_regression",
    "check_stochastic_covering",
    "default_rayleigh_grid",
    "rayleigh_falsify",
    "NOTION_IMPLICATIONS",
]
