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
negative regression and stochastic covering, D^2 for negative
association and CNA, D^n for the cylinder check; the Rayleigh scan
bounds each chunk of grid points.

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
from typing import Optional

import numpy as np

from .bitops import (
    SubsetExtractor, _exact_dtype, bits_from_mask, cap, covering_steps, indices_of,
    subsets_lex,
)
from .coupling import covering_cut, down_set_certificate, transport
from .errors import DimensionMismatch, TooLarge
from .measure import Assignment, ExplicitMeasure, format_rational
from .upsets import (
    ENUMERABLE_DIM,
    max_weight_upset,
    nontrivial_upsets,
    upset_matrix,
    upset_members,
)

ZERO = Fraction(0)


def _dense_weights(m: ExplicitMeasure, power: int) -> tuple[int, np.ndarray]:
    """The common denominator D and the measure's read-only dense view of
    its weights, copied to Python ints only when D ** power, the caller's
    proven bound on the values it makes from them, overflows int64."""
    d = m.scaled_weights()[0]
    return d, m.dense().astype(_exact_dtype(d ** power), copy=False)


# The enumeration cap of each capped checker, by its `--notions` key.
CHECKER_CAPS = {"cyl": "cylinder", "na": "neg_association", "cna": "cna",
                "nr": "neg_regression", "sc": "stochastic_covering"}


def refuse_over_cap(key: str, n: int) -> None:
    """Raise TooLarge when n exceeds the cap of the checker `key` names."""
    name = CHECKER_CAPS.get(key)
    if name is not None and n > cap(name):
        raise TooLarge(f"n={n} exceeds the {name} cap {cap(name)}")


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
    if not pairs:
        work = {"pairs_checked": 0, "worst_pair": None, "worst_covariance": None}
        return NotionReport(Notion.PAIRWISE_NC, Verdict.HOLDS, None, work)
    covs = [covariance(m, i, j) for i, j in pairs]
    cov = max(covs)
    i, j = pairs[covs.index(cov)]
    work = {
        "pairs_checked": len(pairs),
        "worst_pair": [i, j],
        "worst_covariance": format_rational(cov),
    }
    if cov > 0:
        cert = {"i": i, "j": j, "covariance": format_rational(cov)}
        return NotionReport(Notion.PAIRWISE_NC, Verdict.FAILS, cert, work)
    return NotionReport(Notion.PAIRWISE_NC, Verdict.HOLDS, None, work)


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
        return NotionReport(Notion.CYLINDER, Verdict.HOLDS, None, work)
    s = _lex_first(np.flatnonzero(bad.any(axis=0)))
    row = 0 if bad[0, s] else 1
    cert = {
        "S": list(indices_of(s)),
        "side": ("ones", "zeros")[row],
        "lhs": format_rational(Fraction(int(side[row, s]), d)),
        "rhs": format_rational(Fraction(int(prod[row, s]), d ** s.bit_count())),
    }
    return NotionReport(Notion.CYLINDER, Verdict.FAILS, cert, work)


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


def _na_violation(m: ExplicitMeasure, held: set):
    """First bipartition with positively correlated up-set indicators.

    Returns (certificate | None, work).  The scan fixes the smaller side,
    enumerates its nontrivial up-sets A in a deterministic order, and for
    each A maximizes the covariance over up-sets B of the other side,
    either by an exact int64 matrix product (dimension <= 5) or by a
    max-weight-closure min-cut (always exact, any dimension).  Each joint
    weight matrix is one `split` of the dense weights, which hold int64
    while D^2 fits and Python integers above it; the matrix product over
    B runs only on int64.

    D^2 bounds every value.  An entry of d * joint_a - wa * wl, or its sum
    over any set S of the other side's patterns (a partial sum of the
    product over B), is D x - wa y with y <= D the weight of S, wa <= D
    that of A and 0 <= x <= min(wa, y) that of both: it is in [-D^2, D^2].

    A bipartition's answer depends only on its joint weight matrix: `held`
    collects the keys (ds, dl, joint) of those that held, and a bipartition
    whose key is in it is skipped.  The scan returns on the first failure.
    """
    n = m.n
    if n > 2 * ENUMERABLE_DIM + 1:  # then some bipartition has no enumerable side
        raise TooLarge(f"association check needs n <= {2 * ENUMERABLE_DIM + 1}, got n={n}")
    full = (1 << n) - 1
    work = {"bipartitions": 0, "upsets_tested": 0, "closures": 0,
            "repeated_joints_skipped": 0}
    d, dense = _dense_weights(m, 2)
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
        weights = d * joint_a - wa[:, None] * wl[None, :]
        work["upsets_tested"] += len(u_small)
        found = None  # (row of A, up-set mask of B, covariance times d^2)
        if (
            joint.dtype != object
            and dl <= ENUMERABLE_DIM
            and len(u_small) * len(nontrivial_upsets(dl)) <= 1 << 22
        ):
            covs = weights @ upset_matrix(dl).T
            hits = np.argwhere(covs > 0)
            if hits.size:
                row = int(hits[0, 0])
                col = int(np.argmax(covs[row]))
                found = row, nontrivial_upsets(dl)[col], int(covs[row, col])
        else:
            for row, row_weights in enumerate(weights):
                work["closures"] += 1
                best, chosen = max_weight_upset(list(map(int, row_weights)), dl)
                if best > 0:
                    found = row, sum(1 << p for p in chosen), best
                    break
        if found is not None:
            row, b_mask, cov = found
            a_mask = nontrivial_upsets(ds)[row]
            cov = Fraction(cov, d * d)
            return _na_certificate(n, small_mask, large_mask, a_mask, b_mask, cov), work
        held.add(held_key)
    return None, work


def _na_certificate(n, small_mask, large_mask, a_upset, b_upset, value) -> dict:
    ds, dl = small_mask.bit_count(), large_mask.bit_count()
    return {
        "I": list(indices_of(small_mask)),
        "J": list(indices_of(large_mask)),
        "A": [bits_from_mask(p, ds) for p in upset_members(a_upset, ds)],
        "B": [bits_from_mask(p, dl) for p in upset_members(b_upset, dl)],
        "covariance": format_rational(value),
    }


def check_neg_association(m: ExplicitMeasure) -> NotionReport:
    """Holds iff Cov[1_A(X_I), 1_B(X_J)] <= 0 for every bipartition
    I + J = [n] and all up-sets A, B; up-sets stand in for all pairs of
    non-decreasing functions."""
    refuse_over_cap("na", m.n)
    cert, work = _na_violation(m, set())  # n < 2 has no bipartition
    if cert is None:
        return NotionReport(Notion.NEG_ASSOCIATION, Verdict.HOLDS, None, work)
    return NotionReport(Notion.NEG_ASSOCIATION, Verdict.FAILS, cert, work)


# ---------------------------------------------------------------------------
# Conditional negative association
# ---------------------------------------------------------------------------


def check_cna(m: ExplicitMeasure) -> NotionReport:
    """Holds iff the measure and all of its positive-probability partial
    conditionals are negatively associated."""
    refuse_over_cap("cna", m.n)
    work = {"conditionings_checked": 0, "bipartitions": 0,
            "repeated_laws_skipped": 0, "repeated_joints_skipped": 0}
    held_laws: set[ExplicitMeasure] = set()
    held_joints: set = set()
    ks = [()] + [indices_of(s) for s in subsets_lex(m.n) if s.bit_count() <= m.n - 2]
    for k_indices in ks:
        klen = len(k_indices)
        for pattern in range(1 << klen):
            values = tuple(pattern >> t & 1 for t in range(klen))
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
            work["bipartitions"] += inner["bipartitions"]
            work["repeated_joints_skipped"] += inner["repeated_joints_skipped"]
            if cert is not None:
                keep = [i for i in range(1, m.n + 1) if i not in k_indices]
                # the conditional's I and J relabeled, in their places
                cert = {"K": list(k_indices), "values": "".join(map(str, values)), **cert,
                        "I": [keep[i - 1] for i in cert["I"]],
                        "J": [keep[j - 1] for j in cert["J"]]}
                return NotionReport(Notion.CNA, Verdict.FAILS, cert, work)
            held_laws.add(sub)
    return NotionReport(Notion.CNA, Verdict.HOLDS, None, work)


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

    Returns (failure, work), failure None or (J mask, a, b, law given b,
    law given a, the failed TransportResult).
    """
    n = m.n
    work = dict.fromkeys((
        "conditioning_sets", "pairs_checked", "flows_run", "equal_laws_skipped",
        "repeated_laws_skipped",
    ), 0)
    ids: dict[tuple, int] = {}
    feasible: set[tuple[int, int]] = set()
    _, dense = _dense_weights(m, 1)  # no weight, gcd or row sum exceeds D
    for cond_mask in subsets_lex(n):
        width = cond_mask.bit_count()
        if width == n:
            continue
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


def _certificate_fields(cert) -> dict:
    """A coupling certificate's JSON fields, without its ``kind`` tag."""
    doc = cert.to_json()
    del doc["kind"]
    return doc


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
    Each distinct pair of laws gets one flow per call.
    """
    n = m.n
    refuse_over_cap("nr", n)
    failure, work = _first_failing_cover(m, covering=False)
    if failure is None:
        return NotionReport(Notion.NEG_REGRESSION, Verdict.HOLDS, None, work)
    cond_mask, a, b, lower, upper, res = failure
    jl = cond_mask.bit_count()
    witness = down_set_certificate(*lower, *upper, res.left_cut, n - jl)
    cert = {
        "J": list(indices_of(cond_mask)),
        "a": bits_from_mask(a, jl),
        "b": bits_from_mask(b, jl),
        "free_indices": list(indices_of(((1 << n) - 1) ^ cond_mask)),
        **_certificate_fields(witness),
    }
    return NotionReport(Notion.NEG_REGRESSION, Verdict.FAILS, cert, work)


def check_stochastic_covering(m: ExplicitMeasure) -> NotionReport:
    """Holds iff for every I and covering pair a >= a' of positive
    assignments on I, the conditionals admit a coupling moving at most
    one coordinate: x ~ law given a, y ~ law given a', x <= y,
    |y - x| <= 1.  Each distinct pair of laws gets one flow per call."""
    n = m.n
    refuse_over_cap("sc", n)
    failure, work = _first_failing_cover(m, covering=True)
    if failure is None:
        return NotionReport(Notion.STOCHASTIC_COVERING, Verdict.HOLDS, None, work)
    cond_mask, a_low, a_high, lower, upper, res = failure
    il = cond_mask.bit_count()
    cut = covering_cut(*lower, *upper, res.left_cut, n - il)
    cert = {
        "I": list(indices_of(cond_mask)),
        "a": bits_from_mask(a_high, il),
        "a_prime": bits_from_mask(a_low, il),
        "free_indices": list(indices_of(((1 << n) - 1) ^ cond_mask)),
        **_certificate_fields(cut),
    }
    return NotionReport(Notion.STOCHASTIC_COVERING, Verdict.FAILS, cert, work)


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


def _sampled_points(n: int, seed: int):
    """The seeded default grid for n > 5, as (numerators, denominators)."""
    rng = random.Random(seed)
    for _ in range(_SAMPLE_POINTS):
        point = [(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
        yield tuple(p for p, _ in point), tuple(q for _, q in point)


def default_rayleigh_grid(n: int, seed: int = 0) -> list[tuple]:
    """The documented default: the integer grid {-2..2}^n for n <= 5,
    otherwise 1000 seeded pseudo-random rational points."""
    if n <= _LATTICE_MAX_N:
        return list(itertools.product(_LATTICE, repeat=n))
    return [tuple(map(Fraction, p, q)) for p, q in _sampled_points(n, seed)]


def _integer_points(grid, n: int):
    """A user grid's points as (numerators, denominators), in order."""
    for z in grid:
        if len(z) != n:
            raise DimensionMismatch("grid point has wrong length")
        zf = [Fraction(c) for c in z]
        yield tuple(int(c.numerator) for c in zf), tuple(int(c.denominator) for c in zf)


def _take(points, size: int):
    """The next `size` points (fewer at the end) as numerator and
    denominator lists, and the error the point after them raised, if any;
    the caller raises it only once the points before it are scanned."""
    nums, dens = [], []
    try:
        for p, q in itertools.islice(points, size):
            nums.append(p)
            dens.append(q)
    except (DimensionMismatch, TypeError, ValueError, ArithmeticError) as exc:
        # a malformed point: wrong length, or a coordinate Fraction rejects
        return nums, dens, exc
    return nums, dens, None


def _rayleigh_deltas(bits, weights, d: int, nums, dens, pairs):
    """Delta' = G'10 G'01 - G'00 G'11 for each point (rows) and pair
    (columns) of one chunk.

    Every G' is at most D * M^(n-2) in absolute value, M the largest
    |p_l| or q_l in the chunk, so |Delta'| <= 2 (D M^(n-2))^2, the bound
    that picks the dtype.
    """
    n = bits.shape[1]
    big = max(
        max(map(abs, itertools.chain.from_iterable(nums))),
        max(itertools.chain.from_iterable(dens)),
    )
    dtype = _exact_dtype(2 * (d * big ** (n - 2)) ** 2)
    num = np.array(nums, dtype=dtype)[:, None, :]
    den = np.array(dens, dtype=dtype)[:, None, :]
    w = np.array(weights, dtype=dtype)
    g = np.zeros((len(nums), len(pairs), 4), dtype=dtype)
    rows = np.arange(len(nums))[:, None]
    first = [i for i, _, _ in pairs]
    second = [j for _, j, _ in pairs]
    block = max(1, _SCAN_ELEMENTS // (len(nums) * n))
    for lo in range(0, len(w), block):
        atoms = bits[lo : lo + block]
        factors = np.where(atoms, num, den)  # p_l where x_l = 1, else q_l
        # row k: the (x_i, x_j) class of each atom for pair k
        classes = (atoms[:, first] + 2 * atoms[:, second]).T
        for k, (_, _, keep) in enumerate(pairs):
            terms = factors[:, :, keep].prod(axis=2) * w[lo : lo + block]
            np.add.at(g[:, k], (rows, classes[k]), terms)  # one add per term
    return g[..., 1] * g[..., 2] - g[..., 0] * g[..., 3]


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
    1, 2, 4, ... points, so an early violation costs little; a point of
    the wrong length raises DimensionMismatch when the scan reaches it.
    """
    n = m.n
    if grid is None:
        if n <= _LATTICE_MAX_N:
            ones = (1,) * n
            points = len(_LATTICE) ** n
            source = ((p, ones) for p in itertools.product(_LATTICE, repeat=n))
        else:
            points = _SAMPLE_POINTS
            source = _sampled_points(n, seed=0)
    else:
        points = len(grid)
        source = _integer_points(grid, n)
    d, w = m.scaled_weights()
    bits = np.array([[key >> l & 1 for l in range(n)] for key in w], dtype=bool)
    weights = list(w.values())
    pairs = [
        (i, j, [l for l in range(n) if l != i and l != j])
        for i, j in itertools.combinations(range(n), 2)
    ]
    cap = max(1, _SCAN_ELEMENTS // (len(w) * n))
    evaluations = 0
    size = 1
    while True:
        nums, dens, error = _take(source, size)
        if nums and pairs:
            deltas = _rayleigh_deltas(bits, weights, d, nums, dens, pairs)
            hits = np.flatnonzero(deltas < 0)
            if hits.size:
                first = int(hits[0])
                row, col = divmod(first, len(pairs))
                i, j, keep = pairs[col]
                z = zip(nums[row], dens[row])
                scale = d * math.prod(dens[row][l] for l in keep)
                cert = {
                    "i": i + 1,
                    "j": j + 1,
                    "z": [format_rational(Fraction(p, q)) for p, q in z],
                    "delta": format_rational(Fraction(int(deltas[row, col]), scale**2)),
                }
                return NotionReport(
                    Notion.RAYLEIGH,
                    Verdict.VIOLATION_FOUND,
                    cert,
                    {"points": points, "evaluations": evaluations + first + 1},
                )
            evaluations += deltas.size
        if error is not None:
            raise error
        if len(nums) < size:
            break
        size = min(2 * size, cap)
    return NotionReport(
        Notion.RAYLEIGH,
        Verdict.NO_VIOLATION_FOUND,
        None,
        {"points": points, "evaluations": evaluations},
    )


# ---------------------------------------------------------------------------
# Hierarchy
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
    "CHECKER_CAPS",
    "refuse_over_cap",
    "default_rayleigh_grid",
    "rayleigh_falsify",
    "NOTION_IMPLICATIONS",
]
