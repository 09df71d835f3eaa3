"""Tail bounds for 1-Lipschitz functions of negatively dependent bits.

The bound e^{-t^2/(2n)} (e^{-2t^2/n} for monotone f) is compared against
exactly enumerated tail probabilities, and the exponential-moment
induction behind it is checked node by node on the martingale tree.

Tails compare f's integer numerators with the integer thresholds
ceil((mu + t) * den) and floor((mu - t) * den).  Each bound's exponent
is one int / int division, which rounds correctly as float(Fraction)
does; inequality assertions carry a relative tolerance of 1e-12 to
absorb that rounding.  Moment terms are computed once per tree node and
once per tree, on first use.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NodeIsLeaf
from .martingale import MartingaleTree, TreeNode
from .measure import ExplicitMeasure, TestFunction, format_rational

REL_TOL = 1e-12


class TailSide(enum.Enum):
    Upper = "Upper"
    Lower = "Lower"


def theorem_bound(n: int, t: Fraction, monotone: bool) -> float:
    """e^{-t^2/(2n)}, improved to e^{-2t^2/n} when f is monotone."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    if p < 0:
        raise ValueError("t must be nonnegative")
    # one int / int division, rounded correctly as float(Fraction) is; a
    # quotient past 800 is not computed, as e^(-800) is already 0.0 and
    # t^2/n may pass the float range
    num, den = (2 * p * p, n * q * q) if monotone else (p * p, 2 * n * q * q)
    return 0.0 if num > 800 * den else math.exp(-num / den)


def _thresholds(mu: Fraction, t: Fraction, den: int) -> tuple[int, int]:
    """ceil((mu + t) * den) and floor((mu - t) * den): an integer
    numerator v has v / den >= mu + t exactly when v reaches the first,
    and v / den <= mu - t exactly when v stays at or below the second."""
    q = mu.denominator * t.denominator
    a, b = mu.numerator * t.denominator, t.numerator * mu.denominator
    return -(-(a + b) * den // q), (a - b) * den // q


def exact_tail(
    m: ExplicitMeasure, f: TestFunction, t: Fraction, side: TailSide
) -> Fraction:
    """Pr[f >= mu + t] (Upper) or Pr[f <= mu - t] (Lower), exactly.
    Comparisons are closed, matching the bound's statement."""
    upper, lower = _thresholds(m.expectation(f), Fraction(t), f.den)
    total, weights = m.scaled_weights()
    nums = f.nums
    if side is TailSide.Upper:
        hit = sum(w for x, w in weights.items() if nums[x] >= upper)
    else:
        hit = sum(w for x, w in weights.items() if nums[x] <= lower)
    return Fraction(hit, total)


@dataclass(frozen=True)
class TailRow:
    t: Fraction
    upper_exact: Fraction
    lower_exact: Fraction
    bound: float
    monotone_bound: Optional[float]
    passed: bool

    def to_json(self) -> dict:
        return {
            "t": format_rational(self.t),
            "upper_exact": format_rational(self.upper_exact),
            "lower_exact": format_rational(self.lower_exact),
            "bound": self.bound,
            "monotone_bound": self.monotone_bound,
            "pass": self.passed,
        }


@dataclass
class TailReport:
    n: int
    mu: Fraction
    rows: list[TailRow]
    verdict: bool

    def failures(self) -> list[TailRow]:
        return [row for row in self.rows if not row.passed]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mu": format_rational(self.mu),
            "rows": [row.to_json() for row in self.rows],
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["t", "upper_exact", "lower_exact", "bound", "monotone_bound", "pass"]
        )
        for row in self.rows:
            writer.writerow([
                format_rational(row.t),
                format_rational(row.upper_exact),
                format_rational(row.lower_exact),
                repr(row.bound),
                "" if row.monotone_bound is None else repr(row.monotone_bound),
                row.passed,
            ])
        return out.getvalue()


def default_t_grid(f: TestFunction) -> list[Fraction]:
    """Quarter steps from 0 up to the exact range width of f."""
    lo, hi = f.exact_range()
    width = hi - lo
    kmax = int(4 * width)  # floor; width is a nonnegative rational
    return [Fraction(k, 4) for k in range(kmax + 1)]


def verify_theorem(
    m: ExplicitMeasure, f: TestFunction, t_grid=None
) -> TailReport:
    """Compare both exact tails against the applicable bounds at every t.

    Assumes the caller has established negative regression for m (the
    report is advisory otherwise) and that f is 1-Lipschitz.  The
    monotone bound is evaluated only when f declares monotonicity, and
    then both bounds must hold.
    """
    mu = m.expectation(f)  # a dimension mismatch raises here, before any grid work
    if t_grid is None:
        t_grid = default_t_grid(f)
    t_grid = sorted(Fraction(t) for t in t_grid)

    # Sorted numerators with prefix weights make each tail a binary
    # search on integer thresholds instead of a fresh support scan;
    # results equal exact_tail's.
    total, weights = m.scaled_weights()
    nums, den = f.nums, f.den
    by_value: dict[int, int] = {}
    for x, w in weights.items():
        v = nums[x]
        by_value[v] = by_value.get(v, 0) + w
    values = sorted(by_value)
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + by_value[v])

    rows = []
    verdict = True
    for t in t_grid:
        hi, lo = _thresholds(mu, t, den)
        upper = total - prefix[bisect_left(values, hi)]
        lower = prefix[bisect_right(values, lo)]
        bound = theorem_bound(m.n, t, False)
        mono = theorem_bound(m.n, t, True) if f.declared_monotone else None
        worst = max(upper, lower) / total  # rounded as float(Fraction) is
        passed = worst <= bound * (1 + REL_TOL)
        if mono is not None:
            passed = passed and worst <= mono * (1 + REL_TOL)
        verdict = verdict and passed
        rows.append(TailRow(t, Fraction(upper, total), Fraction(lower, total),
                            bound, mono, passed))
    return TailReport(m.n, mu, rows, verdict)


def node_exponential_moment(
    tree: MartingaleTree, node: TreeNode, lam: float
) -> float:
    """E[e^{lam * (next increment)} | node].  Forced branches contribute
    the trivial moment 1; the Hoeffding contract bounds the result by
    e^{lam^2 (beta-alpha)^2 / 8} up to rounding."""
    terms = node._branch_terms()
    if not terms:
        if node.is_leaf:
            raise NodeIsLeaf(f"node {node.assignment.to_json()} has no increment")
        return 1.0
    p0, d0, p1, d1 = terms
    return p0 * math.exp(lam * d0) + p1 * math.exp(lam * d1)


def chain_exponential_moment(tree: MartingaleTree, lam: float) -> float:
    """E[e^{lam * (Y_final - Y_0)}] summed over leaves; equals the atom
    sum of mass(x) e^{lam (f(x) - mu)} up to rounding."""
    return sum(p * math.exp(lam * d) for p, d in tree._leaf_terms)


__all__ = [
    "REL_TOL",
    "TailSide",
    "TailRow",
    "TailReport",
    "theorem_bound",
    "exact_tail",
    "default_t_grid",
    "verify_theorem",
    "node_exponential_moment",
    "chain_exponential_moment",
]
