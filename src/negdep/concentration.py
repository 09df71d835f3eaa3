"""Tail bounds for 1-Lipschitz functions of negatively dependent bits.

The bound e^{-t^2/(2n)} (e^{-2t^2/n} for monotone f) is compared against
exactly enumerated tail probabilities, and the exponential-moment
induction behind it is checked node by node on the martingale tree.

Exponents are computed as exact rationals and converted to IEEE double
only inside the final exp; inequality assertions carry a relative
tolerance of 1e-12 to absorb that rounding.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionMismatch, NodeIsLeaf
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
    if t < 0:
        raise ValueError("t must be nonnegative")
    if monotone:
        exponent = Fraction(-2) * t * t / n
    else:
        exponent = -t * t / (2 * n)
    return math.exp(float(exponent))


def exact_tail(
    m: ExplicitMeasure, f: TestFunction, t: Fraction, side: TailSide
) -> Fraction:
    """Pr[f >= mu + t] (Upper) or Pr[f <= mu - t] (Lower), exactly.
    Comparisons are closed, matching the bound's statement."""
    if f.n != m.n:
        raise DimensionMismatch(
            f"function on {f.n} variables, measure on {m.n}"
        )
    t = Fraction(t)
    mu = m.expectation(f)
    total, weights = m.scaled_weights()
    nums = f.nums
    if side is TailSide.Upper:
        threshold = (mu + t) * f.den
        hit = sum(w for x, w in weights.items() if nums[x] >= threshold)
    else:
        threshold = (mu - t) * f.den
        hit = sum(w for x, w in weights.items() if nums[x] <= threshold)
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

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    def save_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def default_t_grid(f: TestFunction) -> list[Fraction]:
    """Quarter steps from 0 up to the exact range width of f."""
    lo, hi = f.exact_range()
    width = hi - lo
    kmax = int(4 * width)  # floor; width is a nonnegative rational
    return [Fraction(k, 4) for k in range(kmax + 1)]


def _within(exact: Fraction, bound: float) -> bool:
    return float(exact) <= bound * (1 + REL_TOL)


def verify_theorem(
    m: ExplicitMeasure, f: TestFunction, t_grid=None
) -> TailReport:
    """Compare both exact tails against the applicable bounds at every t.

    Assumes the caller has established negative regression for m (the
    report is advisory otherwise) and that f is 1-Lipschitz.  The
    monotone bound is evaluated only when f declares monotonicity, and
    then both bounds must hold.
    """
    if f.n != m.n:
        raise DimensionMismatch(
            f"function on {f.n} variables, measure on {m.n}"
        )
    if t_grid is None:
        t_grid = default_t_grid(f)
    t_grid = sorted(Fraction(t) for t in t_grid)
    mu = m.expectation(f)

    # Sorted numerators with prefix weights make each tail a binary
    # search instead of a fresh support scan; results equal exact_tail's.
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

    def upper_tail(threshold: Fraction) -> Fraction:
        return Fraction(total - prefix[bisect_left(values, threshold * den)], total)

    def lower_tail(threshold: Fraction) -> Fraction:
        return Fraction(prefix[bisect_right(values, threshold * den)], total)

    rows = []
    verdict = True
    for t in t_grid:
        upper = upper_tail(mu + t)
        lower = lower_tail(mu - t)
        bound = theorem_bound(m.n, t, False)
        mono = theorem_bound(m.n, t, True) if f.declared_monotone else None
        worst = max(upper, lower)
        passed = _within(worst, bound)
        if mono is not None:
            passed = passed and _within(worst, mono)
        verdict = verdict and passed
        rows.append(TailRow(t, upper, lower, bound, mono, passed))
    return TailReport(m.n, mu, rows, verdict)


def node_exponential_moment(
    tree: MartingaleTree, node: TreeNode, lam: float
) -> float:
    """E[e^{lam * (next increment)} | node].  Forced branches contribute
    the trivial moment 1; the Hoeffding contract bounds the result by
    e^{lam^2 (beta-alpha)^2 / 8} up to rounding."""
    if node.is_leaf:
        raise NodeIsLeaf(f"node {node.assignment.to_json()} has no increment")
    c0, c1 = node.child0, node.child1
    if c0 is None or c1 is None:
        return 1.0
    # int / int true division rounds correctly, as float(Fraction) does
    w, s, den = node.w, node.s, node.den
    d0 = (c0.s * w - s * c0.w) / (den * c0.w * w)
    d1 = (c1.s * w - s * c1.w) / (den * c1.w * w)
    return c0.w / w * math.exp(lam * d0) + c1.w / w * math.exp(lam * d1)


def chain_exponential_moment(tree: MartingaleTree, lam: float) -> float:
    """E[e^{lam * (Y_final - Y_0)}] summed over leaves; equals the atom
    sum of mass(x) e^{lam (f(x) - mu)} up to rounding."""
    root = tree.root
    w, s, den = root.w, root.s, root.den
    return sum(
        leaf.w / w * math.exp(lam * ((leaf.s * w - s * leaf.w) / (den * leaf.w * w)))
        for leaf in tree.leaves()
    )


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
