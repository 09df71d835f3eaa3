"""Up-closed subsets of {0,1}^d: enumeration and optimization.

Monotone test functions reduce to indicators of up-closed sets, so the
association checkers quantify over up-sets instead of functions.  An
up-set is stored as an integer bitmask over the 2^d points of the cube
(bit p set means point p belongs to the set).

Enumeration is only feasible for d <= 5 (the counts are the Dedekind
numbers: 168 for d = 4, 7581 for d = 5); from d = 4 on, a row's sum over
each is the sum over its two halves, read from sums over {0,1}^(d-1).
For larger d the relevant optimization, maximize a zero-sum weight over
up-closed sets, is solved exactly with one transport of its positive
part onto its negative part.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bitops import ENUMERABLE_DIM
from .coupling import transport, up_closure
from .errors import TooLarge


@lru_cache(maxsize=None)
def upset_bitmasks(d: int) -> tuple[int, ...]:
    """All up-closed subsets of {0,1}^d, including the empty and full sets.

    Recursion: an up-set of {0,1}^d splits along the last coordinate into
    up-sets (A0, A1) of {0,1}^(d-1) with A0 contained in A1.
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if d > ENUMERABLE_DIM:
        raise TooLarge(f"cannot enumerate up-sets in dimension {d}")
    if d == 0:
        return (0, 1)
    half = 1 << (d - 1)
    prev = upset_bitmasks(d - 1)
    out = []
    for a1 in prev:
        for a0 in prev:
            if a0 & ~a1 == 0:
                out.append(a0 | (a1 << half))
    return tuple(out)


@lru_cache(maxsize=None)
def nontrivial_upsets(d: int) -> tuple[int, ...]:
    full = (1 << (1 << d)) - 1
    return tuple(a for a in upset_bitmasks(d) if a != 0 and a != full)


@lru_cache(maxsize=None)
def upset_matrix(d: int) -> np.ndarray:
    """Membership matrix over the nontrivial up-sets, shape (count, 2^d):
    entry (row, p) is bit p of the row's bitmask."""
    ups = np.array(nontrivial_upsets(d), dtype=np.int64)
    return (ups[:, None] >> np.arange(1 << d)) & 1


_HALVES_DIM = 4  # below it one product with `upset_matrix` measured faster


@lru_cache(maxsize=None)
def _halves(d: int):
    """Tables of the sums over halves in dimension d: the membership matrix
    (2^(d-1), |U(d-1)|) of all up-sets of {0,1}^(d-1), per nontrivial up-set
    of {0,1}^d the indices i0, i1 of its halves A0 (low points) and A1
    (high points) in it, and the starts of the runs of equal A1."""
    prev, half = upset_bitmasks(d - 1), 1 << (d - 1)
    at = {a: i for i, a in enumerate(prev)}
    i0, i1 = np.array([(at[b & (1 << half) - 1], at[b >> half])
                       for b in nontrivial_upsets(d)]).T
    members = (np.array(prev, dtype=np.int64)[None, :] >> np.arange(half)[:, None]) & 1
    return members, i0, i1, np.flatnonzero(np.diff(i1, prepend=-1))


def upset_sums(c: np.ndarray, d: int) -> np.ndarray:
    """c @ upset_matrix(d).T for a row c, or rows, over the 2^d points: its
    sum over each nontrivial up-set, in `nontrivial_upsets` order.  Every
    value is a partial sum of the row, as each half's sum is."""
    if d < _HALVES_DIM:
        return c @ upset_matrix(d).T
    members, i0, i1, _ = _halves(d)
    sums = (c[..., :len(members)] @ members)[..., i0]
    sums += (c[..., len(members):] @ members)[..., i1]
    return sums


def upset_maxima(c: np.ndarray, d: int) -> np.ndarray:
    """Each row's largest sum over a nontrivial up-set, for d >= 1: per A1
    the best A0 inside it (a run of equal A1) plus A1's own sum."""
    if d < _HALVES_DIM:
        return (c @ upset_matrix(d).T).max(axis=1)
    members, i0, i1, starts = _halves(d)
    best = np.maximum.reduceat((c[:, :len(members)] @ members)[:, i0], starts, axis=1)
    best += (c[:, len(members):] @ members)[:, i1[starts]]
    return best.max(axis=1)


def upset_members(bitmask: int, d: int) -> tuple[int, ...]:
    return tuple(p for p in range(1 << d) if bitmask >> p & 1)


def is_up_closed(points, d: int) -> bool:
    members = set(points)
    return all(
        p | (1 << j) in members for p in members for j in range(d)
    )


def max_weight_upset(weights, d: int) -> tuple[int, tuple[int, ...]]:
    """Maximize sum of weights[p] over up-closed sets of {0,1}^d, for
    integer weights at p < 2^d that sum to 0.  With P the positive total,
    one transport of the positive part onto the negative part at total P
    falls short by P times the best value, and the lower atoms left of its
    minimal minimum cut generate the least maximizing up-set (Picard and
    Queyranne).  Returns (best value, chosen points), (0, ()) if feasible.
    """
    weights = [weights[p] for p in range(1 << d)]
    if sum(weights):
        raise ValueError("closure weights must sum to 0")
    total = sum(w for w in weights if w > 0)
    if total == 0:
        return 0, ()
    res = transport([(p, w) for p, w in enumerate(weights) if w > 0], total,
                    [(p, -w) for p, w in enumerate(weights) if w < 0], total)
    if res.feasible:
        return 0, ()
    return (res.target - res.flow_value) // total, tuple(sorted(up_closure(res.left_cut, d)))


__all__ = [
    "ENUMERABLE_DIM",
    "nontrivial_upsets",
    "upset_members",
    "is_up_closed",
]
