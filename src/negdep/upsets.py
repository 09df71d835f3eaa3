"""Up-closed subsets of {0,1}^d: enumeration and optimization.

Monotone test functions reduce to indicators of up-closed sets, so the
association checkers quantify over up-sets instead of functions.  An
up-set is stored as an integer bitmask over the 2^d points of the cube
(bit p set means point p belongs to the set).

Enumeration is only feasible for d <= 5 (the counts are the Dedekind
numbers: 168 for d = 4, 7581 for d = 5).  For larger d the relevant
optimization, maximize a zero-sum weight over up-closed sets, is solved
exactly with one transport of its positive part onto its negative part.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coupling import transport, up_closure
from .errors import TooLarge

ENUMERABLE_DIM = 5


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
