"""Up-closed subsets of {0,1}^d: enumeration and optimization.

Monotone test functions reduce to indicators of up-closed sets, so the
association checkers quantify over up-sets instead of functions.  An
up-set is stored as an integer bitmask over the 2^d points of the cube
(bit p set means point p belongs to the set).

Enumeration is only feasible for d <= 5 (the counts are the Dedekind
numbers: 168 for d = 4, 7581 for d = 5).  For larger d the relevant
optimization, maximize a signed weight over up-closed sets, is solved
exactly as a closure problem with one min-cut.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .coupling import Dinic, up_steps
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
    """Maximize sum of weights[p] over up-closed sets of {0,1}^d.

    Exact for arbitrary Python integers.  Solved as a maximum-weight
    closure: picking a point forces all points above it, which is the
    up-closed constraint.  Returns (best value, chosen points); the empty
    set is always available, so the value is never negative.
    """
    size = 1 << d
    source, sink = size, size + 1
    total_pos = sum(w for w in (weights[p] for p in range(size)) if w > 0)
    if total_pos == 0:
        return 0, ()
    inf = total_pos + 1
    net = Dinic(size + 2)
    for p in range(size):
        w = weights[p]
        if w > 0:
            net.add_edge(source, p, w)
        elif w < 0:
            net.add_edge(p, sink, -w)
        for above in up_steps(p, range(size), d):
            net.add_edge(p, above, inf)
    flow = net.max_flow(source, sink)
    chosen = tuple(sorted(p for p in net.residual_reachable(source) if p < size))
    return total_pos - flow, chosen


__all__ = [
    "ENUMERABLE_DIM",
    "nontrivial_upsets",
    "upset_members",
    "is_up_closed",
]
