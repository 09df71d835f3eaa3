"""Bitmask helpers shared across the toolkit, ``SubsetExtractor``, the
one split of a measure by a block of coordinates, and the width caps with
their one refusal, ``refuse_over_cap``.

Convention: variable ``i`` (1-based) occupies bit ``i - 1`` of an integer
mask and character ``i - 1`` of the serialized bitstring, which is written
left to right as ``x1 x2 ... xn``.  The all-variables mask for ``n``
variables is ``(1 << n) - 1``.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .errors import TooLarge

_ENV_CAP = "NEGDEP_MAX_N"

ENUMERABLE_DIM = 5  # up-sets of {0,1}^d are enumerated only for d <= 5

# Width caps, by the `--notions` key of each capped checker, plus "measure"
# (every measure and family) and "tree" (skeletons and martingale trees).
# NEGDEP_MAX_N overrides all of them at the user's own runtime risk, but
# leaves NA and CNA at most 2 ENUMERABLE_DIM + 1: past it some bipartition
# has no side of at most ENUMERABLE_DIM coordinates.
_DEFAULT_CAPS = {
    "measure": 20,
    "cyl": 20,
    "na": 8,
    "cna": 8,
    "nr": 10,
    "sc": 10,
    "rayleigh": 10,
    "tree": 12,
}


_INT64_MAX = (1 << 63) - 1  # the largest int64


def _exact_dtype(bound: int):
    """int64 while `bound`, proven on every |value| the work makes, fits;
    otherwise `object` arrays of Python ints, which cannot overflow."""
    return np.int64 if bound <= _INT64_MAX else object


def _limb_width(terms: int, factor: int) -> int:
    """The widest L with terms * (2^L - 1) * factor <= the largest int64:
    a sum of `terms` products of an L-bit limb by a value of size at most
    `factor` then fits int64.  0 when no width does."""
    return (_INT64_MAX // (terms * factor) + 1).bit_length() - 1


def cap(name: str) -> int:
    """The width cap of `name`, a key of `_DEFAULT_CAPS`."""
    override = os.environ.get(_ENV_CAP)
    if override is None:
        return _DEFAULT_CAPS[name]
    if not override.isdecimal():
        raise ValueError(f"{_ENV_CAP} must be a non-negative integer, got {override!r}")
    if name in ("na", "cna"):
        return min(int(override), 2 * ENUMERABLE_DIM + 1)
    return int(override)


def refuse_over_cap(name: str, n: int) -> None:
    """Raise TooLarge, before any work, when n exceeds the cap of `name`; a
    name without a cap, such as "nc", passes.  The only width refusal."""
    if name in _DEFAULT_CAPS and n > (limit := cap(name)):
        raise TooLarge(f"n={n} exceeds the {name} cap {limit}")


def mask_from_bits(bits: str) -> int:
    """Parse a bitstring ``x1 x2 ... xn`` into an integer mask."""
    if bits.strip("01"):
        raise ValueError(f"not a bitstring: {bits!r}")
    # x1 is the lowest bit, so the string is the binary digits read backwards
    return int(bits[::-1] or "0", 2)


def bits_from_mask(mask: int, n: int) -> str:
    """Serialize an integer mask to the ``x1 x2 ... xn`` bitstring."""
    # the binary digits of the low n bits behind a guard bit, read backwards
    return bin(mask & ((1 << n) - 1) | 1 << n)[:2:-1]


def indices_of(mask: int) -> tuple[int, ...]:
    """1-based variable indices of the set bits, ascending."""
    out = []
    pos = 0
    while mask:
        if mask & 1:
            out.append(pos + 1)
        mask >>= 1
        pos += 1
    return tuple(out)


def mask_of_indices(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def is_submask(a: int, b: int) -> bool:
    """True iff every bit of ``a`` is set in ``b`` (coordinatewise <=)."""
    return a & ~b == 0


@lru_cache(maxsize=None)
def subsets_lex(n: int) -> tuple[int, ...]:
    """All nonempty subsets of [1, n] as masks, ordered lexicographically
    by their ascending index tuple: {1} < {1,2} < {1,2,3} < ... < {1,3} < {2}.
    """
    masks = list(range(1, 1 << n))
    masks.sort(key=indices_of)
    return tuple(masks)


@lru_cache(maxsize=None)
def covering_steps(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The covering pairs (a, a | e_pos) of the width-bit cube as two index
    arrays, in (a, then pos) order."""
    a = np.repeat(np.arange(1 << width), width)
    b = a | 1 << np.tile(np.arange(width), 1 << width)
    return a[a != b], b[a != b]


@lru_cache(maxsize=1 << 12)
def _merged_axes(selector: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape viewing a length-``2^n`` array with each run of bit axes that
    stay adjacent in a split by ``selector`` as one axis, and its transpose."""
    # axis k of the (2,) * n view is bit n - 1 - k; a stable sort puts the
    # selected axes first, so each packed index keeps its highest bit first
    axes = sorted(range(n), key=lambda k: not selector >> (n - 1 - k) & 1)
    place = {k: at for at, k in enumerate(axes)}
    starts = [k for k in range(n) if k == 0 or place[k] != place[k - 1] + 1]
    shape = tuple(1 << (end - k) for k, end in zip(starts, starts[1:] + [n]))
    return shape, tuple(sorted(range(len(starts)), key=lambda run: place[starts[run]]))


class SubsetExtractor:
    """The one primitive that splits a measure by a block of coordinates:
    conditionals, marginals and every checker that reads conditional laws
    take rows of a ``split``."""

    def __init__(self, selector: int, n: int):
        self.selector = selector
        self.n = n
        self.width = selector.bit_count()
        self._shape, self._axes = _merged_axes(selector, n)

    def split(self, dense: np.ndarray) -> np.ndarray:
        """A length-``2^n`` array indexed by mask, as a new
        ``(2^width, 2^(n - width))`` matrix: entry ``mask`` goes to the row
        its selected bits pack to and the column its other bits pack to
        (bit j of a packed value is the j-th smallest position packed)."""
        # a copy even when the order is the identity and the transpose a view
        return dense.reshape(self._shape).transpose(self._axes).copy().reshape(1 << self.width, -1)


__all__ = ["bits_from_mask", "cap", "mask_from_bits"]
