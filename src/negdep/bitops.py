"""Bitmask helpers shared across the toolkit, and ``SubsetExtractor``,
the one split of a measure by a block of coordinates.

Convention: variable ``i`` (1-based) occupies bit ``i - 1`` of an integer
mask and character ``i - 1`` of the serialized bitstring, which is written
left to right as ``x1 x2 ... xn``.  The all-variables mask for ``n``
variables is ``(1 << n) - 1``.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

_ENV_CAP = "NEGDEP_MAX_N"

# Enumeration caps, per operation family.  NEGDEP_MAX_N overrides all of
# them at the user's own runtime risk.
_DEFAULT_CAPS = {
    "measure": 20,
    "cylinder": 20,
    "neg_association": 8,
    "cna": 8,
    "neg_regression": 10,
    "stochastic_covering": 10,
    "tree": 12,
}


_INT64_MAX = (1 << 63) - 1  # the largest int64


def _exact_dtype(bound: int):
    """int64 while `bound`, proven on every |value| the work makes, fits;
    otherwise `object` arrays of Python ints, which cannot overflow."""
    return np.int64 if bound <= _INT64_MAX else object


def cap(name: str) -> int:
    """Enumeration cap for the named operation family."""
    override = os.environ.get(_ENV_CAP)
    if override is None:
        return _DEFAULT_CAPS[name]
    if not override.isdecimal():
        raise ValueError(f"{_ENV_CAP} must be a non-negative integer, got {override!r}")
    return int(override)


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


class SubsetExtractor:
    """The one primitive that splits a measure by a block of coordinates:
    conditionals, marginals and every checker that reads conditional laws
    take rows of a ``split``."""

    def __init__(self, selector: int, n: int):
        self.selector = selector
        self.n = n
        self.width = selector.bit_count()

    def split(self, dense: np.ndarray) -> np.ndarray:
        """A length-``2^n`` array indexed by mask, as a new
        ``(2^width, 2^(n - width))`` matrix: entry ``mask`` goes to the row
        its selected bits pack to and the column its other bits pack to
        (bit j of a packed value is the j-th smallest position packed)."""
        n = self.n
        # axis k of the (2,) * n view is bit n - 1 - k; a stable sort puts the
        # selected axes first, so each packed index keeps its highest bit first
        axes = sorted(range(n), key=lambda k: not self.selector >> (n - 1 - k) & 1)
        # a copy even when the order is the identity and the transpose a view
        return dense.reshape((2,) * n).transpose(axes).copy().reshape(1 << self.width, -1)
