"""Exact probability measures on {0,1}^n.

A measure is stored as integer weights over one common denominator;
masses enter and leave as `fractions.Fraction`, and nothing in this
module touches floating point.  A conditional is a row of one split
(`bitops.SubsetExtractor.split`) of the measure's cached dense view of
its weights, the probability of the condition that row's sum, and a
marginal the row sums of another.  Atoms are keyed internally by integer
masks (variable i is bit i-1, so the leftmost character of the
serialized bitstring is x1).  A measure's JSON document is written as
text straight from the integers (`ExplicitMeasure.to_text`).

The named families (`family_*`) have one spec grammar, `FAMILIES`, that
the CLI and the catalog `zoo()` both read through `parse_family`; a wrong
number of `:`-parts, or a part its parser refuses, is a ValueError that
names the family's form.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Iterator

import numpy as np

from .bitops import (
    SubsetExtractor,
    _exact_dtype,
    bits_from_mask,
    mask_from_bits,
    mask_of_indices,
    refuse_over_cap,
)
from .errors import (
    BadWidth,
    DimensionMismatch,
    EmptyConditioningEvent,
    EmptySubset,
    InvalidTestFunction,
    MalformedMeasure,
    MassNotOne,
    NegativeMass,
    TooLarge,
    ZeroProbabilityEvent,
)


def parse_rational(text) -> Fraction:
    """Parse "num/den" or a decimal string exactly; a zero denominator
    is a ValueError, like any other malformed rational, and a value that
    could not be read or written back (an exponent, digit run, numerator
    or denominator past sys.get_int_max_str_digits()) is TooLarge."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none (< 3.10.7)
    e = re.fullmatch(r"\s*[-+]?[\d_.]*e[-+]?([\d_]+)\s*", text := str(text), re.I)
    if e and limit:
        digits = e[1].replace("_", "").lstrip("0")  # read before Fraction expands them
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise TooLarge(f"the exponent of {text[:40]!r} exceeds the {limit}-digit limit")
    # int() refuses a longer run of digits: refuse it here, naming the limit
    if limit and re.search(r"\d{%d}" % (limit + 1), text.replace("_", "")):
        raise TooLarge(f"the value of {text[:40]!r} exceeds the {limit}-digit limit")
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    big = max(abs(q.numerator), q.denominator)  # below 8^limit it has <= limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise TooLarge(f"the value of {text[:40]!r} exceeds the {limit}-digit limit")
    return q


def format_rational(q: Fraction) -> str:
    """Lowest-terms "num/den" (or plain integer) representation."""
    return str(q if isinstance(q, Fraction) else Fraction(q))


def format_ratio(a: int, b: int) -> str:
    """format_rational(Fraction(a, b)) for integers b > 0, with no Fraction."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}" if b != g else str(a // g)


def parse_ratio(p) -> tuple[int, int]:
    """parse_rational(p) as (num, den > 0), maybe not in lowest terms: plain
    ASCII "a/b" and "a" of at most 640 characters, which no digit limit
    refuses (none is below `sys.int_info.str_digits_check_threshold`), are
    read by int, all else by parse_rational; a boolean, which JSON true and
    false load as, is MalformedMeasure."""
    if isinstance(p, bool):
        raise MalformedMeasure(f"mass {json.dumps(p)} is a boolean, not a rational")
    if isinstance(p, str) and len(p) <= 640 and p.isascii():
        num, slash, den = p.partition("/")
        if num.isdigit() and (den.isdigit() or not slash) and (d := int(den or 1)):
            return int(num), d
    q = parse_rational(p)
    return q.numerator, q.denominator


def sum_over_lcm(ratios) -> tuple[int, dict]:
    """(L, key -> summed numerator over L) for (key, num, den) triples,
    where L is the lcm of the denominators; keys keep first-seen order."""
    denom = lcm(*(d for _, _, d in ratios))
    out: dict = {}
    for key, a, d in ratios:
        out[key] = out.get(key, 0) + a * (denom // d)
    return denom, out


def _check_width(n: int) -> None:
    if n < 1:
        raise BadWidth("n must be a positive integer")
    refuse_over_cap("measure", n)


@dataclass(frozen=True)
class Assignment:
    """A partial assignment: distinct 1-based int indices with their int bits."""

    indices: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) != len(set(self.indices)):
            raise ValueError("assignment indices must be distinct")
        if len(self.indices) != len(self.values):
            raise ValueError("assignment indices/values length mismatch")
        # bools and floats compare equal to ints, so the type is checked first
        if any(type(i) is not int or i < 1 for i in self.indices):
            raise ValueError("assignment indices are 1-based")
        if any(type(v) is not int or v not in (0, 1) for v in self.values):
            raise ValueError("assignment values must be bits")

    @classmethod
    def empty(cls) -> "Assignment":
        return cls((), ())

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "Assignment":
        items = sorted(mapping.items())
        return cls(tuple(i for i, _ in items), tuple(v for _, v in items))

    # cached: each split on the assignment (`_row`, `_conditional`) reads index_mask
    @cached_property
    def index_mask(self) -> int:
        return mask_of_indices(self.indices)

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "values": "".join(str(v) for v in self.values),
        }


class ExplicitMeasure:
    """An exact rational probability mass function on {0,1}^n.

    Stored as one exact integer core: the least common denominator D and
    positive integer weights with sum exactly D and no common factor with
    D, so P[x] = weight(x) / D.  Zero-mass atoms are not stored and every
    key fits in n bits.  Fractions are made only on the way out (items,
    prob, atoms); to_text writes the JSON document from the integers, and
    to_json reads it back.  Instances are immutable; the dense view and
    the symmetry classes are built on first use and kept.
    """

    __slots__ = ("n", "_denom", "_weights", "_dense", "_classes")

    def __init__(self, n: int, mass: dict[int, Fraction]):
        core = self.from_atoms(n, mass.items())
        self.n, self._denom, self._weights = n, core._denom, core._weights
        self._dense = self._classes = None

    @classmethod
    def _from_weights(cls, n: int, weights: dict[int, int]) -> "ExplicitMeasure":
        """The measure weight(x) / sum(weights) from positive integer
        weights; their gcd is divided out.  Every construction ends
        here."""
        _check_width(n)
        g = gcd(*weights.values())
        if g != 1:
            weights = {k: w // g for k, w in weights.items()}
        m = object.__new__(cls)
        m.n = n
        m._denom = sum(weights.values())
        m._weights = weights
        m._dense = m._classes = None
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def from_atoms(cls, n: int, atoms: Iterable[tuple]) -> "ExplicitMeasure":
        """Build from (bitstring-or-mask, rational) pairs.

        Duplicate atoms are merged by summing their masses.  Every public
        constructor comes here: weights over the lcm of the denominators,
        checked, then reduced to the least common one by _from_weights.
        """
        _check_width(n)
        ratios = []
        for key, p in atoms:
            if isinstance(key, str):
                if len(key) != n:
                    raise BadWidth(f"bitstring {key!r} is not {n} bits wide")
                key = mask_from_bits(key)
            ratios.append((key, *parse_ratio(p)))
        denom, weights = sum_over_lcm(ratios)
        for key, w in weights.items():
            if key < 0 or key >> n:
                raise BadWidth(f"atom {key} does not fit in {n} bits")
            if w < 0:
                p = format_ratio(w, denom)
                raise NegativeMass(f"atom {bits_from_mask(key, n)} has mass {p}")
        weights = {k: w for k, w in weights.items() if w}
        if (total := sum(weights.values())) != denom:
            raise MassNotOne(f"masses sum to {format_ratio(total, denom)}, expected 1")
        return cls._from_weights(n, weights)

    # -- basic queries ----------------------------------------------------

    def prob(self, key) -> Fraction:
        if isinstance(key, str):
            key = mask_from_bits(key)
        return Fraction(self._weights.get(key, 0), self._denom)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._weights))

    def atoms(self) -> Iterator[tuple[int, Fraction]]:
        """Atoms as (mask, mass), sorted by bitstring."""
        for key in sorted(self._weights, key=lambda m: bits_from_mask(m, self.n)):
            yield key, Fraction(self._weights[key], self._denom)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Atoms as (mask, mass), in storage order; a one-pass iterator."""
        d = self._denom
        return ((k, Fraction(w, d)) for k, w in self._weights.items())

    def scaled_weights(self) -> tuple[int, dict[int, int]]:
        """The stored core: (common denominator D, atom -> integer weight)
        with sum of weights exactly D.  The dict is shared; do not
        mutate it."""
        return self._denom, self._weights

    def dense(self) -> np.ndarray:
        """The weights as a read-only array of length 2^n indexed by atom,
        built once: int64 while D fits, Python ints above."""
        if self._dense is None:
            dtype = _exact_dtype(self._denom)
            dense = np.zeros(1 << self.n, dtype=dtype)
            dense[list(self._weights)] = np.array(list(self._weights.values()), dtype=dtype)
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    def symmetry_classes(self) -> tuple[int, ...]:
        """Masks of the classes of coordinates whose pairwise swaps leave
        the measure unchanged, by lowest member; built once.  As (i k) is
        (i j)(j k)(i j), each coordinate is tested against one member of
        each class, by swapping their axes of the dense view."""
        if self._classes is None:
            n, classes = self.n, []
            cube = self.dense().reshape((2,) * n)  # bit i is axis n - 1 - i
            for i in range(n):
                for k, c in enumerate(classes):
                    if np.array_equal(cube, cube.swapaxes(n - 1 - i, n - c.bit_length())):
                        classes[k] |= 1 << i
                        break
                else:
                    classes.append(1 << i)
            self._classes = tuple(classes)
        return self._classes

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitMeasure)
            and self.n == other.n
            and self._denom == other._denom
            and self._weights == other._weights
        )

    def __hash__(self):
        return hash((self.n, self._denom, tuple(sorted(self._weights.items()))))

    def __repr__(self):
        return f"ExplicitMeasure(n={self.n}, atoms={len(self._weights)})"

    # -- operations --------------------------------------------------------

    def _row(self, on: Assignment) -> np.ndarray:
        """The weights of the atoms matching ``on``, indexed by their other
        bits packed in ascending position order: row ``on.values`` of the
        split by ``on.index_mask``."""
        if on.index_mask >> self.n:
            raise DimensionMismatch("assignment index out of range")
        split = SubsetExtractor(on.index_mask, self.n).split(self.dense())
        return split[sum(v << t for t, (_, v) in enumerate(sorted(zip(on.indices, on.values))))]

    def condition(self, on: Assignment) -> "ExplicitMeasure":
        """Conditional law of the unassigned variables given ``on``.

        The surviving variables keep their relative order and are
        re-labeled 1..n-|on| ascending.  Raises ZeroProbabilityEvent when
        the conditioning event has mass 0.
        """
        row = self._row(on)
        cols = np.flatnonzero(row)
        if not cols.size:
            raise ZeroProbabilityEvent(f"event {on.to_json()} has probability 0")
        if len(on.indices) == self.n:
            raise ValueError("conditioning on every variable leaves nothing")
        weights = dict(zip(cols.tolist(), row[cols].tolist()))
        return self._from_weights(self.n - len(on.indices), weights)

    def prob_of_assignment(self, on: Assignment) -> Fraction:
        return Fraction(int(self._row(on).sum()), self._denom)

    def marginal(self, subset) -> "ExplicitMeasure":
        """Exact pushforward onto the given coordinates (ascending order)."""
        subset = sorted(set(subset))
        if not subset:
            raise EmptySubset("marginal over the empty index set")
        if subset[0] < 1 or subset[-1] > self.n:
            raise DimensionMismatch("marginal index out of range")
        extractor = SubsetExtractor(mask_of_indices(subset), self.n)
        sums = extractor.split(self.dense()).sum(axis=1)
        rows = np.flatnonzero(sums)
        return self._from_weights(len(subset), dict(zip(rows.tolist(), sums[rows].tolist())))

    def expectation(self, f: "TestFunction") -> Fraction:
        if f.n != self.n:
            raise DimensionMismatch(f"function on {f.n} vars, measure on {self.n}")
        nums = f.nums
        total = sum(w * nums[key] for key, w in self._weights.items())
        return Fraction(total, self._denom * f.den)

    def mean_vector(self) -> list[Fraction]:
        """E[X_i] for i = 1..n."""
        ones = [0] * self.n
        for key, w in self._weights.items():
            while key:
                low = key & -key
                ones[low.bit_length() - 1] += w
                key ^= low
        return [Fraction(s, self._denom) for s in ones]

    # -- serialization -----------------------------------------------------

    def to_text(self, indent: str = "") -> str:
        """The bytes of json.dumps(self.to_json(), indent=2), each line after
        the first behind ``indent``, in one pass over the integers: a row per
        atom, sorted by bit string.  Bit strings and ratios need no
        escaping, and the atom list is never empty."""
        n, d, i4, i6 = self.n, self._denom, indent + "    ", indent + "      "
        rows = sorted((bits_from_mask(k, n), w) for k, w in self._weights.items())
        atoms = ",\n".join(
            f'{i4}{{\n{i6}"x": "{x}",\n{i6}"p": "{format_ratio(w, d)}"\n{i4}}}' for x, w in rows
        )
        return f'{{\n{indent}  "n": {n},\n{indent}  "atoms": [\n{atoms}\n{indent}  ]\n{indent}}}'

    def to_json(self) -> dict:
        return json.loads(self.to_text())

    @classmethod
    def from_json(cls, doc: dict) -> "ExplicitMeasure":
        """Inverse of to_json: {"n": N, "atoms": [{"x": bits, "p": rational}]}."""
        # JSON true and false are ints to isinstance; type() refuses them
        if not isinstance(doc, dict) or type(doc.get("n")) is not int:
            raise MalformedMeasure('a measure is a JSON object with an integer "n"')
        atoms = doc.get("atoms")
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and isinstance(a.get("x"), str) and "p" in a
            for a in atoms
        ):
            raise MalformedMeasure(
                '"atoms" must be a list of {"x": bitstring, "p": rational} objects'
            )
        try:
            return cls.from_atoms(doc["n"], [(a["x"], a["p"]) for a in atoms])
        except ValueError:  # checked only on failure, so a good file pays nothing
            bad = next((a["x"] for a in atoms if a["x"].strip("01")), None)
            if bad is None:
                raise
        raise MalformedMeasure(f'atom "x": {bad!r} is not a string of 0s and 1s')

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text() + "\n")

    @classmethod
    def load(cls, path) -> "ExplicitMeasure":
        return cls.from_json(_read_document(path))


def _read_document(path):
    """The JSON document at path; nesting too deep to parse is MalformedMeasure."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedMeasure(f"{path}: JSON nested too deeply") from None


def new_explicit(n: int, atoms: Iterable[tuple]) -> ExplicitMeasure:
    """Normalization-checked measure from (bitvector, rational) pairs."""
    return ExplicitMeasure.from_atoms(n, atoms)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


class TestFunction:
    """A rational-valued 1-Lipschitz function on {0,1}^n.

    Stored as one exact integer core: f(x) = nums[x] / den with integer
    numerators over a common denominator.  ``values`` builds Fractions on
    every read, for the API edge only.  The Lipschitz bound is verified
    on construction by checking every single-bit-flip edge;
    ``declared_monotone`` likewise via the coordinatewise order.
    """

    __slots__ = ("n", "den", "nums", "declared_monotone", "name")
    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(
        self,
        n: int,
        values,
        declared_monotone: bool = False,
        name: str = "f",
    ):
        if len(values) != 1 << n:
            raise BadWidth(f"need {1 << n} values for n={n}")
        values = [Fraction(v) for v in values]
        self.den = den = lcm(*(v.denominator for v in values))
        self.nums = [v.numerator * (den // v.denominator) for v in values]
        self.n, self.declared_monotone, self.name = n, bool(declared_monotone), name
        self._verify()

    @classmethod
    def _from_nums(cls, n: int, den: int, nums: list, declared_monotone, name):
        """f(x) = nums[x] / den from 2^n integer numerators."""
        f = object.__new__(cls)
        f.n, f.den, f.nums = n, den, nums
        f.declared_monotone, f.name = declared_monotone, name
        f._verify()
        return f

    @property
    def values(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums]

    def _verify(self):
        """Raise at the first bad edge in the order (x, pos), x over the
        points with bit pos clear."""
        n, den = self.n, self.den
        big = max(den, *map(abs, self.nums))
        # no value or step between two values exceeds 2 * big
        vals = np.array(self.nums, dtype=_exact_dtype(2 * big))
        bad = np.zeros((1 << n, n), dtype=bool)
        for pos in range(n):
            pairs = vals.reshape(-1, 2, 1 << pos)
            step = pairs[:, 1] - pairs[:, 0]
            edge = abs(step) > den
            if self.declared_monotone:
                edge |= step < 0
            bad.reshape(-1, 2, 1 << pos, n)[:, 0, :, pos] = edge
        hits = np.flatnonzero(bad)  # row-major: ascending x, then pos
        if hits.size:
            x, pos = divmod(int(hits[0]), n)
            step = Fraction(self.nums[x | 1 << pos] - self.nums[x], den)
            if abs(step) > 1:
                raise InvalidTestFunction(
                    f"{self.name}: flip of x{pos + 1} changes value by {step}"
                )
            raise InvalidTestFunction(f"{self.name}: not monotone along x{pos + 1}")

    def __call__(self, mask: int) -> Fraction:
        return Fraction(self.nums[mask], self.den)

    def exact_range(self) -> tuple[Fraction, Fraction]:
        return Fraction(min(self.nums), self.den), Fraction(max(self.nums), self.den)

    @classmethod
    def from_callable(
        cls, n: int, fn: Callable[[tuple[int, ...]], object], **kw
    ) -> "TestFunction":
        vals = []
        for mask in range(1 << n):
            bits = tuple(mask >> pos & 1 for pos in range(n))
            vals.append(parse_rational(fn(bits)))
        return cls(n, vals, **kw)


def sum_function(n: int) -> TestFunction:
    nums = [mask.bit_count() for mask in range(1 << n)]
    return TestFunction._from_nums(n, 1, nums, True, "sum")


def constant_function(n: int, value=0) -> TestFunction:
    v = parse_rational(value)
    nums = [v.numerator] * (1 << n)
    return TestFunction._from_nums(n, v.denominator, nums, True, f"const({v})")


def xor_function(n: int) -> TestFunction:
    nums = [mask.bit_count() & 1 for mask in range(1 << n)]
    return TestFunction._from_nums(n, 1, nums, False, "xor")


def random_lipschitz(n: int, rng, monotone: bool = False) -> TestFunction:
    """Seeded random 1-Lipschitz function with exact rational values.

    Built as a min (or max) of three affine pieces with per-coordinate
    slopes in [-1, 1] (in [0, 1] when monotone), quantized to quarters, so
    the Lipschitz bound holds exactly and by construction.
    """
    combine = min if rng.random() < 0.5 else max
    low = 0 if monotone else -4
    terms = []  # each piece's value at every mask, in quarters
    for _ in range(3):
        q = [rng.randint(-12, 12)]
        for slope in [rng.randint(low, 4) for _ in range(n)]:
            q += [v + slope for v in q]  # the masks with the next bit set
        terms.append(q)
    return TestFunction._from_nums(
        n,
        4,
        [combine(c) for c in zip(*terms)],
        monotone,
        f"rand({'mono' if monotone else 'free'})",
    )


# ---------------------------------------------------------------------------
# Measure families
# ---------------------------------------------------------------------------


def family_nand(n: int) -> ExplicitMeasure:
    """x2..xn i.i.d. fair bits; x1 = 1 unless all the others are 1.

    The first variable has a large influence on the rest: revealing x1 = 0
    forces every other variable to 1.  This is the family that separates
    fixed-ordering martingales from the adaptive ordering.
    """
    if n < 2:
        raise BadWidth("nand family needs n >= 2")
    _check_width(n)
    last = (1 << (n - 1)) - 1
    weights = {(rest != last) | (rest << 1): 1 for rest in range(last + 1)}
    return ExplicitMeasure._from_weights(n, weights)


def family_independent(probs) -> ExplicitMeasure:
    """Product measure with P[x_i = 1] = probs[i-1]."""
    probs = [parse_rational(p) for p in probs]
    n = len(probs)
    if n < 1:
        raise BadWidth("need at least one probability")
    _check_width(n)
    if any(p < 0 or p > 1 for p in probs):
        raise NegativeMass("probabilities must lie in [0, 1]")
    # weights over the product of the denominators
    weights: dict[int, int] = {0: 1}
    for pos, p in enumerate(probs):
        one, zero = p.numerator, p.denominator - p.numerator
        nxt: dict[int, int] = {}
        for key, w in weights.items():
            if zero:
                nxt[key] = w * zero
            if one:
                nxt[key | (1 << pos)] = w * one
        weights = nxt
    return ExplicitMeasure._from_weights(n, weights)


def family_conditioned_sum(probs, lo: int, hi: int) -> ExplicitMeasure:
    """Independent bits conditioned on lo <= sum x_i <= hi."""
    base = family_independent(probs)
    _, w = base.scaled_weights()
    weights = {k: v for k, v in w.items() if lo <= k.bit_count() <= hi}
    if not weights:
        raise EmptyConditioningEvent(f"no outcomes with sum in [{lo}, {hi}]")
    return ExplicitMeasure._from_weights(base.n, weights)


def family_balls_bins(balls: int, bins: int) -> ExplicitMeasure:
    """Occupancy indicators B_ij for balls thrown uniformly into bins.

    Variable indexing is ball-major: indicator (ball i, bin j) is variable
    (i-1)*bins + j.  n = balls*bins must stay within the measure cap.
    """
    if balls < 1 or bins < 1:
        raise BadWidth("balls and bins must be positive")
    n = balls * bins
    _check_width(n)
    weights: dict[int, int] = {}
    for outcome in range(bins**balls):
        key = 0
        rem = outcome
        for ball in range(balls):
            bin_ = rem % bins
            rem //= bins
            key |= 1 << (ball * bins + bin_)
        weights[key] = weights.get(key, 0) + 1
    return ExplicitMeasure._from_weights(n, weights)


def family_hadamard(order: int) -> ExplicitMeasure:
    """Uniform over Sylvester-Hadamard columns, rows mapped to {0,1} bits.

    Row 1 is constantly +1 and is dropped, leaving order-1 pairwise
    independent fair bits that are far from jointly independent: all of
    them equal 1 with probability 1/order.
    """
    if order < 2 or order & (order - 1):
        raise BadWidth("order must be a power of two, at least 2")
    n = order - 1
    _check_width(n)
    weights: dict[int, int] = {}
    for col in range(order):
        key = 0
        for row in range(1, order):
            # Sylvester entry H[row][col] = (-1)^{popcount(row & col)}
            if (row & col).bit_count() % 2 == 0:
                key |= 1 << (row - 1)
        weights[key] = weights.get(key, 0) + 1
    return ExplicitMeasure._from_weights(n, weights)


def family_anti_pair() -> ExplicitMeasure:
    """Perfectly anti-correlated pair: uniform on {01, 10}."""
    return ExplicitMeasure._from_weights(2, {0b01: 1, 0b10: 1})


def family_pos_pair() -> ExplicitMeasure:
    """Perfectly correlated pair: uniform on {00, 11}.  Violates every
    negative-dependence notion; lives in the zoo as the universal foil."""
    return ExplicitMeasure._from_weights(2, {0b00: 1, 0b11: 1})


_PROBS = ("p1,p2,...", lambda text: [parse_rational(t) for t in text.split(",")])
# each family's builder, then one (ARG, parser) pair per :-part after its name
FAMILIES = {
    "nand": (family_nand, ("N", int)),
    "independent": (family_independent, _PROBS),
    "condsum": (family_conditioned_sum, _PROBS, ("LO", int), ("HI", int)),
    "balls_bins": (family_balls_bins, ("BALLS", int), ("BINS", int)),
    "hadamard": (family_hadamard, ("ORDER", int)),
    "anti_pair": (family_anti_pair,),
    "pos_pair": (family_pos_pair,),
}


def _form(name: str) -> str:
    return ":".join([name, *(arg for arg, _ in FAMILIES[name][1:])])


FAMILY_HELP = (
    f"family spec grammar: {' | '.join(map(_form, FAMILIES))} "
    "(rationals as p/q or decimals)"
)


def parse_family(spec: str) -> ExplicitMeasure:
    """The measure a family spec such as ``condsum:1/2,1/2:1:1`` names."""
    name, *parts = spec.split(":")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; {FAMILY_HELP}")
    builder, *args = FAMILIES[name]
    wrong_form = ValueError(f"family {name} is written {_form(name)}; {FAMILY_HELP}")
    if len(parts) != len(args):
        raise wrong_form
    try:  # a part that is no number; the builder's own errors pass through
        values = [parse(part) for (_, parse), part in zip(args, parts)]
    except ValueError:
        raise wrong_form from None
    return builder(*values)


# the catalog as family specs, in the order zoo() returns it
CATALOG = {
    **{f"nand{n}": f"nand:{n}" for n in range(3, 9)},
    "independent_half4": "independent:1/2,1/2,1/2,1/2",
    "independent_mixed": "independent:1/3,2/3,1/4",
    "anti_pair": "anti_pair",
    "pos_pair": "pos_pair",
    "condsum_3_1_2": "condsum:1/2,1/2,1/2:1:2",
    "condsum_5_2_3": "condsum:1/2,1/2,1/2,1/2,1/2:2:3",
    "condsum_8_3_5": "condsum:1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2:3:5",
    "balls_bins_2_2": "balls_bins:2:2",
    "balls_bins_3_2": "balls_bins:3:2",
    "hadamard_4": "hadamard:4",
    "hadamard_8": "hadamard:8",
}


def zoo() -> dict[str, ExplicitMeasure]:
    """Fresh instances of the whole catalog, keyed by stable names."""
    return {name: parse_family(spec) for name, spec in CATALOG.items()}


def random_measure(
    n: int, rng: random.Random, max_weight: int = 8
) -> ExplicitMeasure:
    """A random measure with small integer weights; support is random
    but never empty.  Denominators stay small, keeping downstream exact
    arithmetic fast."""
    weights = [rng.randint(0, max_weight) for _ in range(1 << n)]
    if not any(weights):
        weights[rng.randrange(1 << n)] = 1
    return ExplicitMeasure._from_weights(
        n, {mask: w for mask, w in enumerate(weights) if w}
    )


__all__ = [
    "Assignment",
    "ExplicitMeasure",
    "TestFunction",
    "new_explicit",
    "parse_rational",
    "format_rational",
    "sum_function",
    "constant_function",
    "xor_function",
    "random_lipschitz",
    "family_nand",
    "family_independent",
    "family_conditioned_sum",
    "family_balls_bins",
    "family_hadamard",
    "family_anti_pair",
    "family_pos_pair",
    "zoo",
    "random_measure",
]
