"""Differential tests for the Rayleigh scan's point stream.

`rayleigh_falsify` reads every grid as one stream of (numerators,
denominators) points; a malformed user point ends the stream with its
error, which the scan raises once the points before it are scanned
clean.  The reader it replaced, a generator that raised on the bad point
and a `_take` that caught the error and handed it back beside the points
before it, is frozen below with its scan loop and its seeded default
grid.  On every input both must give the same report, or raise the same
exception type with the same message.
"""

import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import negdep.dependence as dependence
from negdep.bitops import _INT64_MAX, _limb_width, refuse_over_cap
from negdep.dependence import (
    Notion,
    NotionReport,
    Verdict,
    default_rayleigh_grid,
    rayleigh_falsify,
)
from negdep.errors import DimensionMismatch
from negdep.measure import (
    ExplicitMeasure,
    family_anti_pair,
    family_hadamard,
    family_pos_pair,
    format_rational,
    random_measure,
    zoo,
)

# -- the reader and scan loop, frozen -----------------------------------------


def frozen_default_points(n: int, seed: int = 0):
    if n <= 5:
        ones = (1,) * n
        return 5 ** n, ((p, ones) for p in itertools.product((-2, -1, 0, 1, 2), repeat=n))
    rng = random.Random(seed)
    points = []
    for _ in range(1000):
        point = [(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
        points.append(tuple(zip(*point)))
    return 1000, iter(points)


def frozen_integer_points(grid, n: int):
    for z in grid:
        if len(z) != n:
            raise DimensionMismatch("grid point has wrong length")
        zf = [Fraction(c) for c in z]
        yield tuple(int(c.numerator) for c in zf), tuple(int(c.denominator) for c in zf)


def frozen_take(points, size: int):
    nums, dens = [], []
    try:
        for p, q in itertools.islice(points, size):
            nums.append(p)
            dens.append(q)
    except (DimensionMismatch, TypeError, ValueError, ArithmeticError) as exc:
        return nums, dens, exc
    return nums, dens, None


def frozen_rayleigh_falsify(m, grid=None) -> NotionReport:
    n = m.n
    if grid is None:
        refuse_over_cap("rayleigh", n)
        points, source = frozen_default_points(n)
    else:
        points, source = len(grid), frozen_integer_points(grid, n)
    d, w = m.scaled_weights()
    bits = np.array([[[key >> l & 1 for key in w]] for l in range(n)], dtype=bool)
    weights = list(w.values())
    pairs = list(itertools.combinations(range(n), 2))
    keep = np.array([[l for l in range(n) if l not in p] for p in pairs], dtype=np.intp)
    tables = {}
    cap = max(1, dependence._SCAN_ELEMENTS // (len(w) * n))
    evaluations = 0
    size = 1
    while True:
        nums, dens, error = frozen_take(source, size)
        if nums and pairs:
            deltas = dependence._rayleigh_deltas(bits, pairs, keep, weights, d, nums, dens, tables)
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
                return NotionReport(Notion.RAYLEIGH, Verdict.VIOLATION_FOUND, cert,
                                    {"points": points, "evaluations": evaluations + first + 1})
            evaluations += deltas.size
        if error is not None:
            raise error
        if len(nums) < size:
            break
        size = min(2 * size, cap)
    return NotionReport(Notion.RAYLEIGH, Verdict.NO_VIOLATION_FOUND, None,
                        {"points": points, "evaluations": evaluations})


# -- comparison ----------------------------------------------------------------


def outcome(falsify, m, grid):
    try:
        return "report", falsify(m, grid).to_json()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return "raised", type(exc), str(exc)


def assert_same(m, grid=None):
    want = outcome(frozen_rayleigh_falsify, m, grid)
    assert outcome(rayleigh_falsify, m, grid) == want
    return want


@pytest.fixture(params=[None, 1, 64], ids=["default", "elements1", "elements64"])
def scan_elements(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(dependence, "_SCAN_ELEMENTS", request.param)
    return request.param


def default_grid_measures():
    rng = random.Random(27)
    measures = list(zoo().values())
    measures += [random_measure(n, rng) for n in range(1, 9) for _ in range(2)]
    return measures


def test_default_grid_reports_match(scan_elements):
    measures = default_grid_measures()
    if scan_elements is not None:  # one-point chunks build a class table per atom
        measures = [m for m in measures if m.n <= (4 if scan_elements == 1 else 6)]
    for m in measures:
        assert_same(m)


# -- user grids with one malformed point ------------------------------------------

# the bad point, by kind: a whole point that is malformed, or one coordinate
BAD_POINTS = {
    "long": lambda n: (0,) * (n + 1),
    "int": lambda n: 5,
    "text": lambda n: ("x",) + (0,) * (n - 1),
    "none": lambda n: (1,) * (n - 1) + (None,),
    "zero_den": lambda n: ("1/0",) + (1,) * (n - 1),
    "nan": lambda n: (1,) * (n - 1) + (float("nan"),),
    "inf": lambda n: (float("inf"),) + (1,) * (n - 1),
}
# the first point, the second, both sides of each chunk boundary of a
# scan whose chunks double (1, 3, 7, 15, 31), and the last
POSITIONS = (0, 1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 30, 31, 32, -1)


def _hadamard_times_coins(n: int) -> ExplicitMeasure:
    """hadamard_4 on x1..x3 times independent 1/3 coins on the rest: a
    pair inside the block has hadamard_4's Rayleigh difference times
    squares of the coins' factors 2/3 + z_l/3, every other pair 0."""
    atoms = []
    for key, p in family_hadamard(4).items():
        for rest in range(1 << (n - 3)):
            k = bin(rest).count("1")
            atoms.append((key | rest << 3, p * Fraction(1, 3) ** k * Fraction(2, 3) ** (n - 3 - k)))
    return ExplicitMeasure.from_atoms(n, atoms)


def _grid_parts(n: int, rng: random.Random):
    """(measure, a violating point or None, 40 seeded clean points)."""
    if n == 2:  # a difference at n = 2 is the same at every point
        m = family_anti_pair()
        return m, None, [(rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 5)) for _ in range(40)]
    m, block = _hadamard_times_coins(n), family_hadamard(4)
    clean = []
    while len(clean) < 40:
        z = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if rayleigh_falsify(block, grid=[z]).verdict is Verdict.NO_VIOLATION_FOUND:
            clean.append(z + tuple(rng.randint(-1, 3) for _ in range(n - 3)))
    return m, (-2, -2, -2) + (1,) * (n - 3), clean


def _placements(size: int):
    """Where the bad point goes in a grid of `size` clean points."""
    return sorted({size if p == -1 else p for p in POSITIONS if p <= size})


# one-point chunks build a class table per atom, so they run to n = 4
@pytest.mark.parametrize("elements, n", [(e, n) for e in (None, 1, 64) for n in range(2, 7)
                                         if e != 1 or n <= 4])
def test_user_grid_with_a_malformed_point(monkeypatch, elements, n):
    if elements is not None:
        monkeypatch.setattr(dependence, "_SCAN_ELEMENTS", elements)
    rng = random.Random(100 + n)
    m, hit, clean = _grid_parts(n, rng)
    assert rayleigh_falsify(m, grid=clean).verdict is Verdict.NO_VIOLATION_FOUND
    seen = set()
    for size in (0, 1, 2, 9, 40):
        for make in BAD_POINTS.values():
            for at in _placements(size):
                # no violation; one just before the bad point, one just
                # after it, and one at a seeded earlier position
                extras = [None] if hit is None else [None, at, at + 1]
                if at and hit is not None:
                    extras.append(rng.randrange(at))
                for extra in extras:
                    grid = clean[:at] + [make(n)] + clean[at:size]
                    if extra is not None:
                        grid.insert(extra, hit)
                    seen.add(assert_same(m, grid)[0])
    assert seen == ({"raised"} if hit is None else {"report", "raised"})


def test_every_point_violates_at_two_variables(scan_elements):
    m = family_pos_pair()
    for make in BAD_POINTS.values():
        for at in (0, 1, 2, 3, 7):
            grid = [(1, 1)] * at + [make(2)] + [(2, 1)] * 5
            assert assert_same(m, grid)[0] == ("raised" if at == 0 else "report")


def test_malformed_points_raise_what_fraction_raises():
    m = family_hadamard(4)
    expect = {"long": DimensionMismatch, "int": TypeError, "text": ValueError, "none": TypeError,
              "zero_den": ZeroDivisionError, "nan": ValueError, "inf": OverflowError}
    for kind, make in BAD_POINTS.items():
        with pytest.raises(expect[kind]):
            rayleigh_falsify(m, grid=[(-1, -1, -1), make(3)])
        # the same point after a violation is never reached
        rep = rayleigh_falsify(m, grid=[(-2, -2, -2), make(3)])
        assert rep.verdict is Verdict.VIOLATION_FOUND


def test_error_ends_the_stream():
    stream = dependence._integer_points([(1, 2), (1,), (3, 4)], 2)
    first, error = next(stream), next(stream)
    assert first == ((1, 2), (1, 1))
    assert isinstance(error, DimensionMismatch)
    assert list(stream) == []


# -- the default grid ------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_default_grid_is_the_frozen_grid(n):
    want = [tuple(map(Fraction, p, q)) for p, q in frozen_default_points(n)[1]]
    assert default_rayleigh_grid(n) == want


def test_no_function_takes_a_seed():
    assert list(inspect.signature(default_rayleigh_grid).parameters) == ["n"]
    for name, fn in inspect.getmembers(dependence, inspect.isfunction):
        if fn.__module__ == dependence.__name__:
            assert "seed" not in inspect.signature(fn).parameters, name


# -- one width rule --------------------------------------------------------------


def test_one_pass_width_is_the_full_weight_width():
    # where 2 (D big)^2 fits int64, the limb width bound never cuts below
    # bitlen(D): atoms (2^L - 1) big < 2 (D big)^2 at L = bitlen(D)
    rng = random.Random(5)
    cases = [(1, 1, 1), (1, 2, 1), (2, 2, 1), (3, 3, 1)]
    for _ in range(3000):
        d = rng.choice([rng.randint(1, 64), 1 << rng.randint(1, 30), rng.randint(1, 1 << 31)])
        big = rng.choice([1, rng.randint(1, 1 << 16), rng.randint(1, max(1, math.isqrt(
            _INT64_MAX // 2) // d))])
        cases.append((rng.randint(1, d), d, big))
    for atoms, d, big in cases:
        if 2 * (d * big) ** 2 <= _INT64_MAX:
            assert _limb_width(atoms, big) >= d.bit_length(), (atoms, d, big)
