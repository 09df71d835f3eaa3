"""Stochastic dominance and monotone couplings via exact max-flow.

Every computation is integer-exact: rational masses are rescaled to
integer weights, the transport problem is solved with Dinic's algorithm,
and feasibility is decided by comparing the integer max-flow value with
the integer target.  Floats never appear.

The transport network for a pair (lower, upper) of measures has one node
per support atom on each side; an edge x -> y is admissible when x <= y
coordinatewise ("subset" mode) or additionally within Hamming distance 1
("covering" mode).  The lower measure is the stochastically smaller one:
a monotone coupling pairs x ~ lower with y ~ upper, x <= y.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .bitops import bits_from_mask, is_submask, mask_from_bits
from .errors import DimensionMismatch, DominanceFails
from .measure import ExplicitMeasure, format_rational, parse_rational

ZERO = Fraction(0)


class Dinic:
    """Integer max-flow (Dinic).  Deterministic for fixed edge-insert order."""

    __slots__ = ("graph", "_level", "_it")

    def __init__(self, num_nodes: int):
        self.graph: list[list[list[int]]] = [[] for _ in range(num_nodes)]
        self._level: list[int] = []
        self._it: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> tuple[int, int]:
        """Add a directed edge; returns a handle for flow queries."""
        handle = (u, len(self.graph[u]))
        self.graph[u].append([v, capacity, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])
        return handle

    def flow_on(self, handle: tuple[int, int], original_capacity: int) -> int:
        u, idx = handle
        return original_capacity - self.graph[u][idx][1]

    def _bfs(self, s: int, t: int) -> bool:
        level = [-1] * len(self.graph)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        self._level = level
        return level[t] >= 0

    def _dfs(self, u: int, t: int, limit: int) -> int:
        if u == t:
            return limit
        graph, level, it = self.graph, self._level, self._it
        while it[u] < len(graph[u]):
            edge = graph[u][it[u]]
            v, cap, rev = edge
            if cap > 0 and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(limit, cap))
                if pushed > 0:
                    edge[1] -= pushed
                    graph[v][rev][1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while self._bfs(s, t):
            self._it = [0] * len(self.graph)
            while True:
                pushed = self._dfs(s, t, 1 << 200)
                if pushed == 0:
                    break
                total += pushed
        return total

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (source side of a
        minimum cut once max_flow has run)."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _admissible(x: int, y: int, covering: bool) -> bool:
    if x & ~y:
        return False
    return not covering or (x ^ y).bit_count() <= 1


@dataclass
class TransportResult:
    feasible: bool
    flow_value: int
    target: int
    pair_flows: list[tuple[int, int, int]] = field(default_factory=list)
    left_cut: tuple[int, ...] = ()
    edges: int = 0


def transport(
    lower_items: list[tuple[int, int]],
    lower_total: int,
    upper_items: list[tuple[int, int]],
    upper_total: int,
    covering: bool = False,
    want_flows: bool = False,
) -> TransportResult:
    """Decide whether integer-weighted ``lower`` can be transported onto
    ``upper`` along admissible pairs; weights w/total are the masses.

    On success (and ``want_flows``) returns per-pair integer flows at the
    combined scale lower_total * upper_total.  On failure returns the
    lower-support keys on the source side of a minimum cut: a block whose
    mass cannot be routed.
    """
    nl, nr = len(lower_items), len(upper_items)
    source, sink = 0, nl + nr + 1
    target = lower_total * upper_total
    inf = target + 1
    net = Dinic(nl + nr + 2)
    left_handles = []
    for i, (_, w) in enumerate(lower_items):
        left_handles.append(net.add_edge(source, 1 + i, w * upper_total))
    for j, (_, w) in enumerate(upper_items):
        net.add_edge(1 + nl + j, sink, w * lower_total)
    middle = []
    for i, (x, _) in enumerate(lower_items):
        for j, (y, _) in enumerate(upper_items):
            if _admissible(x, y, covering):
                middle.append((i, j, net.add_edge(1 + i, 1 + nl + j, inf)))
    value = net.max_flow(source, sink)
    result = TransportResult(
        feasible=value == target, flow_value=value, target=target, edges=len(middle)
    )
    if result.feasible and want_flows:
        for i, j, handle in middle:
            f = net.flow_on(handle, inf)
            if f:
                result.pair_flows.append((lower_items[i][0], upper_items[j][0], f))
    if not result.feasible:
        side = net.residual_reachable(source)
        result.left_cut = tuple(
            key for i, (key, _) in enumerate(lower_items) if 1 + i in side
        )
    return result


# ---------------------------------------------------------------------------
# Down-set certificates
# ---------------------------------------------------------------------------


def up_closure(seeds, n: int) -> set[int]:
    """All points of {0,1}^n above some seed (including the seeds)."""
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for pos in range(n):
            y = x | (1 << pos)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def is_down_closed(masks, n: int) -> bool:
    points = set(masks)
    return all(
        x & ~(1 << pos) in points for x in points for pos in range(n)
    )


@dataclass(frozen=True)
class DominanceCertificate:
    """A down-closed witness set M with lower(M) < upper(M).

    By Strassen's theorem such a set certifies that no monotone coupling
    of (lower, upper) exists.
    """

    n: int
    down_set: tuple[int, ...]
    lower_mass: Fraction
    upper_mass: Fraction

    def to_json(self) -> dict:
        return {
            "kind": "down_set",
            "down_set": sorted(bits_from_mask(m, self.n) for m in self.down_set),
            "lower_mass": format_rational(self.lower_mass),
            "upper_mass": format_rational(self.upper_mass),
        }

    def check(self, lower: ExplicitMeasure, upper: ExplicitMeasure) -> bool:
        if not is_down_closed(self.down_set, self.n):
            return False
        points = set(self.down_set)
        lm = sum((p for k, p in lower.items() if k in points), ZERO)
        um = sum((p for k, p in upper.items() if k in points), ZERO)
        return lm == self.lower_mass and um == self.upper_mass and lm < um


@dataclass(frozen=True)
class InfeasibilityCut:
    """Hall-type witness for the covering transport: a block of
    lower-support atoms whose covering neighborhood is too light."""

    n: int
    block: tuple[int, ...]
    neighborhood: tuple[int, ...]
    lower_mass: Fraction
    upper_mass: Fraction

    def to_json(self) -> dict:
        return {
            "kind": "covering_cut",
            "block": sorted(bits_from_mask(m, self.n) for m in self.block),
            "neighborhood": sorted(
                bits_from_mask(m, self.n) for m in self.neighborhood
            ),
            "lower_mass": format_rational(self.lower_mass),
            "upper_mass": format_rational(self.upper_mass),
        }

    def check(self, lower: ExplicitMeasure, upper: ExplicitMeasure) -> bool:
        block = set(self.block)
        hood = {
            y
            for y, _ in upper.items()
            if any(_admissible(x, y, covering=True) for x in block)
        }
        if hood != set(self.neighborhood):
            return False
        lm = sum((p for k, p in lower.items() if k in block), ZERO)
        um = sum((p for k, p in upper.items() if k in hood), ZERO)
        return lm == self.lower_mass and um == self.upper_mass and lm > um


@dataclass(frozen=True)
class DominanceResult:
    dominates: bool
    certificate: Optional[DominanceCertificate]
    work: dict


def _sorted_scaled(m: ExplicitMeasure) -> tuple[list[tuple[int, int]], int]:
    total, weights = m.scaled_weights()
    items = sorted(weights.items(), key=lambda kv: bits_from_mask(kv[0], m.n))
    return items, total


def _mass_on(items: list[tuple[int, int]], total: int, points) -> Fraction:
    return Fraction(sum(w for k, w in items if k in points), total)


def down_set_certificate(
    lower: list[tuple[int, int]],
    lt: int,
    upper: list[tuple[int, int]],
    ut: int,
    block: tuple[int, ...],
    n: int,
) -> DominanceCertificate:
    """Turn the left side of an infeasible plain cut into a down-set witness.

    ``lower`` and ``upper`` are the (atom, integer weight) pairs that were
    transported, with totals ``lt`` and ``ut``.  The routable region for
    the block is its up-closure; the complement M is down-closed, misses
    the block's lower mass, and retains all the upper mass the block
    could not reach, so lower(M) < upper(M).
    """
    closed = up_closure(block, n)
    down = tuple(x for x in range(1 << n) if x not in closed)
    points = set(down)
    return DominanceCertificate(
        n=n,
        down_set=down,
        lower_mass=_mass_on(lower, lt, points),
        upper_mass=_mass_on(upper, ut, points),
    )


def covering_cut(
    lower: list[tuple[int, int]],
    lt: int,
    upper: list[tuple[int, int]],
    ut: int,
    block: tuple[int, ...],
    n: int,
) -> InfeasibilityCut:
    """Turn the left side of an infeasible covering cut into a Hall cut:
    the block outweighs the upper atoms within one raised coordinate."""
    order = lambda m: bits_from_mask(m, n)
    blocked = set(block)
    hood = tuple(sorted(
        (y for y, _ in upper if any(_admissible(x, y, True) for x in blocked)),
        key=order,
    ))
    return InfeasibilityCut(
        n=n,
        block=tuple(sorted(blocked, key=order)),
        neighborhood=hood,
        lower_mass=_mass_on(lower, lt, blocked),
        upper_mass=_mass_on(upper, ut, set(hood)),
    )


def check_dominance(lower: ExplicitMeasure, upper: ExplicitMeasure) -> DominanceResult:
    """Does ``upper`` stochastically dominate ``lower``?

    Equivalent formulations checked by one max-flow: a coupling with
    x <= y exists; every up-set satisfies upper(A) >= lower(A); every
    down-set satisfies lower(M) >= upper(M).  A failing down-set is
    returned as the certificate.
    """
    if lower.n != upper.n:
        raise DimensionMismatch("measures live on different cubes")
    left, lt = _sorted_scaled(lower)
    right, ut = _sorted_scaled(upper)
    res = transport(left, lt, right, ut, covering=False)
    work = {
        "atoms_lower": len(left),
        "atoms_upper": len(right),
        "edges": res.edges,
        "flow": res.flow_value,
        "target": res.target,
    }
    if res.feasible:
        return DominanceResult(True, None, work)
    cert = down_set_certificate(left, lt, right, ut, res.left_cut, lower.n)
    return DominanceResult(False, cert, work)


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------


@dataclass
class Coupling:
    """A joint law on pairs (x, y) with x ~ lower, y ~ upper, x <= y.

    In covering mode the support additionally satisfies |y| - |x| <= 1,
    so y flips at most one coordinate of x upward.
    """

    lower: ExplicitMeasure
    upper: ExplicitMeasure
    mass: dict[tuple[int, int], Fraction]
    covering: bool = False

    @property
    def n(self) -> int:
        return self.lower.n

    def pairs(self) -> Iterator[tuple[int, int, Fraction]]:
        n = self.n
        key = lambda xy: (bits_from_mask(xy[0], n), bits_from_mask(xy[1], n))
        for x, y in sorted(self.mass, key=key):
            yield x, y, self.mass[(x, y)]

    def validate(self) -> None:
        """Raise unless the marginal and support invariants all hold."""
        if self.lower.n != self.upper.n:
            raise DimensionMismatch("coupling marginals on different cubes")
        row: dict[int, Fraction] = {}
        col: dict[int, Fraction] = {}
        for (x, y), p in self.mass.items():
            if p < 0:
                raise ValueError("coupling mass must be nonnegative")
            if not is_submask(x, y):
                raise ValueError(
                    f"pair ({bits_from_mask(x, self.n)}, {bits_from_mask(y, self.n)})"
                    " is not coordinatewise increasing"
                )
            if self.covering and (x ^ y).bit_count() > 1:
                raise ValueError("covering coupling moves more than one coordinate")
            if p > 0:
                row[x] = row.get(x, ZERO) + p
                col[y] = col.get(y, ZERO) + p
        if row != dict(self.lower.items()):
            raise ValueError("first marginal does not match the lower measure")
        if col != dict(self.upper.items()):
            raise ValueError("second marginal does not match the upper measure")

    def displacement(self) -> Fraction:
        """Expected number of coordinates raised, sum of p * (|y| - |x|)."""
        return sum(
            (p * (y.bit_count() - x.bit_count()) for (x, y), p in self.mass.items()),
            ZERO,
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "covering": self.covering,
            "pairs": [
                {
                    "x": bits_from_mask(x, self.n),
                    "y": bits_from_mask(y, self.n),
                    "p": format_rational(p),
                }
                for x, y, p in self.pairs()
            ],
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Coupling":
        lower = ExplicitMeasure.from_json(doc["lower"])
        upper = ExplicitMeasure.from_json(doc["upper"])
        mass: dict[tuple[int, int], Fraction] = {}
        for entry in doc["pairs"]:
            key = (mask_from_bits(entry["x"]), mask_from_bits(entry["y"]))
            mass[key] = mass.get(key, ZERO) + parse_rational(entry["p"])
        return cls(lower=lower, upper=upper, mass=mass, covering=bool(doc.get("covering")))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Coupling":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def build_monotone_coupling(
    lower: ExplicitMeasure, upper: ExplicitMeasure, covering_mode: bool = False
) -> Coupling:
    """Construct a monotone coupling of (lower, upper), or raise
    DominanceFails carrying a certificate.

    Plain mode fails with a down-set witness; covering mode fails with a
    Hall-type cut (a lower block heavier than its covering neighborhood).
    The construction is deterministic: the transport network is built in
    bitstring order and the blocking-flow solution is unique given that
    order.
    """
    if lower.n != upper.n:
        raise DimensionMismatch("measures live on different cubes")
    left, lt = _sorted_scaled(lower)
    right, ut = _sorted_scaled(upper)
    res = transport(left, lt, right, ut, covering=covering_mode, want_flows=True)
    if res.feasible:
        scale = res.target
        mass = {
            (x, y): Fraction(f, scale) for x, y, f in res.pair_flows
        }
        coupling = Coupling(lower=lower, upper=upper, mass=mass, covering=covering_mode)
        coupling.validate()
        return coupling
    if covering_mode:
        raise DominanceFails(
            "no covering coupling: a lower block outweighs its neighborhood",
            certificate=covering_cut(left, lt, right, ut, res.left_cut, lower.n),
        )
    raise DominanceFails(
        "upper measure does not stochastically dominate the lower measure",
        certificate=down_set_certificate(left, lt, right, ut, res.left_cut, lower.n),
    )


def coupling_displacement(c: Coupling) -> Fraction:
    """Expected l1 movement of the coupling; equals the difference of the
    marginals' expected coordinate sums, for any valid coupling."""
    return c.displacement()


__all__ = [
    "Dinic",
    "transport",
    "TransportResult",
    "up_closure",
    "is_down_closed",
    "DominanceCertificate",
    "InfeasibilityCut",
    "down_set_certificate",
    "covering_cut",
    "DominanceResult",
    "check_dominance",
    "Coupling",
    "build_monotone_coupling",
    "coupling_displacement",
]
