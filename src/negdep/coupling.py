"""Stochastic dominance and monotone couplings via exact max-flow.

Every computation is integer-exact: rational masses are rescaled to
integer weights, the transport problem is solved with Dinic's algorithm,
and feasibility is decided by comparing the integer max-flow value with
the integer target.  Floats never appear.

The lower measure is the stochastically smaller one: a monotone coupling
pairs x ~ lower with y ~ upper, x <= y coordinatewise ("subset" mode),
and in "covering" mode additionally within Hamming distance 1.  Both
modes solve one max-flow from the lower atoms to the upper atoms.

- Subset mode routes through the Hasse diagram of the cube, on the region
  R = (up(supp lower) & down(supp upper)) | supp lower: source -> x,
  infinite arcs p -> p | e_i inside R, y -> sink.  The cube's dimension
  is the bit length of the OR of all keys.  One walk pops each point p
  of R once from a heap seeded with supp lower and lists its steps inside
  down(supp upper) | supp lower; every step is above p, and larger for a
  larger i, so points and arcs come out sorted.  That network is used
  only when it has fewer arcs than |supp lower| * |supp upper|: the walk
  stops once it lists that many arcs, and the closure down(supp upper)
  once it passes that many points.  Otherwise (sparse supports in a
  large cube) the bipartite network of all pairs x <= y is built.
- Covering mode keeps the bipartite network: each lower atom x is joined
  to the upper atoms x and x | e_j, in upper order.

Both subset networks have the same cut value over lower blocks, so they
agree on feasibility (Strassen) and on the lower atoms left of the
minimal minimum cut, which is what ``left_cut`` reports (Picard and
Queyranne).  Couplings are read off a feasible flow by a deterministic
path decomposition; on the bipartite network that returns the arc flows.

``Dinic`` keeps its edges in flat lists.  A phase labels nodes by
residual distance to the sink (a BFS along reversed arcs that stops once
the source has its label); its walk holds the path as edge ids and steps
only to a node one closer to the sink.  From the source these are the
forward level graph's arcs whose heads still reach the sink, in the same
order, so the walk makes the augmentations of levels from the source,
minus descents into nodes dead from the start.  At the sink it pushes
the path's smallest capacity and resumes at the tail of the first
saturated edge, where a restarted walk would arrive; a node found dead
stays dead for the phase.  Run forward to the end, the BFS gives the
residual side of the cut.  So every flow, cut and coupling depends only
on the order in which edges were added.  Up-closures are the complements
of down-closures of the complemented seeds, one walk for both.  A
coupling's JSON document is written as text from the integers
(``Coupling.to_text``).
"""

from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain
from typing import Iterator, Optional

from .bitops import bits_from_mask, is_submask, mask_from_bits
from .errors import BadWidth, DimensionMismatch, DominanceFails, MalformedMeasure
from .measure import ExplicitMeasure, format_ratio, format_rational
from .measure import _read_document, parse_ratio, sum_over_lcm

ZERO = Fraction(0)


class Dinic:
    """Integer max-flow (Dinic).  Deterministic for fixed edge-insert order.

    Edge ``e`` ends at ``head[e]`` with residual capacity ``cap[e]``;
    ``e ^ 1`` is its reverse, and ``adj[u]`` lists u's edge ids in order.
    Each phase labels nodes by their residual distance to the sink.
    """

    __slots__ = ("head", "cap", "adj")

    def __init__(self, num_nodes: int):
        self.head: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge; returns its id, the handle for flow queries."""
        e = len(self.head)
        self.head += (v, u)
        self.cap += (capacity, 0)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def flow_on(self, handle: int, original_capacity: int) -> int:
        return original_capacity - self.cap[handle]

    def _levels(self, s: int, t: int, back: int = 0) -> list[int]:
        """Residual BFS distances from s, -1 where unreached; with back = 1
        arcs are walked backwards (cap[e ^ 1]), so they are distances to s.
        The BFS stops once t has its label (t = -1 never does)."""
        head, cap, adj = self.head, self.cap, self.adj
        dist = [-1] * len(adj)
        dist[s] = 0
        queue = [s]
        for u in queue:  # the loop also visits what it appends
            for e in adj[u]:
                if cap[e ^ back] and dist[v := head[e]] < 0:
                    dist[v] = dist[u] + 1
                    if v == t:
                        return dist
                    queue.append(v)
        return dist

    def max_flow(self, s: int, t: int) -> int:
        head, cap, adj = self.head, self.cap, self.adj
        total = 0
        while (dist := self._levels(t, s, 1))[s] >= 0:  # distances to t
            it = [0] * len(adj)  # each node's next edge to try
            path: list[int] = []  # the edge ids from s to u
            u = s
            while True:
                edges, down = adj[u], dist[u] - 1
                for i in range(it[u], len(edges)):
                    e = edges[i]
                    if cap[e] and dist[head[e]] == down:
                        break
                else:  # a dead end: drop it for the phase and step back
                    if not path:
                        break
                    dist[u] = -1
                    u = head[path.pop() ^ 1]
                    it[u] += 1
                    continue
                it[u] = i
                path.append(e)
                u = head[e]
                if u == t:
                    pushed = min(map(cap.__getitem__, path))
                    total += pushed
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    for k, e in enumerate(path):  # resume at the first saturated one
                        if not cap[e]:
                            u = head[e ^ 1]
                            del path[k:]
                            break
        return total

    def residual_reachable(self, s: int) -> set[int]:
        """Nodes reachable from s in the residual graph (source side of a
        minimum cut once max_flow has run)."""
        return {v for v, lv in enumerate(self._levels(s, -1)) if lv >= 0}


def up_steps(p: int, members, d: int) -> list[int]:
    """The points p | e_i of ``members`` above p, i ascending: p's arcs in
    the Hasse diagram of {0,1}^d."""
    return [q for i in range(d) if (q := p | 1 << i) != p and q in members]


def _down_closure(seeds, budget: int) -> Optional[set[int]]:
    """Every point below some seed, or None once there are more than
    ``budget`` of them."""
    down = set(seeds)
    stack = list(down)
    while stack:
        p = stack.pop()
        rest = p
        while rest:
            q = p ^ (rest & -rest)
            rest &= rest - 1
            if q not in down:
                down.add(q)
                if len(down) > budget:
                    return None
                stack.append(q)
    return down


def _cube_network(lower_keys, upper_keys, d: int):
    """(points, arcs) of the Hasse network on the region
    R = (up(lower) & down(upper)) | lower, both sorted, from one ascending
    walk; None once it lists the |lower|*|upper| arcs of the bipartite
    scan."""
    budget = len(lower_keys) * len(upper_keys)
    members = _down_closure(upper_keys, budget)
    if members is None:
        return None
    members.update(lower_keys)
    region = set(lower_keys)
    heap = sorted(region)
    points, arcs = [], []
    while heap:
        p = heapq.heappop(heap)
        points.append(p)
        above = up_steps(p, members, d)
        arcs += [(p, q) for q in above]
        if len(arcs) >= budget:
            return None
        for q in above:
            if q not in region:
                region.add(q)
                heapq.heappush(heap, q)
    return points, arcs


def _bipartite_arcs(lower_keys, upper_keys, covering: bool, d: int):
    """Index pairs (i, j) with lower_keys[i] <= upper_keys[j] (and within
    one raised coordinate when covering), in (i, then j) order."""
    if not covering:
        return [(i, j) for i, x in enumerate(lower_keys)
                for j, y in enumerate(upper_keys) if not x & ~y]
    index = {y: j for j, y in enumerate(upper_keys)}
    return [
        (i, j)
        for i, x in enumerate(lower_keys)
        for j in sorted(index[y] for y in (x, *up_steps(x, index, d)) if y in index)
    ]


@dataclass
class TransportResult:
    feasible: bool
    flow_value: int
    target: int
    pair_flows: list[tuple[int, int, int]] = field(default_factory=list)
    left_cut: tuple[int, ...] = ()
    edges: int = 0
    network: str = "bipartite"


SOURCE, SINK = 0, 1


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

    Subset mode routes on the cube's Hasse network when that has fewer
    arcs than the bipartite one, covering mode always on the bipartite
    network of covering pairs.  On success (and ``want_flows``) returns
    per-pair integer flows at the combined scale lower_total *
    upper_total.  On failure returns the lower-support keys on the source
    side of the minimal minimum cut: a block whose mass cannot be routed.
    """
    lower_keys = [x for x, _ in lower_items]
    upper_keys = [y for y, _ in upper_items]
    d = reduce(operator.or_, lower_keys + upper_keys, 0).bit_length()
    cube = None if covering else _cube_network(lower_keys, upper_keys, d)
    if cube is None:
        nl = len(lower_keys)
        lower_nodes = range(2, 2 + nl)
        upper_nodes = range(2 + nl, 2 + nl + len(upper_keys))
        arcs = [
            (2 + i, 2 + nl + j)
            for i, j in _bipartite_arcs(lower_keys, upper_keys, covering, d)
        ]
        size = 2 + nl + len(upper_keys)
    else:
        points, steps = cube
        node = {p: 2 + k for k, p in enumerate(points)}
        lower_nodes = [node[x] for x in lower_keys]
        upper_nodes = [node.get(y) for y in upper_keys]
        arcs = [(node[p], node[q]) for p, q in steps]
        size = 2 + len(points)
    target = lower_total * upper_total
    inf = target + 1
    net = Dinic(size)
    for (_, w), u in zip(lower_items, lower_nodes):
        net.add_edge(SOURCE, u, w * upper_total)
    sinks = {
        v: (y, net.add_edge(v, SINK, w * lower_total), w * lower_total)
        for (y, w), v in zip(upper_items, upper_nodes)
        if v is not None
    }
    middle = [(u, v, net.add_edge(u, v, inf)) for u, v in arcs]
    value = net.max_flow(SOURCE, SINK)
    result = TransportResult(
        feasible=value == target,
        flow_value=value,
        target=target,
        edges=len(arcs),
        network="bipartite" if cube is None else "cube",
    )
    if result.feasible and want_flows:
        result.pair_flows = _path_flows(
            net, middle, inf, sinks, zip(lower_items, lower_nodes), upper_total
        )
    if not result.feasible:
        side = net.residual_reachable(SOURCE)
        result.left_cut = tuple(
            x for x, u in zip(lower_keys, lower_nodes) if u in side
        )
    return result


def _path_flows(net, middle, inf, sinks, lower_starts, upper_total):
    """Decompose a feasible flow into source-to-sink paths, per lower atom
    in the given order: walk up the first arc that still carries flow,
    stop at the first node with sink flow left, and move the path's
    bottleneck.  ``middle`` holds the (tail, head, handle) arcs in
    insertion order and ``sinks`` the (upper key, handle, capacity) of
    each sink arc by node.  Returns the (x, y, flow) pairs, each pair
    once, in the order first reached; on a bipartite network every path
    is one arc, so these are the arcs that carry flow."""
    out: dict[int, list[list[int]]] = {}  # [head, flow left], first arc last
    for u, v, handle in reversed(middle):
        f = net.flow_on(handle, inf)
        if f:
            out.setdefault(u, []).append([v, f])
    left = {v: net.flow_on(handle, cap) for v, (_, handle, cap) in sinks.items()}
    flows: dict[tuple[int, int], int] = {}
    for (x, w), start in lower_starts:
        rest = w * upper_total
        while rest:
            u, amount, path = start, rest, []
            while not left.get(u):
                arcs = out[u]
                while not arcs[-1][1]:
                    arcs.pop()
                path.append(arcs[-1])
                amount = min(amount, arcs[-1][1])
                u = arcs[-1][0]
            amount = min(amount, left[u])
            for arc in path:
                arc[1] -= amount
            left[u] -= amount
            rest -= amount
            pair = (x, sinks[u][0])
            flows[pair] = flows.get(pair, 0) + amount
    return [(x, y, f) for (x, y), f in flows.items()]


# ---------------------------------------------------------------------------
# Down-set certificates
# ---------------------------------------------------------------------------


def up_closure(seeds, n: int) -> set[int]:
    """All points of {0,1}^n above some seed (including the seeds): the
    complements of the points below the complemented seeds."""
    full = (1 << n) - 1
    return {full ^ p for p in _down_closure([full ^ s for s in seeds], 1 << n)}


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
        hood = {y for y, _ in upper.items()
                if any(is_submask(x, y) and (x ^ y).bit_count() <= 1 for x in block)}
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
    atoms = {y for y, _ in upper}
    hood = tuple(sorted(
        {y for x in blocked for y in (x, *up_steps(x, atoms, n)) if y in atoms},
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
        "network": res.network,
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
    so y flips at most one coordinate of x upward.  Stored on integers:
    pair (x, y) has mass flows[(x, y)] / scale, scale > 0; ``validate``
    compares the flows' row and column sums with each measure's integer
    weights.  ``mass``, ``pairs()`` and ``displacement()`` build
    Fractions when read, for the API edge only; ``to_text`` writes the
    JSON document from the integers, and ``to_json`` reads it back.
    """

    lower: ExplicitMeasure
    upper: ExplicitMeasure
    flows: dict[tuple[int, int], int]
    scale: int
    covering: bool = False

    @property
    def n(self) -> int:
        return self.lower.n

    @property
    def mass(self) -> dict[tuple[int, int], Fraction]:
        return {xy: Fraction(f, self.scale) for xy, f in self.flows.items()}

    def pairs(self) -> Iterator[tuple[int, int, Fraction]]:
        n = self.n
        key = lambda xy: (bits_from_mask(xy[0], n), bits_from_mask(xy[1], n))
        for x, y in sorted(self.flows, key=key):
            yield x, y, Fraction(self.flows[(x, y)], self.scale)

    def validate(self) -> None:
        """Raise unless the marginal and support invariants all hold."""
        if self.lower.n != self.upper.n:
            raise DimensionMismatch("coupling marginals on different cubes")
        s = self.scale
        row, col = {}, {}  # the flows summed per x and per y
        for (x, y), f in self.flows.items():
            if f < 0:
                raise ValueError("coupling mass must be nonnegative")
            if not is_submask(x, y):
                raise ValueError(
                    f"pair ({bits_from_mask(x, self.n)}, {bits_from_mask(y, self.n)})"
                    " is not coordinatewise increasing"
                )
            if self.covering and (x ^ y).bit_count() > 1:
                raise ValueError("covering coupling moves more than one coordinate")
            if f > 0:
                row[x] = row.get(x, 0) + f
                col[y] = col.get(y, 0) + f
        d, w = self.lower.scaled_weights()
        if {x: f * d for x, f in row.items()} != {x: v * s for x, v in w.items()}:
            raise ValueError("first marginal does not match the lower measure")
        d, w = self.upper.scaled_weights()
        if {y: f * d for y, f in col.items()} != {y: v * s for y, v in w.items()}:
            raise ValueError("second marginal does not match the upper measure")

    def displacement(self) -> Fraction:
        """Expected coordinates raised: sum of p * (|y| - |x|) = E|upper| - E|lower|."""
        raised = sum(
            f * (y.bit_count() - x.bit_count()) for (x, y), f in self.flows.items()
        )
        return Fraction(raised, self.scale)

    def to_text(self) -> str:
        """The bytes of json.dumps(self.to_json(), indent=2), in one pass
        over the integers: a row per pair in the order of pairs(), each
        point's bit string built once, then both measures
        (`ExplicitMeasure.to_text`)."""
        n, s = self.n, self.scale
        bits = {k: bits_from_mask(k, n) for k in set(chain.from_iterable(self.flows))}
        rows = sorted((bits[x], bits[y], f) for (x, y), f in self.flows.items())
        pairs = ",\n".join(
            f'    {{\n      "x": "{x}",\n      "y": "{y}",\n      "p": "{format_ratio(f, s)}"\n    }}'
            for x, y, f in rows
        )
        pairs = f"[\n{pairs}\n  ]" if rows else "[]"  # json.dumps writes [] for no pairs
        return (
            f'{{\n  "n": {n},\n  "covering": {"true" if self.covering else "false"},\n'
            f'  "pairs": {pairs},\n  "lower": {self.lower.to_text("  ")},\n'
            f'  "upper": {self.upper.to_text("  ")}\n}}'
        )

    def to_json(self) -> dict:
        return json.loads(self.to_text())

    @classmethod
    def from_json(cls, doc: dict) -> "Coupling":
        """Inverse of to_json; repeated pairs are summed.  A document off
        the schema is MalformedMeasure, and an "n" or a bit string of
        another width than the measures' is BadWidth."""
        if not isinstance(doc, dict) or type(doc.get("n")) is not int:
            raise MalformedMeasure('a coupling is a JSON object with an integer "n"')
        n, pairs, covering = doc["n"], doc.get("pairs"), doc.get("covering", False)
        if not isinstance(covering, bool) or not pairs or not isinstance(pairs, list) or not all(
            isinstance(e, dict) and isinstance(e.get("x"), str) and isinstance(e.get("y"), str)
            and not (e["x"] + e["y"]).strip("01") and "p" in e for e in pairs
        ):
            raise MalformedMeasure('"covering" must be a boolean and "pairs" a nonempty list'
                                   ' of {"x": 0/1 string, "y": 0/1 string, "p": rational} objects')
        lower = ExplicitMeasure.from_json(doc.get("lower"))
        upper = ExplicitMeasure.from_json(doc.get("upper"))
        if {lower.n, upper.n, *(len(e[b]) for e in pairs for b in "xy")} != {n}:
            raise BadWidth(f"a coupling on {n} variables needs {n}-bit measures and pairs")
        scale, flows = sum_over_lcm([
            ((mask_from_bits(e["x"]), mask_from_bits(e["y"])), *parse_ratio(e["p"]))
            for e in pairs
        ])
        return cls(lower, upper, flows, scale, covering)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text() + "\n")

    @classmethod
    def load(cls, path) -> "Coupling":
        return cls.from_json(_read_document(path))


def build_monotone_coupling(
    lower: ExplicitMeasure, upper: ExplicitMeasure, covering_mode: bool = False
) -> Coupling:
    """Construct a monotone coupling of (lower, upper), or raise
    DominanceFails carrying a certificate.

    Plain mode fails with a down-set witness; covering mode fails with a
    Hall-type cut (a lower block heavier than its covering neighborhood).
    The construction is deterministic: the transport network is built in
    bitstring order, and the max-flow augments along the same paths for
    the same edge order (see the module docstring).
    """
    if lower.n != upper.n:
        raise DimensionMismatch("measures live on different cubes")
    left, lt = _sorted_scaled(lower)
    right, ut = _sorted_scaled(upper)
    res = transport(left, lt, right, ut, covering=covering_mode, want_flows=True)
    if res.feasible:
        flows = {(x, y): f for x, y, f in res.pair_flows}
        coupling = Coupling(lower, upper, flows, res.target, covering_mode)
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


__all__ = [
    "DominanceCertificate",
    "InfeasibilityCut",
    "down_set_certificate",
    "covering_cut",
    "DominanceResult",
    "check_dominance",
    "Coupling",
    "build_monotone_coupling",
]
