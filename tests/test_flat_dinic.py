"""The flat-array Dinic against a frozen copy of the recursive one.

``RecursiveDinic`` below is the engine the library used before its edges
moved into flat arrays: nested ``[head, capacity, reverse index]`` lists,
a BFS over the whole residual graph, and a recursive walk that starts
again from the source for every augmenting path.  The flat engine must
make the same augmentations in the same order, so on every network below
both must return the same flow value, the same flow on every edge and
the same residual-reachable set (the source side of the minimal minimum
cut).  The networks are the ones the library builds: cube and bipartite
transports in plain and covering mode, captured from ``transport``;
the transports that ``upsets.max_weight_upset`` runs for zero-sum
closure weights, some above 2^200, where the recursive engine's push
limit caps a path that the flat engine saturates in one push; and seeded
random graphs.

``ForwardDinic`` is a frozen copy of the flat engine as it was while its
phases were labelled by BFS levels from the source.  The engine now
labels each phase by residual distances to the sink, so its walk never
enters a node that cannot reach the sink; it must still make the same
augmentations, so it is compared with that copy on seeded layered graphs
with dead-end branches and on the large conditioned-sum transports of
the ``coupling_pairs`` benchmark.  Adjacency reads are counted there.

Every flow the flat engine runs in this file, in the library or on its
own, has a budget of adjacency reads, and a walk that runs past it
raises instead of looping.
"""

import random
from collections import deque
from dataclasses import astuple
from fractions import Fraction

import pytest

import negdep.coupling as coupling
import negdep.upsets as upsets
from negdep.coupling import Dinic, _sorted_scaled, transport
from negdep.measure import (
    Assignment,
    ExplicitMeasure,
    family_conditioned_sum,
    family_nand,
    random_measure,
)


class RecursiveDinic:
    """Frozen copy of the recursive engine (handles are (node, index))."""

    def __init__(self, num_nodes):
        self.graph = [[] for _ in range(num_nodes)]
        self._level = []
        self._it = []

    def add_edge(self, u, v, capacity):
        handle = (u, len(self.graph[u]))
        self.graph[u].append([v, capacity, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])
        return handle

    def flow_on(self, handle, original_capacity):
        u, idx = handle
        return original_capacity - self.graph[u][idx][1]

    def _bfs(self, s, t):
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

    def _dfs(self, u, t, limit):
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

    def max_flow(self, s, t):
        total = 0
        while self._bfs(s, t):
            self._it = [0] * len(self.graph)
            while True:
                pushed = self._dfs(s, t, 1 << 200)
                if pushed == 0:
                    break
                total += pushed
        return total

    def residual_reachable(self, s):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


# the adjacency reads a flat engine may make in one flow below: about 20
# times the most that any of the networks compared with the recursive engine needs
READS = 100_000


class Budgeted(Dinic):
    """A flat Dinic that raises once its flow makes READS adjacency reads."""

    def max_flow(self, s, t):
        self.adj = Reads(self.adj, READS)
        return super().max_flow(s, t)


@pytest.fixture(autouse=True)
def budgeted(monkeypatch):
    """The flows the library runs here are Budgeted: a walk that would loop fails."""
    monkeypatch.setattr(coupling, "Dinic", Budgeted)


class Recorder(Budgeted):
    """A flat Dinic that keeps what it was built with and asked to solve."""

    def __init__(self, num_nodes):
        super().__init__(num_nodes)
        self.size, self.edges = num_nodes, []

    def add_edge(self, u, v, capacity):
        self.edges.append((u, v, capacity))
        return super().add_edge(u, v, capacity)

    def max_flow(self, s, t):
        self.ends = (s, t)
        return super().max_flow(s, t)


def solve(engine, size, edges, s, t):
    """(flow value, flow on every edge, residual-reachable set)."""
    net = engine(size)
    handles = [net.add_edge(u, v, c) for u, v, c in edges]
    value = net.max_flow(s, t)
    flows = [net.flow_on(h, c) for h, (_, _, c) in zip(handles, edges)]
    return value, flows, net.residual_reachable(s)


def assert_same(size, edges, s, t):
    flat = solve(Budgeted, size, edges, s, t)
    assert flat == solve(RecursiveDinic, size, edges, s, t)
    return flat


def captured(monkeypatch, owner, run):
    """The networks ``run`` builds through ``owner.Dinic``."""
    built = []

    def make(num_nodes):
        built.append(Recorder(num_nodes))
        return built[-1]

    monkeypatch.setattr(owner, "Dinic", make)
    run()
    return built


def _conditionals(m):
    for i in (1, m.n):
        yield m.condition(Assignment((i,), (1,))), m.condition(Assignment((i,), (0,)))


def _sparse_pair(n, rng):
    lower = {rng.randrange(1 << n): rng.randint(1, 5) for _ in range(6)}
    upper = {}
    for x, w in lower.items():
        for _ in range(2):
            y = x | 1 << rng.randrange(n) | 1 << rng.randrange(n)
            upper[y] = upper.get(y, 0) + w
    return (ExplicitMeasure._from_weights(n, lower),
            ExplicitMeasure._from_weights(n, upper))


def transport_pairs():
    rng = random.Random(2024)
    pairs = [
        *_conditionals(family_nand(6)),
        *_conditionals(family_conditioned_sum([Fraction(1, 3)] * 8, 2, 5)),
        *_conditionals(family_conditioned_sum(
            [Fraction(k, 12) for k in (4, 6, 8, 3, 9, 6, 4, 8, 3)], 3, 6)),
    ]
    pairs += [p[::-1] for p in pairs[:4]]  # these fail
    pairs += [(random_measure(n, rng), random_measure(n, rng)) for n in (3, 4, 5, 6) * 5]
    pairs += [_sparse_pair(n, rng) for n in (10, 12, 14) * 3]
    return pairs


@pytest.mark.parametrize("covering", [False, True], ids=["plain", "covering"])
def test_transport_networks_match_the_recursive_engine(monkeypatch, covering):
    networks = {"cube": 0, "bipartite": 0}
    infeasible = 0
    for lower, upper in transport_pairs():
        left, lt = _sorted_scaled(lower)
        right, ut = _sorted_scaled(upper)
        results = []
        (net,) = captured(monkeypatch, coupling, lambda: results.append(
            transport(left, lt, right, ut, covering=covering)))
        (res,) = results
        value, _, _ = assert_same(net.size, net.edges, *net.ends)
        assert value == res.flow_value
        networks[res.network] += 1
        infeasible += not res.feasible
    # both network kinds and both outcomes are exercised
    assert networks["bipartite"] > 0 and infeasible > 0
    assert (networks["cube"] > 0) != covering


def _closure_weights(d, rng, huge):
    """Zero-sum weights.  Huge ones put positive masses up to 2^203 (one
    above 2^201 at the top point) and small negative ones on a random
    up-set U without 0, and the balancing negative masses outside U.
    U's weight falls short of the positive total P by the small masses
    only, so the flow P (P - best) stays below 2^9 P < 2^218, and the
    recursive engine, which caps a push at 2^200, makes at most 2^18
    pushes, not 2^200."""
    size = 1 << d
    if not huge:
        weights = [rng.randrange(-9, 9) for _ in range(size)]
        weights[rng.randrange(size)] -= sum(weights)
        return weights
    inside = coupling.up_closure(rng.sample(range(1, size), rng.randint(1, d)), d)
    weights = [0] * size
    for p in inside:
        weights[p] = (rng.randrange(1, 1 << rng.choice((3, 40, 201, 203)))
                      if rng.random() < 0.5 else -rng.randint(1, 7))
    weights[size - 1] = rng.randrange(1 << 201, 1 << 203)
    excess = sum(weights)
    outside = sorted(set(range(size)) - inside)
    cuts = sorted(rng.randrange(excess + 1) for _ in outside[1:])
    for p, lo, hi in zip(outside, [0, *cuts], [*cuts, excess]):
        weights[p] = lo - hi
    return weights


@pytest.mark.parametrize("huge", [False, True], ids=["small", "above_2^200"])
def test_closure_networks_match_the_recursive_engine(monkeypatch, huge):
    rng = random.Random(7 + huge)
    solved = expected = capped = 0
    for d in (2, 3, 4, 5, 6) * 4:
        weights = _closure_weights(d, rng, huge)
        assert sum(weights) == 0
        assert huge == (max(weights) > 1 << 200)
        expected += max(weights) > 0  # else no flow is run
        closures = captured(monkeypatch, coupling, lambda: upsets.max_weight_upset(weights, d))
        for net in closures:
            value, _, _ = assert_same(net.size, net.edges, *net.ends)
            solved += 1
            capped += value > 1 << 200
    assert solved == expected > 15
    assert (capped > 5) == huge


def test_push_limit_caps_a_path_of_huge_capacities():
    # every arc carries more than 2^200: the recursive engine takes 2^200
    # at a time until its last push saturates the sink arc, and the flat
    # engine pushes the path's smallest capacity once; the flows agree
    big = (1 << 200) * 3 + 5
    edges = [(0, 2, big + 7), (2, 3, big * 2), (3, 1, big)]
    value, flows, side = assert_same(4, edges, 0, 1)
    assert value == big and flows == [big] * 3 and side == {0, 2, 3}


# One push per path, not one per 2^200 of its smallest capacity: with
# capacities near 2^261 a capped push would take about 2^61 steps.


def test_a_one_point_transport_with_totals_above_2_130_returns_at_once():
    a, b = (1 << 130) + 3, (1 << 131) + 5
    res = transport([(0, a)], a, [(1, b)], b)
    assert res.feasible and res.flow_value == res.target == a * b


def test_a_closure_with_weights_near_2_261_returns_at_once():
    d, big = 3, 1 << 261
    weights = [(big + p) * (-1) ** p.bit_count() for p in range(1 << d)]
    upsets_of_cube = [
        members for members in range(1 << (1 << d))
        if all(members >> (p | 1 << i) & 1
               for p in range(1 << d) if members >> p & 1 for i in range(d))
    ]
    best = max(
        sum(w for p, w in enumerate(weights) if members >> p & 1)
        for members in upsets_of_cube
    )
    value, chosen = upsets.max_weight_upset(weights, d)
    assert value == best == sum(weights[p] for p in chosen) > big


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_the_recursive_engine(seed):
    rng = random.Random(seed)
    size = rng.randint(2, 12)
    capacities = (0, 1, rng.randint(1, 20), 1 << 205)
    edges = [
        (rng.randrange(size), rng.randrange(size), rng.choice(capacities))
        for _ in range(rng.randint(0, 40))
    ]
    edges = [(u, v, c) for u, v, c in edges if u != v]
    s, t = rng.sample(range(size), 2)
    assert_same(size, edges, s, t)


class ForwardDinic:
    """Frozen copy of the flat engine whose phases were BFS levels from s."""

    def __init__(self, num_nodes):
        self.head = []
        self.cap = []
        self.adj = [[] for _ in range(num_nodes)]

    def add_edge(self, u, v, capacity):
        e = len(self.head)
        self.head += (v, u)
        self.cap += (capacity, 0)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def flow_on(self, handle, original_capacity):
        return original_capacity - self.cap[handle]

    def _levels(self, s, t):
        head, cap, adj = self.head, self.cap, self.adj
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in adj[u]:
                if cap[e] and level[v := head[e]] < 0:
                    level[v] = level[u] + 1
                    if v == t:
                        return level
                    queue.append(v)
        return level

    def max_flow(self, s, t):
        head, cap, adj = self.head, self.cap, self.adj
        total = 0
        while (level := self._levels(s, t))[t] >= 0:
            it = [0] * len(adj)
            path = []
            u = s
            while True:
                edges, up = adj[u], level[u] + 1
                for i in range(it[u], len(edges)):
                    e = edges[i]
                    if cap[e] and level[head[e]] == up:
                        break
                else:
                    if not path:
                        break
                    level[u] = -1
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
                    for k, e in enumerate(path):
                        if not cap[e]:
                            u = head[e ^ 1]
                            del path[k:]
                            break
        return total

    def residual_reachable(self, s):
        return {v for v, lv in enumerate(self._levels(s, -1)) if lv >= 0}


class Reads(list):
    """An adjacency list that counts the reads of each node's edge list and
    raises once their total passes ``budget``, so a walk that would loop
    for ever fails."""

    def __init__(self, adj, budget):
        super().__init__(adj)
        self.count = [0] * len(adj)
        self.left = budget

    def __getitem__(self, u):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("the flow ran past its budget of adjacency reads")
        self.count[u] += 1
        return super().__getitem__(u)


def counted(engine, size, edges, budget=10_000):
    """An ``engine`` network of ``edges`` whose adjacency reads are counted
    from here on."""
    net = engine(size)
    handles = [net.add_edge(u, v, c) for u, v, c in edges]
    net.adj = Reads(net.adj, budget)
    return net, handles


def solve_counted(engine, size, edges, s, t):
    """(flow value, flow on every edge, residual-reachable set), and the
    network's adjacency reads per node in max_flow."""
    net, handles = counted(engine, size, edges)
    value = net.max_flow(s, t)
    reads = list(net.adj.count)
    flows = [net.flow_on(h, c) for h, (_, _, c) in zip(handles, edges)]
    return (value, flows, net.residual_reachable(s)), reads


def _layered_graph(rng):
    """(size, edges): the source 0, one to five layers of one to four
    nodes and the sink 1, arcs from each layer to the next, arcs between
    random nodes (antiparallel pairs among them), and dead-end chains
    hanging off the layers; zero and above-2^200 capacities, edges in a
    shuffled order."""
    layers, size = [[0]], 2
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(1, 4)
        layers.append(list(range(size, size + k)))
        size += k
    layers.append([1])
    caps = (0, 1, rng.randint(2, 30), (1 << 205) + rng.randrange(1 << 200))
    edges = [(u, v, rng.choice(caps)) for here, there in zip(layers, layers[1:])
             for u in here for v in there if rng.random() < 0.6]
    for _ in range(rng.randint(0, 6)):
        u, v = rng.sample(range(size), 2)
        edges.append((u, v, rng.choice(caps)))
        if rng.random() < 0.5:
            edges.append((v, u, rng.choice(caps)))
    for _ in range(rng.randint(1, 4)):
        u = rng.choice([x for layer in layers[:-1] for x in layer])
        for _ in range(rng.randint(1, 3)):
            edges.append((u, size, rng.choice(caps[1:])))
            u, size = size, size + 1
    rng.shuffle(edges)
    return size, edges


@pytest.mark.parametrize("seed", range(20))
def test_layered_graphs_match_the_forward_level_engine(seed):
    rng = random.Random(f"layered:{seed}")
    flows = huge = 0
    for _ in range(50):
        size, edges = _layered_graph(rng)
        ours, _ = solve_counted(Dinic, size, edges, 0, 1)
        theirs, _ = solve_counted(ForwardDinic, size, edges, 0, 1)
        assert ours == theirs, edges
        flows += ours[0] > 0
        huge += ours[0] > 1 << 200
    assert flows > 15 and huge > 0


def test_the_walk_never_enters_a_branch_that_cannot_reach_the_sink():
    # s = 0, t = 1: the branch s -> 2 -> 3 comes first in s's edge list,
    # and 3 leads nowhere; the route s -> 4 -> t carries the flow
    edges = [(0, 2, 5), (2, 3, 5), (0, 4, 3), (4, 1, 2)]
    (value, flows, side), reads = solve_counted(Dinic, 5, edges, 0, 1)
    assert (value, flows, side) == (2, [0, 0, 2, 2], {0, 2, 3, 4})
    assert reads[2] == reads[3] == 0
    # the forward levels put 2 and 3 on the route to the sink's level
    _, forward_reads = solve_counted(ForwardDinic, 5, edges, 0, 1)
    assert forward_reads[2] > 0 and forward_reads[3] > 0


@pytest.mark.parametrize("fan", [2, 5, 9])
def test_a_node_found_dead_is_not_entered_again_in_its_phase(fan):
    # s = 0 -> a_k -> c = 2 -> t = 1, where c -> t carries only 1: one
    # push through a_1 kills c, and a_2 ... a_fan must then be dead
    # without a step into c
    arms = range(3, 3 + fan)
    edges = [(0, a, 2) for a in arms] + [(a, 2, 2) for a in arms] + [(2, 1, 1)]
    (value, _, side), reads = solve_counted(Dinic, 3 + fan, edges, 0, 1)
    assert value == 1 and side == {0, *arms, 2}
    # c is read by the first BFS, on arrival and on resuming after the push
    assert reads[2] == 3
    assert all(reads[a] == 1 for a in arms[1:])


LARGE_PROBS = [Fraction(k, 12) for k in (4, 6, 8, 3, 9, 6, 4, 8, 3, 9, 6)]


def _large_conditionals():
    """The (x_i = 1, x_i = 0) conditionals of the conditioned sums at
    n = 10 and 11 that the ``coupling_pairs`` benchmark couples."""
    for n, (lo, hi), coordinates in ((10, (3, 6), (1, 10)), (11, (3, 7), (1, 11)),
                                     (11, (4, 6), (2, 7))):
        m = family_conditioned_sum(LARGE_PROBS[:n], lo, hi)
        for i in coordinates:
            yield (m.condition(Assignment((i,), (1,))),
                   m.condition(Assignment((i,), (0,))))


def counting(engine):
    """``engine`` with its adjacency reads and its BFS runs counted."""

    class Counting(engine):
        def __init__(self, num_nodes):
            super().__init__(num_nodes)
            self.adj, self.bfs = Reads(self.adj, 10**6), 0

        def _levels(self, *args):
            self.bfs += 1
            return super()._levels(*args)

    return Counting


@pytest.mark.parametrize("covering", [False, True], ids=["plain", "covering"])
def test_large_transports_match_the_forward_level_engine(monkeypatch, covering):
    for lower, upper in _large_conditionals():
        left, lt = _sorted_scaled(lower)
        right, ut = _sorted_scaled(upper)
        runs = []
        for engine in (counting(Dinic), counting(ForwardDinic)):
            built = []
            monkeypatch.setattr(coupling, "Dinic", lambda k, e=engine: built.append(e(k)) or built[-1])
            res = transport(left, lt, right, ut, covering=covering, want_flows=True)
            runs += [astuple(res), *built]
        ours, net, theirs, forward = runs
        assert ours == theirs
        assert ours[0] and ours[3]  # feasible, with pair flows
        assert net.bfs == forward.bfs  # the same phases
        assert sum(net.adj.count) < sum(forward.adj.count)
