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
max-weight closures captured from ``upsets.max_weight_upset``, some with
weights above 2^200 so that an augmenting path is capped by the push
limit rather than by an edge; and seeded random graphs.
"""

import random
from collections import deque
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
)
from negdep.zoo import random_measure


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


class Recorder(Dinic):
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
    flat = solve(Dinic, size, edges, s, t)
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
    weights = []
    for _ in range(1 << d):
        # at most 2^203, so a path capped at 2^200 is taken a few times, not 2^30
        scale = 1 << rng.choice((3, 40, 201, 203)) if huge else 9
        weights.append(rng.randrange(-scale, scale))
    return weights


@pytest.mark.parametrize("huge", [False, True], ids=["small", "above_2^200"])
def test_closure_networks_match_the_recursive_engine(monkeypatch, huge):
    rng = random.Random(7 + huge)
    solved = expected = 0
    for d in (2, 3, 4, 5, 6) * 4:
        weights = _closure_weights(d, rng, huge)
        expected += max(weights) > 0  # else no flow is run
        closures = captured(monkeypatch, upsets, lambda: upsets.max_weight_upset(weights, d))
        for net in closures:
            assert_same(net.size, net.edges, *net.ends)
            solved += 1
    assert solved == expected > 15


def test_push_limit_caps_a_path_of_huge_capacities():
    # every arc carries more than 2^200, so each path takes 2^200 at a time
    # until the last push saturates the sink arc
    big = (1 << 200) * 3 + 5
    edges = [(0, 2, big + 7), (2, 3, big * 2), (3, 1, big)]
    value, flows, side = assert_same(4, edges, 0, 1)
    assert value == big and flows == [big] * 3 and side == {0, 2, 3}


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
