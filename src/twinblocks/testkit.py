"""Brute-force oracles, undirected references and seeded graph generation.

The oracles encode the defining property of twinless strong connectivity
directly: two vertices are twinless-related iff keeping every unpaired arc
plus exactly one arc out of each antiparallel pair can leave them mutually
reachable.  That enumeration (2^p orientations for p pairs) is finite and
independent of the production algorithms, so it anchors every correctness
claim in the test suite.  Budgets keep the enumeration in the seconds
range; callers asking for more get a BudgetError instead of a stall.

``UndirectedGraph`` and its helpers are the references the kernel tests use.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .core import (BudgetError, Digraph, GraphError, PreconditionError,
                   remove_arcs, twin_pairs)
from .partition import Partition, partition_meet
from .connectivity import is_twinless_strongly_connected
from .blocks import BlockSet

TWIN_PAIR_BUDGET = 20
ORACLE_WORK_BUDGET = 10 ** 6


def _closure_rows(n: int, arcs: list[tuple[int, int]]) -> list[int]:
    """Reflexive-transitive closure as per-vertex reachability bitsets."""
    rows = [1 << v for v in range(n)]
    for u, v in arcs:
        rows[u] |= 1 << v
    for k in range(n):
        rk = rows[k]
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def _orientations(g: Digraph):
    """Yield the arc list of every twin-pair orientation of g."""
    pairs = sorted(twin_pairs(g))
    paired = {aid for p in pairs for aid in p}
    base = [(a.source, a.target) for a in g.arcs if a.arc_id not in paired]
    arcs_by_id = g.arcs
    for mask in range(1 << len(pairs)):
        chosen = list(base)
        for i, (fwd, bwd) in enumerate(pairs):
            keep = fwd if mask >> i & 1 else bwd
            a = arcs_by_id[keep]
            chosen.append((a.source, a.target))
        yield chosen


def _check_twin_budget(g: Digraph) -> int:
    p = len(twin_pairs(g))
    if p > TWIN_PAIR_BUDGET:
        raise BudgetError(
            f"{p} twin pairs exceed the oracle budget ({TWIN_PAIR_BUDGET})")
    return p


def oracle_twinless_related(g: Digraph, u: int, v: int) -> bool:
    """Definition-level check that u and v share a TSCC.

    True iff some orientation (keep all unpaired arcs, one arc per twin
    pair) leaves u and v mutually reachable.
    """
    for w in (u, v):
        if not 0 <= w < g.n:
            raise GraphError(f"unknown vertex id {w!r}")
    if u == v:
        return True
    _check_twin_budget(g)
    for arcs in _orientations(g):
        rows = _closure_rows(g.n, arcs)
        if rows[u] >> v & 1 and rows[v] >> u & 1:
            return True
    return False


def oracle_tscc(g: Digraph) -> Partition:
    """TSCC partition from the orientation enumeration.

    The pairwise relation is required to be transitive before classes are
    formed; a violation signals a definition-encoding bug and raises.
    """
    n = g.n
    if n == 0:
        return Partition([])
    _check_twin_budget(g)
    rel = [1 << v for v in range(n)]
    full = (1 << n) - 1
    for arcs in _orientations(g):
        rows = _closure_rows(n, arcs)
        cols = [0] * n
        for i in range(n):
            f = rows[i]
            while f:
                low = f & -f
                cols[low.bit_length() - 1] |= 1 << i
                f ^= low
        for i in range(n):
            rel[i] |= rows[i] & cols[i]
        if all(r == full for r in rel):
            break
    for i in range(n):
        combined = rel[i]
        f = rel[i]
        while f:
            low = f & -f
            combined |= rel[low.bit_length() - 1]
            f ^= low
        if combined != rel[i]:
            raise GraphError(
                "twinless relation is not transitive; oracle encoding bug")
    first: dict[int, int] = {}
    class_of = []
    for i in range(n):
        key = rel[i]
        if key not in first:
            first[key] = len(first)
        class_of.append(first[key])
    return Partition(class_of)


def oracle_two_edge_twinless_blocks(g: Digraph) -> BlockSet:
    """Meet of oracle_tscc(g minus e) over every arc e; classes of size >= 2."""
    p = _check_twin_budget(g)
    if g.m * (1 << p) > ORACLE_WORK_BUDGET:
        raise BudgetError(
            f"m * 2^p = {g.m * (1 << p)} exceeds the oracle work budget "
            f"({ORACLE_WORK_BUDGET})")
    part = Partition.single_class(g.n)
    for aid in range(g.m):
        part = partition_meet(part, oracle_tscc(remove_arcs(g, {aid})))
    return BlockSet.from_partition(part)


class UndirectedGraph:
    """Multiplicity-collapsed undirected graph: at most one edge per pair.

    Edges are stored as (a, b) tuples with a < b.  Adjacency lists are
    sorted, so traversal orders are deterministic.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        norm = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) references unknown vertex")
            if a == b:
                raise GraphError(f"self-edge at vertex {a}")
            norm.add((a, b) if a < b else (b, a))
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        self.n = n
        self.edges = frozenset(norm)
        self.adjacency = tuple(tuple(sorted(x)) for x in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={len(self.edges)})"


def underlying_graph(g: Digraph) -> UndirectedGraph:
    """The undirected image of g: one edge per adjacent unordered pair."""
    return UndirectedGraph(g.n, ((a.source, a.target) for a in g.arcs))


def connected_components(u: UndirectedGraph) -> Partition:
    class_of = [-1] * u.n
    comp = 0
    for root in range(u.n):
        if class_of[root] != -1:
            continue
        class_of[root] = comp
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in u.adjacency[x]:
                if class_of[y] == -1:
                    class_of[y] = comp
                    frontier.append(y)
        comp += 1
    return Partition(class_of)


def bridges_undirected(u: UndirectedGraph) -> set[tuple[int, int]]:
    """Edges whose removal increases the component count (DFS low-link).

    The graph is simple, so skipping the parent vertex once per child is a
    sound substitute for skipping the traversal edge.
    """
    n = u.n
    adj = u.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    bridges: set[tuple[int, int]] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] > disc[p]:
                        bridges.add((p, v) if p < v else (v, p))
    return bridges


def two_edge_connected_components(u: UndirectedGraph) -> Partition:
    """Connected components after deleting all bridges."""
    cut = bridges_undirected(u)
    class_of = [-1] * u.n
    comp = 0
    for root in range(u.n):
        if class_of[root] != -1:
            continue
        class_of[root] = comp
        frontier = [root]
        while frontier:
            x = frontier.pop()
            for y in u.adjacency[x]:
                key = (x, y) if x < y else (y, x)
                if class_of[y] == -1 and key not in cut:
                    class_of[y] = comp
                    frontier.append(y)
        comp += 1
    return Partition(class_of)


@dataclass(frozen=True)
class GeneratorConfig:
    """Deterministic random-digraph recipe: same config, same graph."""

    n_range: tuple[int, int]
    m_range: tuple[int, int]
    twin_density: float = 0.0
    seed: int = 0
    shape: str = "any"  # any | strongly-connected | twinless-strongly-connected

    def __post_init__(self) -> None:
        if self.n_range[0] > self.n_range[1] or self.n_range[0] < 1:
            raise PreconditionError(f"bad vertex range {self.n_range}")
        if self.m_range[0] > self.m_range[1] or self.m_range[0] < 0:
            raise PreconditionError(f"bad arc range {self.m_range}")
        if not 0.0 <= self.twin_density <= 1.0:
            raise PreconditionError(
                f"twin density {self.twin_density} outside [0, 1]")
        if self.shape not in ("any", "strongly-connected",
                              "twinless-strongly-connected"):
            raise PreconditionError(f"unknown shape {self.shape!r}")


def random_digraph(cfg: GeneratorConfig) -> Digraph:
    """Simple digraph matching cfg.

    Strongly connected shapes are seeded with a random Hamiltonian cycle
    and filled with extra arcs; the twinless shape is validated before
    returning.  Twin density steers how often a new arc is the reverse of
    an existing one.  Once more than 50 * (m + 1) random draws have missed
    (a loop or a present arc), the dense endgame lists every absent arc
    and draws from that list: O(n^2) time and memory.
    """
    rng = random.Random(cfg.seed)
    n = rng.randint(*cfg.n_range)
    lo, hi = cfg.m_range
    hi = min(hi, n * (n - 1))
    if cfg.shape != "any" and n > 1:
        lo = max(lo, n)
    if cfg.shape == "twinless-strongly-connected" and n == 2:
        raise PreconditionError(
            "no twinless strongly connected graph on 2 vertices exists")
    if lo > hi:
        raise PreconditionError(
            f"infeasible config: need between {lo} and {hi} arcs for "
            f"n={n}, shape={cfg.shape}")
    m = rng.randint(lo, hi)
    present: set[tuple[int, int]] = set()
    arcs: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        present.add((u, v))
        arcs.append((u, v))

    if cfg.shape != "any" and n > 1:
        cycle = list(range(n))
        rng.shuffle(cycle)
        for i in range(n):
            add(cycle[i], cycle[(i + 1) % n])
    misses = 0
    while len(arcs) < m:
        if misses > 50 * (m + 1):
            # dense endgame: fill from a shuffled list of the leftovers
            rest = [(u, v) for u in range(n) for v in range(n)
                    if u != v and (u, v) not in present]
            rng.shuffle(rest)
            for u, v in rest[:m - len(arcs)]:
                add(u, v)
            break
        if arcs and rng.random() < cfg.twin_density:
            u, v = arcs[rng.randrange(len(arcs))]
            if (v, u) not in present:
                add(v, u)
                continue
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in present:
            add(u, v)
        else:
            misses += 1
    g = Digraph(tuple(str(i + 1) for i in range(n)), arcs)
    if cfg.shape == "twinless-strongly-connected":
        if not is_twinless_strongly_connected(g):
            raise GraphError(
                "generator postcondition failed: graph is not twinless "
                "strongly connected")
    return g
