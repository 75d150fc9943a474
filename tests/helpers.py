"""Shared test utilities: label rendering and definitional rechecks.

The rechecks here are deliberately naive (remove the arc, re-test the
property on the whole reduced graph); they are the reference
implementations the dominator-tree bridges and the 2-cut membership are
validated against.
"""
from __future__ import annotations

import random

from twinblocks import (Digraph, GeneratorConfig, Partition, is_strongly_connected,
                        is_twinless_strongly_connected, random_digraph,
                        remove_arcs, twin_pairs)


def label_classes(g: Digraph, p: Partition) -> set[frozenset[str]]:
    return {frozenset(g.labels[v] for v in c) for c in p.classes}


def label_blocks(g: Digraph, bs) -> set[frozenset[str]]:
    return {frozenset(g.labels[v] for v in b) for b in bs.blocks}


def labels_of_arcs(g: Digraph, arc_ids) -> set[tuple[str, str]]:
    return {(g.labels[g.arcs[i].source], g.labels[g.arcs[i].target])
            for i in arc_ids}


def naive_strong_bridges(g: Digraph) -> frozenset[int]:
    return frozenset(
        a.arc_id for a in g.arcs
        if not is_strongly_connected(remove_arcs(g, {a.arc_id})))


def naive_twinless_bridges(g: Digraph) -> frozenset[int]:
    return frozenset(
        a.arc_id for a in g.arcs
        if not is_twinless_strongly_connected(remove_arcs(g, {a.arc_id})))


def closure_scc_partition(g: Digraph) -> Partition:
    """SCCs by brute-force transitive closure (bitset Floyd-Warshall)."""
    n = g.n
    rows = [1 << v for v in range(n)]
    for a in g.arcs:
        rows[a.source] |= 1 << a.target
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    class_of = []
    first: dict[tuple[int, int], int] = {}
    for v in range(n):
        # mutual reachability key: vertices v reaches that also reach v
        mutual = 0
        for w in range(n):
            if rows[v] >> w & 1 and rows[w] >> v & 1:
                mutual |= 1 << w
        key = (mutual, 0)
        if key not in first:
            first[key] = len(first)
        class_of.append(first[key])
    return Partition(class_of)


def shuffled(g: Digraph, seed: int) -> Digraph:
    """g with its arc ids permuted.  ``random_digraph`` lists the arcs of a
    strongly connected shape's Hamiltonian cycle first, and a DFS in arc-id
    order walks them as one unbranched path; shuffled ids branch the tree."""
    arcs = [(a.source, a.target) for a in g.arcs]
    random.Random(seed).shuffle(arcs)
    return Digraph(g.labels, arcs)


def tsc_instances(count: int, n_range=(3, 8), m_range=(3, 18),
                  max_twin_pairs: int = 8, seed_base: int = 0):
    """Deterministic stream of twinless strongly connected test graphs."""
    out = []
    seed = seed_base
    while len(out) < count:
        cfg = GeneratorConfig(n_range=n_range, m_range=m_range,
                              twin_density=(seed % 5) * 0.2,
                              seed=seed, shape="twinless-strongly-connected")
        g = random_digraph(cfg)
        seed += 1
        if len(twin_pairs(g)) <= max_twin_pairs:
            out.append(g)
    return out


def any_instances(count: int, n_range=(2, 8), m_range=(0, 16),
                  max_twin_pairs: int = 8, seed_base: int = 10_000):
    """Deterministic stream of arbitrary-shape test graphs."""
    out = []
    seed = seed_base
    while len(out) < count:
        cfg = GeneratorConfig(n_range=n_range, m_range=m_range,
                              twin_density=(seed % 4) * 0.25,
                              seed=seed, shape="any")
        g = random_digraph(cfg)
        seed += 1
        if len(twin_pairs(g)) <= max_twin_pairs:
            out.append(g)
    return out


def _numbered(n: int, arcs) -> Digraph:
    return Digraph(tuple(str(v) for v in range(n)), arcs)


def cycle(n: int) -> Digraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0: every arc is a strong
    bridge."""
    return _numbered(n, [(v, (v + 1) % n) for v in range(n)])


def path_fan(n: int) -> Digraph:
    """The path 0 -> ... -> n-1 plus an arc from each second-half vertex
    back to 0 (n >= 3): b_s = b_t = n and every 2-edge block is a
    singleton."""
    arcs = [(v, v + 1) for v in range(n - 1)]
    arcs.extend((v, 0) for v in range((n + 1) // 2, n))
    return _numbered(n, arcs)


def dominator_fan(k: int) -> Digraph:
    """The path 0 -> ... -> k plus k fan vertices x, each with the arcs
    0 -> x (listed after 0 -> 1), k -> x and x -> 0.  A depth-first search
    from 0 walks the whole path before any fan vertex, so an idom climb
    that walks the path for each fan vertex takes k^2 steps.  Twinless
    strongly connected; b_s = 10 and b_t = 15 at k = 5."""
    arcs = [(v, v + 1) for v in range(k)]
    for x in range(k + 1, 2 * k + 1):
        arcs += [(0, x), (k, x), (x, 0)]
    return _numbered(2 * k + 1, arcs)


def blob_chain(k: int, size: int) -> Digraph:
    """k bidirected cliques of ``size`` >= 3 vertices in a row; neighbouring
    cliques are joined by one twin pair and one unpaired forward arc, so
    b_s = k - 1 and b_t = 2(k - 1)."""
    arcs = []
    for b in range(k):
        base = b * size
        arcs.extend((base + i, base + j) for i in range(size)
                    for j in range(size) if i != j)
        if b:
            prev = base - size
            arcs += [(prev, base), (base, prev), (prev + 1, base + 1)]
    return _numbered(k * size, arcs)
