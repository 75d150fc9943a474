"""Strong bridges and twinless bridges from dominator trees.

* The strong bridges of a strongly connected graph G are the bridges of
  the flowgraph G_0 (G rooted at vertex 0) together with the bridges of
  its reverse G_0^R, taken by arc id (Italiano, Laura and Santaroni,
  "Finding strong bridges and strong articulation points in linear time",
  TCS 2012).  An arc (u,v) is a bridge of a flowgraph iff u is the
  immediate dominator of v and v dominates every other predecessor of v.
  The immediate dominators come from the simple Lengauer-Tarjan algorithm
  ("A fast algorithm for finding dominators in a flowgraph", TOPLAS 1979;
  path compression, O(m log n)), with an iterative DFS and an iterative
  compression so that a path n deep needs no recursion.  The two DFS
  numberings are also the strong-connectivity precondition: both must
  reach every vertex.

* For a twinless strongly connected graph, removing an arc whose twin
  survives leaves the underlying graph unchanged, so only strong
  connectivity can break.  Removing an unpaired arc deletes exactly one
  underlying edge, and that breaks 2-edge-connectivity iff the edge
  belongs to some 2-edge cut of the underlying graph.  The twinless
  bridges are therefore the strong bridges plus the unpaired arcs whose
  underlying edge lies in a 2-edge cut.

Twinless strong connectivity is strong connectivity plus a 2-edge-connected
underlying graph, so the precondition costs the two dominator DFS and the
bridge test that the 2-cut pass makes anyway.

Arc identity (arc_id), not the endpoint pair, names a bridge; that stays
unambiguous under antiparallel pairs.
``threads`` is accepted for compatibility and ignored.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (Digraph, GraphError, PreconditionError, UndirectedGraph,
                   twin_arc_ids, underlying_graph)

Pairs = Sequence[Sequence[tuple[int, int]]]


def _immediate_dominators(n: int, succ: Pairs,
                          pred: Pairs) -> tuple[list[int], list[int]]:
    """Immediate dominators of the flowgraph rooted at vertex 0.

    ``succ[v]`` and ``pred[v]`` hold (neighbour, arc_id) pairs.  Returns
    ``(order, idom)``: the vertices reachable from 0 in DFS preorder, and
    per vertex its immediate dominator (-1 for the root and for vertices 0
    does not reach).  Simple Lengauer-Tarjan; semidominators are compared
    by preorder number.
    """
    dfn = [-1] * n
    parent = [-1] * n
    dfn[0] = 0
    order = [0]
    stack = [(0, iter(succ[0]))]
    while stack:
        v, it = stack[-1]
        for w, _ in it:
            if dfn[w] < 0:
                dfn[w] = len(order)
                order.append(w)
                parent[w] = v
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()

    semi = dfn[:]  # preorder number of the semidominator
    label = list(range(n))
    anc = [-1] * n  # link-eval forest; -1 marks a forest root
    idom = [-1] * n
    bucket: list[list[int]] = [[] for _ in range(n)]

    def evaluate(v: int) -> int:
        """Vertex of least semi on the forest path above v (root excluded),
        compressing that path on the way."""
        if anc[v] < 0:
            return v
        path = []
        x = v
        while anc[anc[x]] >= 0:
            path.append(x)
            x = anc[x]
        for x in reversed(path):
            a = anc[x]
            if semi[label[a]] < semi[label[x]]:
                label[x] = label[a]
            anc[x] = anc[a]
        return label[v]

    for i in range(len(order) - 1, 0, -1):
        w = order[i]
        s = semi[w]
        for v, _ in pred[w]:
            if dfn[v] >= 0:
                sv = semi[evaluate(v)]
                if sv < s:
                    s = sv
        semi[w] = s
        bucket[order[s]].append(w)
        p = parent[w]
        anc[w] = p
        for v in bucket[p]:
            u = evaluate(v)
            idom[v] = u if semi[u] < semi[v] else p
        bucket[p] = []
    for w in order[1:]:
        if idom[w] != order[semi[w]]:
            idom[w] = idom[idom[w]]
    return order, idom


def _flow_bridges(n: int, succ: Pairs, pred: Pairs) -> list[int] | None:
    """Arc ids of the bridges of the flowgraph rooted at vertex 0, or None
    when 0 does not reach every vertex.

    Arc (u,v) is a bridge iff u = idom(v) and v dominates every other
    predecessor of v; dominance is an interval test on a preorder of the
    dominator tree.
    """
    order, idom = _immediate_dominators(n, succ, pred)
    if len(order) < n:
        return None
    # idom(w) precedes w in DFS preorder and a dominator-tree subtree lies
    # inside the DFS subtree, so one backward and one forward sweep give
    # subtree sizes and a preorder: v dominates x iff
    # pre[v] <= pre[x] < pre[v] + size[v].
    size = [1] * n
    for w in reversed(order[1:]):
        size[idom[w]] += size[w]
    pre = [0] * n
    nxt = [1] * n  # next free preorder slot among a vertex's children
    for w in order[1:]:
        u = idom[w]
        pre[w] = nxt[u]
        nxt[u] += size[w]
        nxt[w] = pre[w] + 1
    out = []
    for w in order[1:]:
        u = idom[w]
        lo = pre[w]
        hi = lo + size[w]
        bridge = -1
        for x, aid in pred[w]:
            if x == u:
                bridge = aid
            elif not lo <= pre[x] < hi:
                break
        else:
            if bridge >= 0:
                out.append(bridge)
    return out


def _strong_bridge_ids(g: Digraph, message: str) -> list[int]:
    """Bridges of G_0 followed by those of G_0^R (an arc may be in both);
    raises PreconditionError(message) when g is not strongly connected."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    fwd = _flow_bridges(g.n, g.out_pairs, g.in_pairs)
    rev = None if fwd is None else _flow_bridges(g.n, g.in_pairs, g.out_pairs)
    if rev is None:
        raise PreconditionError(message)
    fwd.extend(rev)
    return fwd


def strong_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys strong connectivity.

    Requires a strongly connected input.
    """
    return frozenset(_strong_bridge_ids(g, "input is not strongly connected"))


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _edges_in_some_two_cut(u: UndirectedGraph) -> frozenset[tuple[int, int]]:
    """Edges of a connected bridgeless graph that lie in some 2-edge cut.

    Equivalently: the edges e for which ``u`` minus e has a bridge.  With a
    DFS tree, a 2-edge cut is either a tree edge together with the single
    back edge covering it, or two tree edges with identical covering back
    edge sets.  Cover cardinalities and cover-set ids come from one subtree
    aggregation pass; candidate equal-cover groups (bucketed by size and
    id-XOR) are verified exactly before being accepted.  A bridge (a tree
    edge no back edge covers) raises PreconditionError: a digraph whose
    underlying graph is ``u`` is then not twinless strongly connected.
    """
    n = u.n
    if n <= 1:
        return frozenset()
    adj = u.adjacency
    parent = [-1] * n
    tin = [-1] * n
    tout = [0] * n
    order: list[int] = []
    timer = 0
    tin[0] = timer
    timer += 1
    order.append(0)
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        v, i = stack[-1]
        if i < len(adj[v]):
            stack[-1] = (v, i + 1)
            w = adj[v][i]
            if tin[w] == -1:
                parent[w] = v
                tin[w] = timer
                timer += 1
                order.append(w)
                stack.append((w, 0))
        else:
            tout[v] = timer - 1
            stack.pop()
    if timer != n:
        raise GraphError("internal: underlying graph is not connected")

    back: list[tuple[int, int]] = []  # (descendant, ancestor)
    for a, b in sorted(u.edges):
        if parent[a] == b or parent[b] == a:
            continue
        back.append((a, b) if tin[a] > tin[b] else (b, a))

    # cover count and cover id-XOR per tree edge (keyed by child vertex):
    # +1 at the descendant endpoint and -1 at the ancestor endpoint turn a
    # subtree sum into "back edges with exactly one endpoint below here".
    cnt = [0] * n
    acc = [0] * n
    for idx, (d, anc) in enumerate(back):
        bid = idx + 1
        cnt[d] += 1
        cnt[anc] -= 1
        acc[d] ^= bid
        acc[anc] ^= bid
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            cnt[p] += cnt[v]
            acc[p] ^= acc[v]

    result: set[tuple[int, int]] = set()
    unique_cover: set[int] = set()
    buckets: dict[tuple[int, int], list[int]] = {}
    for v in order[1:]:
        if cnt[v] == 0:
            raise PreconditionError("input is not twinless strongly connected")
        if cnt[v] == 1:
            result.add(_norm_edge(parent[v], v))
            unique_cover.add(acc[v] - 1)
        else:
            buckets.setdefault((cnt[v], acc[v]), []).append(v)
    for idx in unique_cover:
        d, anc = back[idx]
        result.add(_norm_edge(d, anc))

    for verts in buckets.values():
        if len(verts) < 2:
            continue
        exact: dict[frozenset[int], list[int]] = {}
        for v in verts:
            lo, hi = tin[v], tout[v]
            cover = frozenset(
                i for i, (d, anc) in enumerate(back)
                if lo <= tin[d] <= hi and not lo <= tin[anc] <= hi)
            exact.setdefault(cover, []).append(v)
        for vs in exact.values():
            if len(vs) >= 2:
                for v in vs:
                    result.add(_norm_edge(parent[v], v))
    return frozenset(result)


@dataclass(frozen=True)
class BridgeReport:
    """Strong and twinless bridges of a twinless strongly connected graph."""

    strong_bridges: frozenset[int]
    twinless_bridges: frozenset[int]

    @property
    def b_s(self) -> int:
        return len(self.strong_bridges)

    @property
    def b_t(self) -> int:
        return len(self.twinless_bridges)


def bridge_report(g: Digraph, threads: int = 1) -> BridgeReport:
    """Both bridge sets (twinless strongly connected inputs only).

    The precondition is the strong-connectivity test of the two dominator
    DFS plus the cover counts of the 2-cut pass, which raises on an
    underlying bridge.
    """
    # kept as a list, not a set, through the 2-cut pass: that pass is the
    # memory peak of a bridge report
    strong_ids = _strong_bridge_ids(
        g, "input is not twinless strongly connected")
    two_cut = _edges_in_some_two_cut(underlying_graph(g))
    strong = frozenset(strong_ids)
    twin = twin_arc_ids(g)
    twinless = strong.union(
        a.arc_id for a in g.arcs
        if twin[a.arc_id] == -1 and _norm_edge(a.source, a.target) in two_cut)
    return BridgeReport(strong, twinless)


def twinless_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys twinless strong connectivity.

    Requires a twinless strongly connected input.
    """
    return bridge_report(g).twinless_bridges
