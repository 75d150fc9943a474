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
  bridges are therefore the strong bridges plus the arc ids of those
  unpaired arcs.  They come from one DFS of the underlying graph, walked
  on the digraph's own in- and out-arcs: a tree edge with a single
  covering back edge forms a 2-edge cut with it, and two tree edges form
  one iff one lies above the other and both have the same (cover count,
  high) key, where high is the deepest upper end among the covers
  (union-find, near-linear; no hashing and no second graph).

Twinless strong connectivity is strong connectivity plus a 2-edge-connected
underlying graph, so the precondition costs the two dominator DFS and the
bridge test that the 2-cut pass makes anyway.

Every bridge query builds both dominator-tree preorders once, in one
``_Separations``.  They also say what each strong bridge cuts off the SCC of
vertex 0; ``blocks`` reads its per-bridge SCC splits from them instead of
running Tarjan's algorithm once per bridge.

Arc identity (arc_id), not the endpoint pair, names a bridge; that stays
unambiguous under antiparallel pairs.
``threads`` is accepted for compatibility and ignored.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, count
from typing import Sequence

from .core import Digraph, GraphError, PreconditionError

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


def _flow_bridges(n: int, succ: Pairs,
                  pred: Pairs) -> tuple[list[int], tuple] | None:
    """``(bridges, tree)`` of the flowgraph rooted at vertex 0, or None when
    0 does not reach every vertex.

    ``bridges`` are arc ids: arc (u,v) is a bridge iff u = idom(v) and v
    dominates every other predecessor of v; dominance is an interval test
    on a preorder of the dominator tree.  ``tree`` is that preorder as
    ``(by_pre, pre, size)``, compact int arrays: w dominates exactly
    ``by_pre[pre[w]:pre[w] + size[w]]``.
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
    by_pre = array("i", bytes(4 * n))
    for w in order:
        by_pre[pre[w]] = w
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
    return out, (by_pre, array("i", pre), array("i", size))


class _Separations:
    """What each strong bridge cuts off, read from the two dominator trees.

    For a strong bridge e = (u,v) of a strongly connected graph G, let X_e
    be D(v) if e is a bridge of G_0, united with D^R(u) if e is a bridge of
    G_0^R (D and D^R are the dominator trees of G_0 and its reverse).  In
    G minus e, X_e is exactly the set of vertices that vertex 0 no longer
    reaches or that no longer reach 0, so
    SCC(G - e) = {V - X_e} + SCC(G[X_e] - e).  Each part of X_e is a
    dominator subtree, kept as an interval of the preorder that
    ``_flow_bridges`` returns (Italiano, Laura and Santaroni, TCS
    2012; Georgiadis, Italiano, Laura and Parotsidis, "2-Edge Connectivity
    in Directed Graphs", SODA 2015).
    """

    __slots__ = ("arcs", "side", "trees")

    def __init__(self, g: Digraph,
                 message: str = "input is not strongly connected") -> None:
        """Both dominator searches of g, G_0 first; raises
        PreconditionError(message) at the first that misses a vertex."""
        if g.n == 0:
            raise PreconditionError("empty graph")
        self.arcs = g.arcs
        self.side = bytearray(g.m)  # 1: bridge of G_0, 2: of G_0^R, 3: both
        self.trees = []  # (by_pre, pre, size) of D, then of D^R
        for bit, succ, pred in ((1, g.out_pairs, g.in_pairs),
                                (2, g.in_pairs, g.out_pairs)):
            found = _flow_bridges(g.n, succ, pred)
            if found is None:
                raise PreconditionError(message)
            bridges, tree = found
            for aid in bridges:
                self.side[aid] |= bit
            self.trees.append(tree)

    def strong_bridges(self) -> frozenset[int]:
        return frozenset(compress(count(), self.side))

    def cut_off(self, e: int) -> list[int]:
        """X_e in ascending order; empty when e is not a strong bridge."""
        side = self.side[e]
        if not side:
            return []
        u, v, _ = self.arcs[e]
        parts = []
        for bit, w, (by_pre, pre, size) in zip((1, 2), (v, u), self.trees):
            if side & bit:
                parts.append(by_pre[pre[w]:pre[w] + size[w]])
        if len(parts) == 2:
            return sorted(set(parts[0]).union(parts[1]))
        return sorted(parts[0])


def strong_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys strong connectivity.

    Requires a strongly connected input.
    """
    return _Separations(g).strong_bridges()


def _unpaired_two_cut_arcs(g: Digraph, twin: Sequence[int]) -> list[int]:
    """Arc ids of the unpaired arcs whose underlying edge lies in a 2-edge
    cut; raises PreconditionError when the underlying graph has a bridge.

    One DFS of the underlying graph over in- and out-arcs makes every other
    edge a back edge, which covers the tree path between its ends.  The
    tree edge into v has ``cnt[v]`` covers with arc-id XOR ``acc[v]``; a
    2-edge cut is a tree edge with a single cover plus that cover, or two
    tree edges with equal cover sets, which then lie on one root path.  Let
    ``high[v]`` be the largest preorder number of an upper end among v's
    covers.  For u an ancestor of v, equal cover sets mean equal
    (cnt, high) keys, and equal keys mean equal cover sets: high[v] lies
    above u, so all of v's covers cover u, and cnt leaves u no others.

    So v is compared only with the last vertex w before it in preorder
    that has its key.  If an ancestor a of v has the key but w is not an
    ancestor of v, then w lies below a beside v, and the back edge giving
    ``high[w]`` covers a but not v: a contradiction.
    """
    n = g.n
    out = g.out_pairs
    inc = g.in_pairs
    parent = [-1] * n
    disc = [-1] * n
    tout = [0] * n  # largest preorder number in v's subtree
    disc[0] = 0
    order = [0]
    work = [(0, chain(out[0], inc[0]))]
    while work:
        v, arcs = work[-1]
        for w, _ in arcs:
            if disc[w] < 0:
                parent[w] = v
                disc[w] = len(order)
                order.append(w)
                work.append((w, chain(out[w], inc[w])))
                break
        else:
            tout[v] = len(order) - 1
            work.pop()
    if len(order) != n:
        raise GraphError("internal: underlying graph is not connected")

    # +1 at the lower end and -1 at the upper end turn a subtree sum into
    # "back edges with exactly one endpoint below here"
    cnt = [0] * n
    acc = [0] * n
    lower_ends: list[list[int]] = [[] for _ in range(n)]  # by upper end
    for s, t, aid in g.arcs:
        if parent[t] == s or parent[s] == t or twin[aid] > aid:
            continue  # tree edge, or the twin stands for this edge
        d, a = (s, t) if disc[s] > disc[t] else (t, s)
        cnt[d] += 1
        cnt[a] -= 1
        acc[d] ^= aid
        acc[a] ^= aid
        lower_ends[a].append(d)
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            cnt[p] += cnt[v]
            acc[p] ^= acc[v]

    # high[] by union-find: upper ends in decreasing preorder, each back
    # edge labels the unlabelled tree path from its lower end up, and a
    # labelled vertex is joined to its parent
    high = [-1] * n
    jump = list(range(n))
    for a in reversed(order):
        h = disc[a]
        for x in lower_ends[a]:
            while True:
                while jump[x] != x:  # path halving
                    jump[x] = x = jump[jump[x]]
                if disc[x] <= h:
                    break
                high[x] = h
                jump[x] = x = parent[x]

    cut = bytearray(n)  # the tree edge into v lies in a 2-edge cut
    unique_cover: set[int] = set()
    last: dict[tuple[int, int], int] = {}
    for v in order[1:]:
        c = cnt[v]
        if c == 0:
            raise PreconditionError("input is not twinless strongly connected")
        if c == 1:
            cut[v] = 1
            unique_cover.add(acc[v])
            continue
        key = (c, high[v])
        u = last.get(key)
        if u is not None and disc[v] <= tout[u]:
            cut[u] = cut[v] = 1
        last[key] = v
    return [aid for s, t, aid in g.arcs if twin[aid] < 0 and (
        cut[t] if parent[t] == s else cut[s] if parent[s] == t
        else aid in unique_cover)]


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


def _bridge_report(g: Digraph) -> tuple[BridgeReport, _Separations]:
    """``bridge_report(g)`` with the ``_Separations`` it was read from."""
    seps = _Separations(g, "input is not twinless strongly connected")
    two_cut = _unpaired_two_cut_arcs(g, g._twin)
    # the sets come after the 2-cut pass, a bridge report's memory peak
    strong = seps.strong_bridges()
    return BridgeReport(strong, strong.union(two_cut)), seps


def bridge_report(g: Digraph, threads: int = 1) -> BridgeReport:
    """Both bridge sets (twinless strongly connected inputs only).

    The precondition is the strong-connectivity test of the two dominator
    DFS plus the cover counts of the 2-cut pass, which raises on an
    underlying bridge.
    """
    return _bridge_report(g)[0]


def twinless_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys twinless strong connectivity.

    Requires a twinless strongly connected input.
    """
    return bridge_report(g).twinless_bridges
