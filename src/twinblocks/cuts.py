"""Strong bridges and twinless bridges by per-arc recomputation.

Every arc is rechecked individually against the connectivity it must not
break; the rechecks lean on two exact reductions so that the scan stays
usable at tens of thousands of arcs:

* For a strongly connected graph, removing arc (u,v) preserves strong
  connectivity iff an alternative u -> v path survives (every walk through
  the arc can be rerouted through that path).  The per-arc check is then a
  single early-exit bidirectional search instead of a full traversal.

* For a twinless strongly connected graph, removing an arc whose twin
  survives leaves the underlying graph unchanged, so only the strong
  connectivity recheck applies.  Removing an unpaired arc deletes exactly
  one underlying edge, and the 2-edge-connectivity recheck reduces to a
  precomputed membership test: the deleted edge breaks 2-edge-connectivity
  iff it belongs to some 2-edge cut of the underlying graph.

Twinless strong connectivity is strong connectivity plus a 2-edge-connected
underlying graph, so the precondition costs one strong-connectivity search
and the bridge test that the 2-cut pass makes anyway.

Arc identity (arc_id), not the endpoint pair, names a bridge; that stays
unambiguous under antiparallel pairs.
``threads`` is accepted for compatibility and ignored.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (Digraph, GraphError, PreconditionError, UndirectedGraph,
                   twin_arc_ids, underlying_graph)
from .connectivity import is_strongly_connected


def _alt_path_exists(g: Digraph, source: int, target: int, skip: int) -> bool:
    """Is target reachable from source in g minus the arc ``skip``?

    Bidirectional breadth-first search: the smaller frontier expands, and
    the search stops at the first meeting vertex.
    """
    n = g.n
    out = g.out_pairs
    inc = g.in_pairs
    fseen = bytearray(n)
    bseen = bytearray(n)
    fseen[source] = 1
    bseen[target] = 1
    ffront = [source]
    bfront = [target]
    while ffront and bfront:
        if len(ffront) <= len(bfront):
            nxt = []
            for x in ffront:
                for y, aid in out[x]:
                    if aid != skip and not fseen[y]:
                        if bseen[y]:
                            return True
                        fseen[y] = 1
                        nxt.append(y)
            ffront = nxt
        else:
            nxt = []
            for x in bfront:
                for y, aid in inc[x]:
                    if aid != skip and not bseen[y]:
                        if fseen[y]:
                            return True
                        bseen[y] = 1
                        nxt.append(y)
            bfront = nxt
    return False


def strong_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys strong connectivity.

    Requires a strongly connected input.
    """
    if not is_strongly_connected(g):
        raise PreconditionError("input is not strongly connected")
    return frozenset(a.arc_id for a in g.arcs
                     if not _alt_path_exists(g, a.source, a.target, a.arc_id))


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
    """Both bridge sets from one per-arc scan (twinless strongly connected
    inputs only).

    The precondition is a strong-connectivity search plus the cover counts
    of the 2-cut pass, which raises on an underlying bridge.
    """
    if not is_strongly_connected(g):
        raise PreconditionError("input is not twinless strongly connected")
    if g.m == 0:
        return BridgeReport(frozenset(), frozenset())
    two_cut = _edges_in_some_two_cut(underlying_graph(g))
    twin = twin_arc_ids(g)
    strong = []
    twinless = []
    for a in g.arcs:
        if not _alt_path_exists(g, a.source, a.target, a.arc_id):
            strong.append(a.arc_id)  # a strong bridge is a twinless bridge
            twinless.append(a.arc_id)
        elif (twin[a.arc_id] == -1
              and _norm_edge(a.source, a.target) in two_cut):
            twinless.append(a.arc_id)
    return BridgeReport(frozenset(strong), frozenset(twinless))


def twinless_bridges(g: Digraph, threads: int = 1) -> frozenset[int]:
    """Arc ids whose removal destroys twinless strong connectivity.

    Requires a twinless strongly connected input.
    """
    return bridge_report(g).twinless_bridges
