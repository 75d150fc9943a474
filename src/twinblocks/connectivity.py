"""Strong and twinless connectivity.

Twinless strongly connected components are computed per strongly connected
component as the 2-edge-connected components of its underlying undirected
graph: two vertices of a strongly connected graph admit mutually inverse
paths whose union avoids every antiparallel pair exactly when no single
undirected bridge separates them.  That characterization is easy to get
subtly wrong, so the test suite cross-checks it against the definition-level
orientation oracle on every generated instance; on any discrepancy the
oracle is ground truth and the mismatch must be reported, not patched.

Both stages traverse the digraph's own adjacency, optionally with one arc
skipped: Tarjan's SCC pass, then one undirected low-link DFS that stays
inside each SCC; no undirected graph is built.  The DFS is one kernel,
``_low_link_class_of(g, scc_of, skip)``: it takes the SCC classes as
input, so a caller that knows them already (the precondition of
``condensation_tscc``, or the dominator-interval splits that ``blocks``
reads for each strong bridge) runs no Tarjan pass for it, and it walks each
visited vertex's out- and in-arcs straight from the graph.  Twin ids come
from the graph, which derives them once; the undirected references are in
testkit.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Digraph, PreconditionError, TwinPair
from .partition import Partition


def _tarjan(out, skip: int, index: list[int], class_of: list[int],
            roots, comp: int) -> list[int]:
    """Tarjan's algorithm, iterative, from each unvisited root in turn.

    A vertex with ``index`` other than -1 counts as visited and off the
    stack, so arcs into it are ignored; classes are numbered from ``comp``
    into ``class_of``, which is returned.
    """
    low = [0] * len(index)
    on_stack = bytearray(len(index))
    stack: list[int] = []
    counter = 0
    for root in roots:
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            descended = False
            pairs = out[v]
            while i < len(pairs):
                w, aid = pairs[i]
                i += 1
                if aid == skip:
                    continue
                if index[w] == -1:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    class_of[w] = comp
                    if w == v:
                        break
                comp += 1
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return class_of


def _scc_class_of(g: Digraph, skip: int = -1) -> list[int]:
    """SCC classes of g; O(n + m).

    ``skip`` names an arc to traverse around, which computes the SCC
    classes of g minus that arc without rebuilding the graph.
    """
    n = g.n
    return _tarjan(g.out_pairs, skip, [-1] * n, [-1] * n, range(n), 0)


def _split_class_of(g: Digraph, within: list[int], skip: int) -> list[int]:
    """SCC classes of g minus ``skip`` when every vertex outside ``within``
    lies in one SCC and no vertex of ``within`` joins it: class 0 outside,
    the SCCs of G[within] minus ``skip`` numbered from 1 inside.  Tarjan
    visits only ``within``, so the work is O(n) list set-up plus
    O(|G[within]|).
    """
    n = g.n
    index = [0] * n
    for x in within:
        index[x] = -1
    return _tarjan(g.out_pairs, skip, index, [0] * n, within, 1)


def strongly_connected_components(g: Digraph) -> Partition:
    """Maximal mutually-reachable vertex sets."""
    return Partition(_scc_class_of(g))


def is_strongly_connected(g: Digraph) -> bool:
    """True iff the SCC partition has exactly one class; O(n + m)."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    return not any(_scc_class_of(g))


def _low_link_class_of(g: Digraph, scc_of: list[int], skip: int = -1,
                       roots=None) -> list[int]:
    """2-edge-connected classes of the underlying graph inside each class
    of ``scc_of``, minus the ``skip`` arc; O(n + m).

    The undirected low-link DFS walks, at each vertex it visits, the
    vertex's out-arcs then its in-arcs as one tuple, and ignores edges
    between classes.  The underlying graph is simple, so skipping every
    arc to the DFS parent skips exactly the tree edge, antiparallel pair
    included.
    The edge into v is a bridge iff low[v] == disc[v], which closes v's
    class.  With ``scc_of`` the SCC classes of g minus ``skip``, the result
    is the TSCC classes of g minus ``skip``.  With ``roots``, the walk
    covers only the classes of those vertices (after O(n) list set-up),
    and every other vertex keeps class -1.
    """
    out, inc = g.out_pairs, g.in_pairs
    n = g.n
    disc = [-1] * n
    low = [0] * n
    class_of = [-1] * n
    stack: list[int] = []
    timer = 0
    comp = 0
    for root in range(n) if roots is None else roots:
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack.append(root)
        work = [(root, -1, iter(out[root] + inc[root]))]
        while work:
            v, parent, arcs = work[-1]
            scc = scc_of[v]
            for w, aid in arcs:
                if aid == skip or w == parent or scc_of[w] != scc:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append(w)
                    work.append((w, v, iter(out[w] + inc[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                work.pop()
                if low[v] == disc[v]:
                    while True:
                        w = stack.pop()
                        class_of[w] = comp
                        if w == v:
                            break
                    comp += 1
                elif low[v] < low[parent]:
                    low[parent] = low[v]
    return class_of


def _tscc_class_of(g: Digraph, skip: int = -1) -> list[int]:
    """TSCC classes of g (minus the optional ``skip`` arc); O(n + m): one
    Tarjan pass, then the low-link kernel inside its SCCs."""
    return _low_link_class_of(g, _scc_class_of(g, skip), skip)


def twinless_strongly_connected_components(g: Digraph) -> Partition:
    """TSCCs of an arbitrary digraph.

    Inside each SCC class the TSCC classes are the 2-edge-connected
    components of the underlying graph of the induced subgraph; singleton
    SCCs yield singleton TSCCs.
    """
    return Partition(_tscc_class_of(g))


def is_twinless_strongly_connected(g: Digraph) -> bool:
    """True iff g is strongly connected and its underlying graph is
    2-edge-connected (single TSCC class)."""
    if g.n == 0:
        raise PreconditionError("empty graph")
    return not any(_tscc_class_of(g))


@dataclass(frozen=True)
class CondensationTree:
    """TSCC classes of a strongly connected digraph, contracted.

    ``edges`` maps an unordered class-index pair to the antiparallel arc
    pairs crossing it.  For strongly connected inputs the contracted graph
    is a tree and every tree edge is crossed by at least one twin pair;
    both facts are recorded rather than assumed so tests can assert them.
    """

    nodes: tuple[tuple[int, ...], ...]
    edges: dict[tuple[int, int], tuple[TwinPair, ...]]
    is_tree: bool
    every_edge_twin_crossed: bool


def condensation_tscc(g: Digraph) -> CondensationTree:
    if g.n == 0:
        raise PreconditionError("empty graph")
    scc_of = _scc_class_of(g)  # one Tarjan pass: precondition and kernel
    if any(scc_of):
        raise PreconditionError("input is not strongly connected")
    p = Partition(_low_link_class_of(g, scc_of))
    twin = g._twin
    crossing: dict[tuple[int, int], list[TwinPair]] = {}
    for (u, v), aid in g._arc_ids.items():
        cu, cv = p.class_of[u], p.class_of[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        crossing.setdefault(key, [])
        rev = twin[aid]
        if rev > aid:
            crossing[key].append(TwinPair(aid, rev))
    k = p.num_classes
    # tree check: connected with exactly k-1 edges
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in crossing:
        adj[a].append(b)
        adj[b].append(a)
    seen = bytearray(k)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = 1
                count += 1
                frontier.append(y)
    is_tree = count == k and len(crossing) == k - 1
    return CondensationTree(
        nodes=p.classes,
        edges={key: tuple(pairs) for key, pairs in sorted(crossing.items())},
        is_tree=is_tree,
        every_edge_twin_crossed=all(pairs for pairs in crossing.values()),
    )
