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
  reach every vertex, and both are walked before either Lengauer-Tarjan
  pass, so an input that is not strongly connected costs no dominators.
  A direction runs its pass only when it can have a bridge: when every
  vertex has two or more in-arcs and a search from 0 over the arcs
  outside its DFS tree reaches every vertex, the tree and that search
  are two arc-disjoint spanning arborescences, and the direction has no
  bridge (Edmonds, "Edge-disjoint branchings", 1973; Tarjan,
  "Edge-disjoint spanning trees and depth-first search", Acta
  Informatica 1976).

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
bridge test that the 2-cut pass makes anyway; a bridge report runs that
pass before the dominators, so an underlying bridge costs none either.

Every bridge query builds the dominator-tree preorders it needs once, in one
``_Separations``.  They also say what each strong bridge cuts off the SCC of
vertex 0; ``blocks`` reads its per-bridge SCC splits from them instead of
running Tarjan's algorithm once per bridge.  A bridge report keeps the DFS
tree of its 2-cut pass there too (``_CutTree``), and ``blocks`` reads from
it the meet of the TSCC splits of all twinless bridges that are not strong
(their 2-cut classes cut out of the tree, one O(n) split) and which cut-off
sets X that are connected subtrees of that tree leave U - X 2-edge-connected
(a certificate in O((n + m) log n) plus O((|X| + children) log n) per set,
read at the vertex X contracts to; only the block algorithms build it, and
only when at least ceil(log2 n) distinct sets other than V - {0} reach it).
Each set X is asked about once, alone.  The other splits take a low-link
pass over X alone, and their outside parts are checked in groups, one full
low-link pass per group, after every other split is met.

Arc identity (arc_id), not the endpoint pair, names a bridge; that stays
unambiguous under antiparallel pairs.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count
from typing import Sequence

from .core import Digraph, GraphError, PreconditionError

Pairs = Sequence[Sequence[tuple[int, int]]]


def _preorder(n: int, succ: Pairs) -> tuple[list[int], list[int], list[int]]:
    """``(order, dfn, parent)`` of a DFS from vertex 0 over ``succ``: the
    vertices reached in preorder, each vertex's preorder number and its DFS
    parent (-1 for the root and for vertices 0 does not reach)."""
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
    return order, dfn, parent


def _lengauer_tarjan(n: int, pred: Pairs, order: list[int], dfn: list[int],
                     parent: list[int]) -> list[int]:
    """Immediate dominators from the DFS ``_preorder`` returned: per vertex
    its immediate dominator, -1 for the root and for vertices 0 does not
    reach.  Simple Lengauer-Tarjan; semidominators are compared by
    preorder number."""
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
    return idom


def _immediate_dominators(n: int, succ: Pairs,
                          pred: Pairs) -> tuple[list[int], list[int]]:
    """Immediate dominators of the flowgraph rooted at vertex 0.

    ``succ[v]`` and ``pred[v]`` hold (neighbour, arc_id) pairs.  Returns
    ``(order, idom)``: the vertices reachable from 0 in DFS preorder, and
    per vertex its immediate dominator (-1 for the root and for vertices 0
    does not reach).
    """
    walk = _preorder(n, succ)
    return walk[0], _lengauer_tarjan(n, pred, *walk)


def _flow_bridges(n: int, pred: Pairs, walk) -> tuple[list[int], tuple]:
    """``(bridges, tree)`` of the flowgraph rooted at vertex 0, given the
    ``_preorder`` walk of its arcs, which reaches every vertex.

    ``bridges`` are arc ids: arc (u,v) is a bridge iff u = idom(v) and v
    dominates every other predecessor of v; dominance is an interval test
    on a preorder of the dominator tree.  ``tree`` is that preorder as
    ``(by_pre, pre, size)``, compact int arrays: w dominates exactly
    ``by_pre[pre[w]:pre[w] + size[w]]``.
    """
    order = walk[0]
    idom = _lengauer_tarjan(n, pred, *walk)
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


def _spare_reaches_all(n: int, succ: Pairs, parent: list[int]) -> bool:
    """Whether a search from vertex 0 over the arcs of ``succ`` that are
    not arcs v -> w of the DFS tree ``parent`` (parent[w] == v) reaches
    every vertex.  If so, each vertex has a tree path and a spare path from
    0 that share no arc, so the flowgraph has no bridge."""
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    left = n - 1
    while stack:
        v = stack.pop()
        for w, _ in succ[v]:
            if not seen[w] and parent[w] != v:
                seen[w] = 1
                stack.append(w)
                left -= 1
    return not left


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

    A direction whose DFS tree has an arc-disjoint spare arborescence
    (``_spare_reaches_all``) has no bridge and gets no dominator tree; a
    spare search that misses a vertex proves nothing, and the direction's
    passes run.
    """

    __slots__ = ("ends", "side", "trees", "cut_tree")

    def __init__(self, g: Digraph,
                 message: str = "input is not strongly connected",
                 cut_tree: bool = False) -> None:
        """Both dominator searches of g, G_0 first.  The DFS of G_0 and
        that of its reverse come before either Lengauer-Tarjan pass: when
        one misses a vertex, PreconditionError(message) is raised with no
        dominators computed.  With ``cut_tree`` the 2-cut pass of a bridge
        report runs between the DFS and the passes, so an input whose
        underlying graph has a bridge is refused before them too.  Then
        each direction that a spare search proves bridgeless skips its
        Lengauer-Tarjan pass."""
        if g.n == 0:
            raise PreconditionError("empty graph")
        self.ends = g._ends
        self.cut_tree: _CutTree | None = None  # set by a bridge report
        self.side = bytearray(g.m)  # 1: bridge of G_0, 2: of G_0^R, 3: both
        # (by_pre, pre, size) of D, then of D^R; None for a direction with
        # no bridge, whose dominators were never computed
        self.trees = []
        walks = []
        for succ in (g.out_pairs, g.in_pairs):
            walk = _preorder(g.n, succ)
            if len(walk[0]) < g.n:
                raise PreconditionError(message)
            walks.append(walk)
        if cut_tree:
            self.cut_tree = _CutTree(g, g._twin)
        for bit, succ, pred, walk in (
                (1, g.out_pairs, g.in_pairs, walks[0]),
                (2, g.in_pairs, g.out_pairs, walks[1])):
            if min(map(len, pred)) >= 2 and \
                    _spare_reaches_all(g.n, succ, walk[2]):
                self.trees.append(None)
                continue
            bridges, tree = _flow_bridges(g.n, pred, walk)
            for aid in bridges:
                self.side[aid] |= bit
            self.trees.append(tree)

    def strong_bridges(self) -> frozenset[int]:
        return frozenset(compress(count(), self.side))

    def cut_off(self, e: int) -> list[int]:
        """X_e in ascending order."""
        side = self.side[e]
        u, v = self.ends[e]
        parts = []
        for bit, w, tree in zip((1, 2), (v, u), self.trees):
            if side & bit:
                by_pre, pre, size = tree
                parts.append(by_pre[pre[w]:pre[w] + size[w]])
        if len(parts) == 2:
            return sorted(set(parts[0]).union(parts[1]))
        return sorted(parts[0])


def strong_bridges(g: Digraph) -> frozenset[int]:
    """Arc ids whose removal destroys strong connectivity.

    Requires a strongly connected input.
    """
    return _Separations(g).strong_bridges()


def _find(links, i: int) -> int:
    """The root of i in the union-find forest ``links``, halving the path."""
    while links[i] != i:
        links[i] = i = links[links[i]]
    return i


class _CutTree:
    """The DFS tree of the underlying graph U that the 2-cut pass walks,
    kept for the per-bridge TSCC splits of ``blocks``.

    One DFS of U over in- and out-arcs makes every other edge a back edge,
    which covers the tree path between its ends.  The tree edge into v has
    ``cnt[v]`` covers with arc-id XOR ``acc[v]``; a 2-edge cut is a tree
    edge with a single cover plus that cover, or two tree edges with equal
    cover sets, which then lie on one root path.  Let ``high[v]`` be the
    largest preorder number of an upper end among v's covers.  For u an
    ancestor of v, equal cover sets mean equal (cnt, high) keys, and equal
    keys mean equal cover sets: high[v] lies above u, so all of v's covers
    cover u, and cnt leaves u no others.

    So v is compared only with the last vertex w before it in preorder
    that has its key.  If an ancestor a of v has the key but w is not an
    ancestor of v, then w lies below a beside v, and the back edge giving
    ``high[w]`` covers a but not v: a contradiction.  When that w is an
    ancestor of v, ``top[v]`` is ``top[w]``, else v: the tree edges of one
    2-cut class form one chain, named by the lower end of its highest edge.
    A class whose cover count is 1 also holds that cover, and
    ``unique_cover`` maps each such cover to a vertex it covers.

    ``unpaired`` lists the unpaired arcs whose underlying edge lies in a
    2-edge cut.  The constructor raises PreconditionError when U has a
    bridge.
    """

    __slots__ = ("parent", "pre", "order", "tout", "cnt", "acc", "high",
                 "top", "unique_cover", "unpaired")

    def __init__(self, g: Digraph, twin: Sequence[int]) -> None:
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
        self.parent, self.pre = parent, disc
        self.order, self.tout = order, tout

        # +1 at the lower end and -1 at the upper end turn a subtree sum
        # into "back edges with exactly one endpoint below here"
        cnt = [0] * n
        acc = [0] * n
        lower_ends: list[list[int]] = [[] for _ in range(n)]  # by upper end
        for d, a, aid in self._back_edges(g._arc_ids, twin):
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
        if cnt.count(0) > 1:  # a tree edge with no cover; the root has 0
            raise PreconditionError("input is not twinless strongly connected")

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
        self.cnt, self.acc, self.high = cnt, acc, high

        cut = bytearray(n)  # the tree edge into v lies in a 2-edge cut
        top = array("i", range(n))
        unique_cover: dict[int, int] = {}  # cover arc id -> a vertex it covers
        last: dict[tuple[int, int], int] = {}
        for v in order[1:]:
            c = cnt[v]
            if c == 1:
                cut[v] = 1
                unique_cover[acc[v]] = v
            key = (c, high[v])
            u = last.get(key)
            if u is not None and disc[v] <= tout[u]:
                cut[u] = cut[v] = 1
                top[v] = top[u]
            last[key] = v
        self.top, self.unique_cover = top, unique_cover
        self.unpaired = [
            aid for (s, t), aid in g._arc_ids.items() if twin[aid] < 0 and (
                cut[t] if parent[t] == s else cut[s] if parent[s] == t
                else aid in unique_cover)]

    def _back_edges(self, arc_ids, twin: Sequence[int]):
        """(lower end, upper end, arc id) of each back edge, one arc per
        twin pair, from the graph's arc store."""
        parent, disc = self.parent, self.pre
        for (s, t), aid in arc_ids.items():
            if parent[t] == s or parent[s] == t or twin[aid] > aid:
                continue  # tree edge, or the twin stands for this edge
            yield (s, t, aid) if disc[s] > disc[t] else (t, s, aid)

    def rings(self, g: Digraph, bridges) -> list[int]:
        """The meet of components(U - C) over the 2-cut classes C of U that
        hold the underlying edge of an arc of ``bridges``, as one class
        list: one preorder pass plus union-find, no traversal.

        For an unpaired arc e of a twinless strongly connected graph g that
        is not a strong bridge, g - e stays strongly connected, so its TSCC
        classes are components(U - C).  Let v_1 (deepest) ... v_k be the
        lower ends of C's tree edges: U - C is T with those edges cut, plus
        the join of subtree(v_1) to the part above v_k by v_1's covers when
        there are 2 or more (with one, that cover is in C).  A join holds in
        U - C' for every other chosen C' too: if a tree edge of C' lies
        between v_1 and v_k, all of them do and v_1's covers are among
        C''s, so C' joins its innermost subtree, which holds v_1, to its
        outer part, which holds the vertex above v_k.
        """
        parent, top = self.parent, self.top
        deepest = {}  # per chosen class, by its top: its deepest lower end
        for e in bridges:
            s, t = g._ends[e]
            v = (t if parent[t] == s else s if parent[s] == t
                 else self.unique_cover[e])
            deepest[top[v]] = v
        piece = list(range(len(parent)))  # union-find over the pieces of T
        for v in self.order[1:]:
            if top[v] in deepest:
                deepest[top[v]] = v  # the deepest comes last in preorder
            else:
                piece[v] = piece[parent[v]]
        for u, v in deepest.items():
            if self.cnt[u] > 1:
                piece[v] = _find(piece, parent[u])
        return [_find(piece, x) for x in range(len(parent))]

    def certified(self, g: Digraph):
        """A query for the cuts X (sequences of vertices) that are connected
        subtrees of the DFS tree T, the root left out, and leave U - X
        2-edge-connected: it is built in O((n + m) log n) and answers one
        cut in O((|X| + children) log n), so a caller can ask about many
        cuts.

        X is a connected subtree when exactly one member, its top r, has
        its parent outside X.  Contracting X to one vertex x* turns U into
        U/X, parallel edges kept, and T into a DFS tree T/X of it, since
        every non-tree edge still joins an ancestor and a descendant.  The
        children of x* are the children of members that lie outside X, and
        U - X = (U/X) - x*.  So the question is the vertex-edge cut-pair
        rule of Georgiadis and Kosinas ("Linear-time algorithms for
        computing twinless strong articulation points and related
        problems", ISAAC 2020) at x*, read on T.  Notation for a child c of
        x*: up(c) are the back edges from subtree(c) that end above r, lo_c
        and hi_c the least and largest preorder number of their upper ends;
        low[q] is the least upper-end preorder number among q's covers;
        M(q) is the nearest common ancestor of the lower ends of q's
        covers, and M(q) = x* iff M(q) lies in X; M_c is that of the lower
        ends of up(c).  An ancestor q of r keeps its covers, so cnt[q].
        The tree edges of U - X are those of T/X - x*, and each subtree(c)
        hangs off the rest by up(c) alone, so U - X is 2-edge-connected iff
        none of these holds:

        (A) some child c of x* has |up(c)| < 2;
        (B) the tree edge into a descendant q of a child c, q != c, is a
            bridge: q lies on the path from M_c up to c and high[q] <
            pre[c] (no cover of q ends inside subtree(c), and the rest of
            subtree(c) reaches above r only through q's subtree), or every
            cover of q ends in X (pre[r] <= low[q], high[q] < pre[c]);
        (C-i) the tree edge into an ancestor q of r is a bridge, with M(q)
            in X for some q other than the root, and no child c has lo_c <
            pre[q] <= hi_c, so no child subtree joins the parts above and
            below q;
        (C-ii) the same with M(q) below a child w of x*: some ancestor q of
            r with hi_w < pre[q] < pre[r] has cnt[q] = |up(w)|, the least
            cnt on that path, as q's covers include up(w).

        For X = {x}, r = x and this is the rule for U - x.  |up(c)|, hi_c
        and M_c come from a merge-sort tree over the preorder positions of
        the lower ends, at threshold pre[r]; path minima of high and cnt
        and nearest common ancestors from binary lifting; M(q) from one
        sweep that removes preorder positions as the threshold falls; the
        second clause of (B) from the largest low[q] over the q below c
        with high[q] < pre[c], one union-find pass.  (C-i) visits the q
        with M(q) in X.  The tables are int arrays, held by the query and
        freed with it.
        """
        parent, pre, order, tout = self.parent, self.pre, self.order, self.tout
        cnt, high = self.cnt, self.high
        n = len(parent)
        ups: list[list[int]] = [[] for _ in range(n)]  # by lower end's pre
        for d, a, _ in self._back_edges(g._arc_ids, g._twin):
            ups[pre[d]].append(pre[a])
        low_at = array("i", (min(h, default=n) for h in ups))
        low = array("i", (low_at[p] for p in pre))
        depth = array("i", bytes(4 * n))
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        for v in reversed(order[1:]):
            if low[v] < low[parent[v]]:
                low[parent[v]] = low[v]

        # merge-sort tree: level j holds, block by block of 2^j positions,
        # the sorted upper ends of the back edges whose lower ends are there;
        # block b spans start[b << j] to start[(b + 1) << j]
        start = array("i", accumulate(map(len, ups), initial=0))
        levels = [array("i", chain.from_iterable(sorted(h) for h in ups))]
        del ups
        width = 1
        while width < n:
            finer = levels[-1]
            width *= 2
            level = array("i")
            for s in range(0, n, width):
                level.extend(sorted(finer[start[s]:start[min(s + width, n)]]))
            levels.append(level)

        def up_edges(c: int, t: int) -> tuple[int, int, int]:
            """The back edges from subtree(c) that end above preorder
            number t: how many, the largest upper end and the nearest
            common ancestor of the lower ends (-1 and -1 if none)."""
            size, top = 0, -1
            lo, hi, j = pre[c], tout[c] + 1, 0
            left: list[tuple[int, int]] = []
            right: list[tuple[int, int]] = []
            while lo < hi:
                if lo & 1:
                    left.append((j, lo))
                    lo += 1
                if hi & 1:
                    hi -= 1
                    right.append((j, hi))
                lo >>= 1
                hi >>= 1
                j += 1
            live = []  # blocks with such a back edge, by position
            for j, b in left + right[::-1]:
                level, s = levels[j], start[b << j]
                k = bisect_left(level, t, s, start[(b + 1) << j])
                if k > s:
                    size += k - s
                    top = max(top, level[k - 1])
                    live.append((j, b))
            if not live:
                return 0, -1, -1
            ends = []
            for (j, b), side in ((live[0], 0), (live[-1], 1)):
                while j:  # into the child on this side if it has one
                    j -= 1
                    b = 2 * b + side
                    s = start[b << j]
                    if not (s < start[(b + 1) << j] and levels[j][s] < t):
                        b ^= 1
                ends.append(order[b])
            return size, top, nca(*ends)

        # level j holds the 2^j-th ancestor and the least high and cnt over
        # the 2^j vertices from v up; the root is its own parent
        anc = [array("i", parent)]
        anc[0][0] = 0
        least_high = [array("i", high)]
        least_cnt = [array("i", cnt)]
        for _ in range(1, max(1, (n - 1).bit_length())):
            a = anc[-1]
            anc.append(array("i", [a[w] for w in a]))
            for table in (least_high, least_cnt):
                t = table[-1]
                table.append(array("i", [x if x < y else y for x, y in
                                         zip(t, [t[w] for w in a])]))

        def path_min(table, v: int, length: int) -> int:
            """Least table value over ``length`` vertices from v up."""
            best = table[0][v]
            j = 0
            while length:
                if length & 1:
                    if table[j][v] < best:
                        best = table[j][v]
                    v = anc[j][v]
                length >>= 1
                j += 1
            return best

        def nca(u: int, v: int) -> int:
            """Nearest common ancestor of u and v, pre[u] <= pre[v]."""
            if pre[v] <= tout[u]:
                return u
            for a in reversed(anc):
                w = a[u]
                if not pre[w] <= pre[v] <= tout[w]:
                    u = w
            return parent[u]

        # M(q) from one sweep: position p is live while low_at[p] < t, then
        # the vertex there is the lower end of a back edge reaching above
        # preorder number t; the q with M(q) = y are listed from first_q[y]
        nxt = array("i", range(n + 1))  # next live position; n stays live
        prv = array("i", range(n + 1))  # prv[p + 1]: previous live
        dying = sorted(range(n), key=low_at.__getitem__)
        first_q = array("i", [-1]) * n
        next_q = array("i", [-1]) * n
        for t in range(n - 1, 0, -1):
            while dying and low_at[dying[-1]] >= t:
                p = dying.pop()
                nxt[p] = p + 1
                prv[p + 1] = p
            q = order[t]
            m = nca(order[_find(nxt, t)], order[_find(prv, tout[q] + 1) - 1])
            next_q[q] = first_q[m]
            first_q[m] = q
        del nxt, prv, dying

        # reach[c]: the largest low[q] over the q below c whose covers all
        # end above c (high[q] < pre[c]); q in decreasing low labels the
        # unlabelled vertices from parent(q) up to the child of its high
        reach = array("i", [-1]) * n
        jump = array("i", range(n))
        for q in sorted(order[1:], key=low.__getitem__, reverse=True):
            x = parent[q]
            while True:
                x = _find(jump, x)
                if pre[x] <= high[q]:
                    break
                reach[x] = low[q]
                jump[x] = x = parent[x]
        del jump

        mark = bytearray(n)  # the members of the cut in hand

        def passes(members, r: int) -> bool:
            """None of (A), (B), (C-i), (C-ii) holds at x* for X with top
            r, its members marked."""
            t = pre[r]
            spans = []  # (lo_c, hi_c) per child c of x*
            for y in members:
                p = pre[y] + 1
                while p <= tout[y]:  # the children of y, in preorder
                    c = order[p]
                    p = tout[c] + 1
                    if mark[c]:
                        continue
                    size, hi, m = up_edges(c, t)
                    if size < 2 or reach[c] >= t:
                        return False  # (A); (B), second clause
                    length = depth[m] - depth[c]
                    if length and path_min(least_high, m, length) < pre[c]:
                        return False  # (B), first clause
                    length = depth[r] - depth[order[hi]] - 1
                    if length > 0 and \
                            path_min(least_cnt, parent[r], length) == size:
                        return False  # (C-ii)
                    spans.append((low[c], hi))
            starts: list[int] = []  # the spans merged
            ends: list[int] = []
            for lo, h in sorted(spans):
                if ends and lo <= ends[-1]:
                    ends[-1] = max(ends[-1], h)
                else:
                    starts.append(lo)
                    ends.append(h)
            for y in members:  # (C-i)
                q = first_q[y]
                while q >= 0:
                    if not mark[q]:
                        i = bisect_left(starts, pre[q]) - 1
                        if i < 0 or pre[q] > ends[i]:
                            return False
                    q = next_q[q]
            return True

        def query(cut) -> bool:
            """Whether the cut X, a sequence of vertices, is a connected
            subtree of T without the root that leaves U - X
            2-edge-connected."""
            for y in cut:
                mark[y] = 1
            tops = [] if mark[0] else [y for y in cut if not mark[parent[y]]]
            ok = len(tops) == 1 and passes(cut, tops[0])
            for y in cut:
                mark[y] = 0
            return ok

        return query


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
    seps = _Separations(g, "input is not twinless strongly connected", True)
    # the sets come after the 2-cut pass, a bridge report's memory peak
    strong = seps.strong_bridges()
    return BridgeReport(strong, strong.union(seps.cut_tree.unpaired)), seps


def bridge_report(g: Digraph) -> BridgeReport:
    """Both bridge sets (twinless strongly connected inputs only).

    The precondition is the strong-connectivity test of the two dominator
    DFS plus the cover counts of the 2-cut pass, which raises on an
    underlying bridge.
    """
    return _bridge_report(g)[0]


def twinless_bridges(g: Digraph) -> frozenset[int]:
    """Arc ids whose removal destroys twinless strong connectivity.

    Requires a twinless strongly connected input.
    """
    return bridge_report(g).twinless_bridges
