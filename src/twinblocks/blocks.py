"""2-edge blocks, 2-edge-twinless blocks, and the k-edge generalization.

Two vertices share a 2-edge block of a strongly connected graph iff no
single arc removal splits them into different strongly connected
components; they share a 2-edge-twinless block iff no single arc removal
splits them into different twinless strongly connected components.  Both
notions are computed by meeting per-removal partitions; only bridges can
split anything, so only bridges are iterated.

The per-bridge partitions come from one stream that runs no Tarjan pass
over the whole graph.  ``cuts`` hands out, from the dominator trees its
bridge search builds, the set X_e each strong bridge e cuts off from the
SCC of vertex 0; a Tarjan pass over G[X_e] - e gives the rest of the SCC
split of G - e, and a twinless bridge that is not strong leaves G - e
strongly connected.  The 2-edge blocks meet these splits directly.  The
twinless variant reads most of its splits off the DFS tree T of the
underlying graph U that the bridge report's 2-cut pass keeps: the twinless
bridges that are not strong are met as one O(n) split, their 2-cut classes
cut out of T, and a strong bridge whose X_e leaves U - X_e
2-edge-connected keeps V - X_e one class, so a low-link pass over X_e
alone finishes its split.  That is so when X_e = V - {0}, and when a
certificate built once per graph says so for an X_e that is a connected
subtree of T; it costs O((n + m) log n) and is built only when at least
ceil(log2 n) distinct X_e other than V - {0} reach it.  Each such cut is
asked about once, alone.  The other cuts fall back, skipping a strong
bridge whose split repeats an earlier one: a low-link pass over X_e alone
gives the TSCCs inside it, and what U - X_e splits outside it is checked
after every other split, in groups, against the partition met so far.  One
full undirected low-link pass, on the digraph's own arcs, over U minus the
union of a group certifies every cut in it when it splits no class met so
far; a group that fails splits in halves, so k fallback cuts cost at most
2k - 1 full passes, and only a single cut that fails is met.  Add O(sum of
|G[X_e]|) local work, which is quadratic on nested cuts such as a directed
cycle; every algorithm stops once no later split can change its result.  A
split reaches the meet as one record ``(S, ids)``: S lists, without
repeats, the vertices outside vertex 0's class, and ``ids[v]`` the class
of each v in S.  The meet keeps the running partition in arrays, each
class a contiguous segment, and refines it by a record in O(|S|), so a
split that moves few vertices costs little; one ``Partition`` is built
when a stream ends.

Two algorithms are provided for the twinless variant.  The matrix
transcription (``tetb_alg1_matrix``) marks separated pairs in an n-by-n
boolean table, in which each row stays its vertex's class, and reads
blocks off as the vertices grouped by row.  The refinement form
(``tetb_alg2_refine``) meets the partitions: its default "safe" mode over
every twinless bridge alone, its "faithful" mode from the 2-edge blocks
over the twinless bridges that are not strong bridges; that skip is only
sound on graphs without strong bridges (see the G_GADGET fixture for the
counterexample the test suite pins down).
"""
from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

from .core import (Digraph, GraphError, BudgetError, PreconditionError,
                   induced_subgraph, remove_arcs)
from .partition import Partition, partition_meet
from .connectivity import (_low_link_class_of, _split_class_of,
                           twinless_strongly_connected_components)
from .cuts import BridgeReport, _bridge_report, _Separations

MATRIX_VERTEX_BUDGET = 20_000
SUBSET_BUDGET = 10 ** 6

_ALGORITHMS = ("alg1", "alg2-safe", "alg2-faithful")


class SeparationMatrix:
    """n-by-n boolean table over vertex pairs, 1 until a removal separates.

    Rows are machine-word bitsets, and each row stays the mask of its
    vertex's class: the diagonal never clears and the table stays
    symmetric and transitive.  ``rewrite`` sets only the rows of the
    classes one ``_Refinement`` record changed, each class's members
    sharing one int.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int):
        self.n = n
        self.rows = [(1 << n) - 1] * n

    def entry(self, v: int, w: int) -> bool:
        return bool(self.rows[v] >> w & 1)

    def rewrite(self, part: _Refinement, made) -> None:
        """Rows for the ``(c, k)`` pairs one ``part.refine`` returned: each
        new class k gets the mask of its members, and each class c that
        lost them keeps its old mask minus theirs."""
        rows = self.rows
        lost: dict[int, int] = {}
        for c, k in made:
            members = part.members(k)
            mask = sum([1 << v for v in members])
            for v in members:
                rows[v] = mask
            lost[c] = lost.get(c, 0) | mask
        for c, mask in lost.items():
            rest = part.members(c)
            mask ^= rows[rest[0]]
            for v in rest:
                rows[v] = mask

    def never_separated_components(self) -> list[frozenset[int]]:
        """The never-separated classes of size > 1: vertices grouped by the
        lowest set bit of their rows, a small-int key, each member's row
        checked against its group's mask at every n.  That implies the
        diagonal, symmetry and transitivity; a one-bit big-int row would
        hash to one of 61 values."""
        rows = self.rows
        out: list[frozenset[int]] = []
        for members in Partition((r & -r).bit_length() for r in rows).classes:
            mask = sum(1 << v for v in members)
            if any(rows[v] != mask for v in members):
                raise GraphError("internal: separation matrix row is not "
                                 "the class of its members")
            if len(members) > 1:
                out.append(frozenset(members))
        return out


@dataclass(frozen=True)
class BlockSet:
    """Pairwise disjoint vertex sets, each of size at least 2."""

    blocks: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        total = 0
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) < 2:
                raise GraphError("block of size < 2")
            total += len(b)
            seen |= b
        if len(seen) != total:
            raise GraphError("blocks are not disjoint")

    @classmethod
    def from_partition(cls, p: Partition) -> "BlockSet":
        return cls(frozenset(frozenset(c) for c in p.classes if len(c) > 1))

    def covered_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def as_label_lists(self, g: Digraph) -> list[list[str]]:
        """Canonical rendering: labels ascending inside a block, blocks
        ascending by their first label."""
        rendered = [sorted(g.labels[v] for v in b) for b in self.blocks]
        return sorted(rendered)

    def as_label_sets(self, g: Digraph) -> frozenset[frozenset[str]]:
        return frozenset(
            frozenset(g.labels[v] for v in b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"BlockSet({sorted(sorted(b) for b in self.blocks)})"


def _scc_splits(g: Digraph, cuts):
    """``(e, X_e, SCC classes of g - e)`` for the ``(e, X_e)`` pairs of
    ``cuts``, strong bridges e in any order, with no whole-graph pass,
    skipping a split already yielded.

    The classes are 0 on V - X_e and the SCCs of G[X_e] - e from 1 on.
    The skip is exact for the SCC and the TSCC meets alike: the ends of a
    strong bridge lie in different SCCs of g - e, so TSCC(g - e) depends
    on SCC(g - e) alone, and a meet is idempotent.  A bridge with an end
    outside X_e is not in G[X_e], so every such bridge of one X_e gives
    the same split: X_e alone keys those, checked before the split is
    computed.  That covers every one-vertex X_e: only a bridge of both
    G_0 and G_0^R has both ends in X_e, and then |X_e| >= 2.  A larger
    split is keyed by its canonical form, X_e ascending and then its
    classes numbered by first occurrence.  Both keys go with the
    generator.
    """
    seen: set[tuple[int, ...]] = set()
    outside: set[tuple[int, ...]] = set()  # X_e split for such a bridge
    for e, cut in cuts:
        if not all(x in cut for x in g._ends[e]):
            key = tuple(cut)
            if key in outside:
                continue
            outside.add(key)
        scc_of = _split_class_of(g, cut, e)
        if len(cut) > 1:
            first: dict[int, int] = {}
            key = (*cut, *[first.setdefault(scc_of[x], len(first))
                           for x in cut])
            if key in seen:
                continue
            seen.add(key)
        yield e, cut, scc_of


def _tscc_stream(g: Digraph, seps: _Separations, bridges, part):
    """TSCC classes of g minus each bridge, some met already, from the
    DFS tree T of the underlying graph U that the bridge report kept; one
    ``(S, ids)`` record per split (see ``_Refinement``).  Vertex 0 lies in
    no X_e, so its class is always the implicit one.  The consumer meets
    each record into ``part`` before it pulls the next, as the fallbacks'
    group check reads it.

    * The twinless bridges that are not strong bridges give one split,
      the meet of their TSCC splits: ``_CutTree.rings`` cuts their 2-cut
      classes of U out of T in one preorder pass, with no traversal.  S
      is the vertices outside vertex 0's piece.
    * A strong bridge e splits g into V - X_e, cut by the 2-edge-connected
      classes of U - X_e, and the TSCCs of G[X_e] - e (e has an end in
      X_e, so U - X_e is all the kernel sees outside X_e).  When U - X_e
      is 2-edge-connected, V - X_e stays one class and the split is local:
      the SCC split of ``_scc_splits``, then a low-link pass over X_e
      alone, skipped when every SCC there is one vertex; S is X_e.  That
      holds for X_e = V - {0}.
    * Every other cut past the gate below is asked about once, alone.
      The query of ``_CutTree.certified`` passes X_e when it is a
      connected subtree of T whose contracted vertex passes the U - x
      rule, that is, when U - X_e is 2-edge-connected, so the split is
      local.
    * Every other split is a fallback, met in two halves.  Its inside
      half, V - X_e one class and the TSCCs of G[X_e] - e, comes where
      the stream reaches it: the SCC split, then a low-link pass over X_e
      alone, skipped when every SCC there is one vertex; S is X_e.  The
      outside halves, X_e one class and U - X_e cut into its
      2-edge-connected classes, come after every other split, checked in
      groups against ``part`` by ``_outside_halves``: only those that
      split a class of ``part`` are met, each as one full low-link pass.

    A one-vertex cut {x} needs no pass, certified or not: its local split,
    or its inside half as a fallback, is x alone against V - {x}.  Those
    cuts and the certified local splits whose SCCs inside X_e are single
    vertices are met as one split, each such vertex alone; S lists a
    vertex that two cuts share once.  A larger fallback's inside half is
    met at once even then, so a meet that it leaves all singletons stops
    before the group check.  The certificate costs O((n + m) log n), about
    as much as log n kernel passes, so it is built only when at least
    ceil(log2 n) distinct X_e other than V - {0} reach it.  The cuts
    X_e = V - {0} come first, as the strong bridges are met in id order,
    so a meet that stops early never enumerates the other X_e.  Every cut
    is asked about before the next kernel pass, so the certificate's
    tables are freed before it.
    """
    if not bridges:
        return
    n = g.n
    tree = seps.cut_tree
    ring = [e for e in bridges if not seps.side[e]]
    if ring:
        piece = tree.rings(g, ring)
        yield _outside(piece), piece
    groups: dict[tuple[int, ...], list[int]] = {}  # X_e -> its bridges

    def whole():
        """The bridges that cut off V - {0}, as met; the others are
        grouped by X_e on the way."""
        for e in sorted(bridges):
            if seps.side[e]:
                cut = seps.cut_off(e)
                if len(cut) == n - 1:
                    yield e, cut
                else:
                    groups.setdefault(tuple(cut), []).append(e)

    for e, cut, scc_of in _scc_splits(g, whole()):
        # U - X_e is vertex 0 alone; a pass over X_e leaves it class -1
        yield cut, (scc_of if max(scc_of) == n - 1
                    else _low_link_class_of(g, scc_of, e, cut))
    local = set()  # the cuts the certificate clears
    if len(groups) >= (n - 1).bit_length():
        passes = tree.certified(g)
        local = {cut for cut in groups if passes(cut)}
        del passes  # the tables go before the first kernel pass
    apart = [cut[0] for cut in groups if len(cut) == 1]
    larger = ((e, cut) for cut, es in groups.items() if len(cut) > 1
              for e in es)
    for e, cut, scc_of in _scc_splits(g, larger):
        if max(scc_of) < len(cut):
            yield cut, _low_link_class_of(g, scc_of, e, cut)
        elif cut in local:  # every vertex of X_e is an SCC of its own
            apart += cut
        else:  # a fallback's inside half, met at once all the same
            yield cut, scc_of
    if apart:  # cuts overlap, so a vertex can come twice
        yield list(dict.fromkeys(apart)), range(n)
    pending = [cut for cut in groups if cut not in local]
    if pending:
        yield from _outside_halves(g, pending, part)


def _outside_halves(g: Digraph, cuts, part):
    """The records of the fallback cuts X in ``cuts`` whose outside half,
    X one class and U - X cut into its 2-edge-connected classes, splits a
    class of ``part``, found by group tests over ``part`` as it is met.

    A group of cuts with union R is certified by one low-link pass over
    U - R, each vertex of R a class of its own, when every class of
    ``part`` with two or more members lies in one class of that pass:
    U - R is a subgraph of each U - X, so a class 2-edge-connected in
    U - R is so in U - X.  A class that meets R lies in an X of the group
    once X's inside half is met, so a group of one cut passes it, and a
    larger group splits in halves with no pass.  A group with no such
    class outside R is certified with no pass.  A group that fails splits
    in halves too; one cut that fails is the pass with X one class, met
    as its record.  Each node of that split tree runs at most one pass,
    so k cuts cost at most 2k - 1 passes.
    """
    n = g.n
    todo = [cuts]
    while todo:
        group = todo.pop()
        half = len(group) // 2
        inside = [x for cut in group for x in cut]
        first, end = part.first, part.end
        met = {c for c in {part.class_of[x] for x in inside}
               if end[c] - first[c] > 1}
        if met and len(group) > 1:
            todo += group[half:], group[:half]
            continue
        if all(end[c] - first[c] == 1 or c in met
               for c in range(part.num_classes)):
            continue  # the pass could split no class
        mark = [0] * n
        for x in inside:  # a class of its own: vertex 0 is in no X
            mark[x] = x
        class_of = _low_link_class_of(g, mark)
        for x in inside:
            class_of[x] = -1
        if part.lies_within(class_of):
            continue
        if len(group) == 1:
            yield _outside(class_of), class_of
        else:
            todo += group[half:], group[:half]


class _Refinement:
    """The running partition of a meet, refined in place by split records.

    A record ``(S, ids)`` stands for the partition whose classes are
    V - S, which holds vertex 0, and the vertices of S grouped by
    ``ids[v]``.  The vertices are kept in class order in ``elems``, class
    c the segment ``elems[first[c]:end[c]]``, so meeting a record costs
    O(|S|): each group of S inside a class C moves to C's tail and becomes
    a new class, unless it is all that is left of C, which stays C
    (Paige and Tarjan, "Three partition refinement algorithms", SIAM J.
    Comput. 1987; Habib, Paul and Viennot, IJFCS 1999).  The arrays are
    allocated by the first record, so a stream that yields none costs
    nothing here.
    """

    __slots__ = ("n", "num_classes", "elems", "pos", "class_of", "first",
                 "end")

    def __init__(self, n: int) -> None:
        self.n = n
        self.num_classes = 1
        self.class_of = None

    def meet(self, records) -> _Refinement:
        """Refine by each record in turn; stop at all singletons, which no
        further record can split, so the rest of the stream is never
        computed."""
        if self.num_classes < self.n:
            for split, ids in records:
                self.refine(split, ids)
                if self.num_classes == self.n:
                    break
        return self

    def refine(self, split, ids) -> list[tuple[int, int]]:
        """Meet one record; ``(c, k)`` for each new class k, split off c."""
        n = self.n
        if self.class_of is None:
            self.elems = array("i", range(n))
            self.pos = array("i", range(n))
            self.class_of = array("i", [0]) * n
            self.first = array("i", [0]) * n
            self.end = array("i", [n]) * n
        elems, pos, class_of = self.elems, self.pos, self.class_of
        first, end = self.first, self.end
        groups: dict[tuple[int, int], list[int]] = {}
        for v in split:
            key = (class_of[v], ids[v])
            group = groups.get(key)
            if group is None:
                groups[key] = [v]
            else:
                group.append(v)
        made = []
        for (c, _), group in groups.items():
            e = end[c]
            if len(group) == e - first[c]:
                continue  # all that is left of c
            k = self.num_classes
            self.num_classes += 1
            end[k] = e
            for v in group:
                e -= 1
                p, u = pos[v], elems[e]
                elems[p], pos[u] = u, p
                elems[e], pos[v] = v, e
                class_of[v] = k
            first[k] = end[c] = e
            made.append((c, k))
        return made

    def members(self, c: int):
        return self.elems[self.first[c]:self.end[c]]

    def lies_within(self, class_of) -> bool:
        """Whether every class lies in one class of ``class_of``: each
        vertex is checked against the first member of its class, with no
        list of size n."""
        elems, first, owner = self.elems, self.first, self.class_of
        return all(class_of[v] == class_of[elems[first[owner[v]]]]
                   for v in range(self.n))

    def partition(self) -> Partition:
        if self.class_of is None:
            return Partition.single_class(self.n)
        return Partition(self.class_of)


def _outside(class_of) -> list[int]:
    """The vertices outside vertex 0's class, ascending."""
    return list(itertools.compress(range(len(class_of)),
                                   map(class_of[0].__ne__, class_of)))


def _scc_records(g: Digraph, seps: _Separations):
    """The SCC split of each strong bridge in ``seps`` as a record: S is
    X_e, whose vertices ``_scc_splits`` numbers from 1."""
    splits = _scc_splits(g, ((e, seps.cut_off(e))
                             for e in sorted(seps.strong_bridges())))
    return ((cut, scc_of) for _e, cut, scc_of in splits)


def _two_edge_block_partition(g: Digraph, seps: _Separations) -> Partition:
    """2-edge blocks as a partition, non-block vertices as singletons: the
    meet of the SCC splits of the strong bridges in ``seps``."""
    return _Refinement(g.n).meet(_scc_records(g, seps)).partition()


def two_edge_blocks(g: Digraph) -> BlockSet:
    """2-edge blocks of a strongly connected graph.

    Only strong bridges are iterated: removing any other arc leaves the
    graph strongly connected and cannot separate a pair.  Each split
    costs O(n) list set-up plus a Tarjan pass over G[X_e] alone.
    """
    return BlockSet.from_partition(
        _two_edge_block_partition(g, _Separations(g)))


def tetb_alg1_matrix(g: Digraph) -> BlockSet:
    """2-edge-twinless blocks via the separation-matrix transcription.

    For each twinless bridge, every vertex pair landing in distinct
    twinless strongly connected components of the reduced graph is marked
    separated; each row is its vertex's class by construction, so blocks
    are the size->=2 groups of equal rows, each checked against its
    members at every n.  Rows are machine-word bitsets, and a split
    rewrites only the rows of the classes it changes: O(n / wordsize) per
    vertex it moves, plus one store per row of a class it shrinks.  The
    marking stops once no pair of distinct vertices is left, which no
    later bridge could change.  The budget refusal comes before the
    precondition check in ``bridge_report``.
    """
    if g.n > MATRIX_VERTEX_BUDGET:
        raise BudgetError(
            f"n={g.n} exceeds the n*n separation-matrix budget "
            f"({MATRIX_VERTEX_BUDGET}); use tetb_alg2_refine instead")
    return _alg1_blocks(g, *_bridge_report(g))


def _alg1_blocks(g: Digraph, rep: BridgeReport,
                 seps: _Separations) -> BlockSet:
    """``tetb_alg1_matrix`` of g, read off its bridge report."""
    if not rep.twinless_bridges:
        return BlockSet.from_partition(Partition.single_class(g.n))
    matrix = SeparationMatrix(g.n)
    part = _Refinement(g.n)
    for split, ids in _tscc_stream(g, seps, rep.twinless_bridges, part):
        matrix.rewrite(part, part.refine(split, ids))
        if part.num_classes == g.n:
            break  # no pair left to separate
    return BlockSet(frozenset(matrix.never_separated_components()))


def tetb_alg2_refine(g: Digraph, mode: str = "safe") -> BlockSet:
    """2-edge-twinless blocks by meeting per-twinless-bridge partitions.

    mode="safe" is the meet over every twinless bridge alone: strong bridges
    are twinless bridges and TSCC(g - e) refines SCC(g - e), so it implies
    the 2-edge blocks.  mode="faithful" is the 2-edge-block pre-pass met
    with the twinless bridges that are not strong bridges.  That skip is
    exact only when the graph has no strong bridges, so safe is the default.
    Both modes stop meeting once every class is a singleton.
    """
    if mode not in ("safe", "faithful"):
        raise ValueError(f"unknown mode {mode!r}")
    return _alg2_blocks(g, mode, *_bridge_report(g))


def _alg2_blocks(g: Digraph, mode: str, rep: BridgeReport,
                 seps: _Separations) -> BlockSet:
    """``tetb_alg2_refine`` of g in ``mode``, read off its bridge report."""
    part = _Refinement(g.n)
    if mode == "faithful":
        records = itertools.chain(
            _scc_records(g, seps),
            _tscc_stream(g, seps, rep.twinless_bridges - rep.strong_bridges,
                         part))
    else:
        records = _tscc_stream(g, seps, rep.twinless_bridges, part)
    return BlockSet.from_partition(part.meet(records).partition())


def two_edge_twinless_blocks(g: Digraph,
                             algorithm: str = "alg2-safe") -> BlockSet:
    """2-edge-twinless blocks of an arbitrary digraph.

    Pipeline: the blocks of a graph are the union of the blocks of its
    twinless strongly connected components, so each size->=2 component is
    analyzed in isolation with the chosen algorithm.  The bridge report of
    the whole graph comes first: when it succeeds, g is one component and
    is analysed off that report, with no decomposition.  Its DFS of g and
    of the reverse come before any dominators, so an input that is not
    strongly connected pays one or two DFS before the decomposition; one
    that is strongly connected but has an underlying bridge pays them and
    the report's 2-cut pass.  For alg1, a graph over the matrix budget
    goes straight to the decomposition, where a component that large is
    refused before its report.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    mode = "faithful" if algorithm == "alg2-faithful" else "safe"
    if algorithm != "alg1" or g.n <= MATRIX_VERTEX_BUDGET:
        try:
            report = _bridge_report(g)
        except PreconditionError:
            pass  # not twinless strongly connected
        else:
            if algorithm == "alg1":
                return _alg1_blocks(g, *report)
            return _alg2_blocks(g, mode, *report)
    tp = twinless_strongly_connected_components(g)
    out: list[frozenset[int]] = []
    for cls in tp.classes:
        if len(cls) < 2:
            continue
        sub = induced_subgraph(g, cls)
        back = sorted(cls)
        if algorithm == "alg1":
            found = tetb_alg1_matrix(sub)
        else:
            found = tetb_alg2_refine(sub, mode)
        out.extend(frozenset(back[v] for v in b) for b in found.blocks)
    return BlockSet(frozenset(out))


def k_edge_twinless_blocks_bruteforce(g: Digraph, k: int) -> BlockSet:
    """Meet of the TSCC partitions of g minus L over all |L| <= k-1.

    Enumeration only; refuses when the subset count leaves the budget.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    top = min(k, g.m + 1)  # no arc subset has more than m arcs
    total = sum(math.comb(g.m, i) for i in range(top))
    if total > SUBSET_BUDGET:
        raise BudgetError(
            f"enumerating {total} arc subsets exceeds the budget "
            f"({SUBSET_BUDGET})")
    part = twinless_strongly_connected_components(g)
    ids = range(g.m)
    for size in range(1, top):
        for chosen in itertools.combinations(ids, size):
            part = partition_meet(
                part,
                twinless_strongly_connected_components(
                    remove_arcs(g, chosen)))
    return BlockSet.from_partition(part)
