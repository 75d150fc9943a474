"""Directed graph data model.

Vertices are dense integer ids ``0..n-1``; every vertex carries an external
string label (the token it was parsed from).  All algorithms work on ids,
reports translate back to labels.  Graphs are immutable after construction:
arc removal and induced subgraphs build new values, and per-arc analyses
traverse the same graph with one arc skipped instead of rebuilding it.

One arc store, the id-ordered ``(source, target) -> arc_id`` dict, is the
single source of a graph's arcs: it yields adjacency and twin ids once per
graph, and its keys, as one tuple indexed by arc id, give the ends of an
arc.  The public ``arcs`` tuple of ``Arc`` records is derived from it on
first use only; no analysis reads it.  ``Digraph(labels, pairs)`` checks
every arc; the parser, ``remove_arcs`` and ``induced_subgraph`` check only
their own input and hand their store to the same builder.

Simple digraphs only: self-loops are rejected everywhere, duplicate arcs are
rejected in strict parsing mode (antiparallel-pair semantics are undefined
for parallel arcs).  The undirected reference graph lives in ``testkit``.
"""
from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple


class GraphError(Exception):
    """Base error for this package."""


class ParseError(GraphError):
    """Malformed edge-list input."""


class PreconditionError(GraphError):
    """An operation was called on an input outside its contract."""


class BudgetError(PreconditionError):
    """An enumeration or memory budget would be exceeded."""


class Arc(NamedTuple):
    source: int
    target: int
    arc_id: int


class TwinPair(NamedTuple):
    """A pair of antiparallel arcs (u,v) and (v,u), named by arc id."""

    forward: int
    backward: int


class Digraph:
    """Immutable simple directed graph over dense vertex ids.

    Attributes (treat as read-only):
      n          vertex count
      m          arc count
      arcs       tuple of Arc, indexed by arc_id; derived on first use
      labels     tuple mapping vertex id -> label
      out_pairs  per-vertex tuple of (target, arc_id)
      in_pairs   per-vertex tuple of (source, arc_id)
    """

    __slots__ = ("n", "m", "labels", "out_pairs", "in_pairs",
                 "_label_ids", "_arc_ids", "_ends", "_twin", "_arcs")

    def __init__(self, labels: Iterable[str], pairs: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        n = len(labels)
        label_ids = {lab: v for v, lab in enumerate(labels)}
        if len(label_ids) != n:
            raise GraphError("labels are not unique")
        arc_ids: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"arc ({u},{v}) references unknown vertex")
            if u == v:
                raise GraphError(f"self-loop at vertex {labels[u]!r}")
            if (u, v) in arc_ids:
                raise GraphError(
                    f"duplicate arc {labels[u]!r} -> {labels[v]!r}")
            arc_ids[(u, v)] = len(arc_ids)
        self._build(labels, label_ids, arc_ids)

    @classmethod
    def _from_store(cls, labels: tuple[str, ...], label_ids: dict[str, int],
                    arc_ids: dict[tuple[int, int], int]) -> "Digraph":
        """A graph over parts the caller has already validated."""
        g = cls.__new__(cls)
        g._build(labels, label_ids, arc_ids)
        return g

    def _build(self, labels: tuple[str, ...], label_ids: dict[str, int],
               arc_ids: dict[tuple[int, int], int]) -> None:
        """Derive adjacency, arc ends and twin ids from the id-ordered
        store."""
        n = len(labels)
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        twin = []
        for (u, v), aid in arc_ids.items():
            out[u].append((v, aid))
            inc[v].append((u, aid))
            twin.append(arc_ids.get((v, u), -1))
        self.n = n
        self.m = len(arc_ids)
        self.labels = labels
        self.out_pairs = tuple(map(tuple, out))
        self.in_pairs = tuple(map(tuple, inc))
        self._label_ids = label_ids
        self._arc_ids = arc_ids
        self._ends = tuple(arc_ids)  # (source, target) by arc id
        self._twin = tuple(twin)
        self._arcs = None

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc as an ``Arc``, indexed by arc id; built on first use."""
        if self._arcs is None:
            self._arcs = tuple(
                Arc(u, v, aid) for aid, (u, v) in enumerate(self._ends))
        return self._arcs

    @classmethod
    def from_label_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "Digraph":
        """Build a digraph from (source label, target label) pairs.

        Labels are interned to dense ids in first-appearance order.
        """
        label_ids: dict[str, int] = {}
        id_pairs = []
        for a, b in pairs:
            id_pairs.append((label_ids.setdefault(a, len(label_ids)),
                             label_ids.setdefault(b, len(label_ids))))
        return cls(tuple(label_ids), id_pairs)

    def vertex(self, label: str) -> int:
        try:
            return self._label_ids[label]
        except KeyError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arc_ids

    def arc_id(self, u: int, v: int) -> int:
        try:
            return self._arc_ids[(u, v)]
        except KeyError:
            raise GraphError(f"no arc ({u},{v})") from None

    def arc_label_pairs(self) -> frozenset[tuple[str, str]]:
        labels = self.labels
        return frozenset((labels[u], labels[v]) for u, v in self._arc_ids)

    def __eq__(self, other: object) -> bool:
        """Semantic equality: same label set and same arcs by label."""
        if not isinstance(other, Digraph):
            return NotImplemented
        return (set(self.labels) == set(other.labels)
                and self.arc_label_pairs() == other.arc_label_pairs())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def parse_edge_list(text: str, mode: str = "strict") -> Digraph:
    """Parse edge-list text into a Digraph.

    Format: UTF-8 text, ``#`` starts a comment to end of line, blank lines
    are ignored, and each arc line is ``SOURCE TARGET`` (two whitespace
    separated tokens).  Labels are interned in first-appearance order.

    In strict mode duplicate arcs are errors; in lenient mode they are
    dropped with a warning carrying the drop count.  Self-loops and
    malformed lines are errors in both modes.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode {mode!r}")
    label_ids: dict[str, int] = {}
    arc_ids: dict[tuple[int, int], int] = {}
    dropped = 0
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != 2:
            if not tokens:
                continue
            raise ParseError(
                f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        a, b = tokens
        if a == b:
            raise ParseError(f"line {lineno}: self-loop at {a!r}")
        uv = (label_ids.setdefault(a, len(label_ids)),
              label_ids.setdefault(b, len(label_ids)))
        aid = len(arc_ids)
        if arc_ids.setdefault(uv, aid) != aid:
            if mode == "strict":
                raise ParseError(f"line {lineno}: duplicate arc {a!r} -> {b!r}")
            dropped += 1
    del lines  # freed before the build, which is the memory peak
    if dropped:
        warnings.warn(f"dropped {dropped} duplicate arc(s)", stacklevel=2)
    return Digraph._from_store(tuple(label_ids), label_ids, arc_ids)


def serialize(g: Digraph) -> str:
    """Canonical edge-list text: arcs sorted by (source label, target label).

    ``parse_edge_list(serialize(g))`` reproduces the graph up to arc order.
    """
    labels = g.labels
    lines = sorted((labels[u], labels[v]) for u, v in g._arc_ids)
    return "\n".join(f"{s} {t}" for s, t in lines)


def twin_arc_ids(g: Digraph) -> list[int]:
    """Map each arc id to the id of its antiparallel twin, or -1."""
    return list(g._twin)


def twin_pairs(g: Digraph) -> frozenset[TwinPair]:
    """All antiparallel arc pairs of g; each arc occurs in at most one pair."""
    return frozenset(
        TwinPair(aid, rev) for aid, rev in enumerate(g._twin) if rev > aid)


def remove_arcs(g: Digraph, drop: Iterable[int]) -> Digraph:
    """A new digraph with the same vertex set and the given arcs removed."""
    drop = set(drop)
    for aid in drop:
        if not (isinstance(aid, int) and 0 <= aid < g.m):
            raise GraphError(f"unknown arc id {aid!r}")
    kept = [uv for uv, aid in g._arc_ids.items() if aid not in drop]
    return Digraph._from_store(g.labels, g._label_ids,
                               dict(zip(kept, range(len(kept)))))


def induced_subgraph(g: Digraph, keep: Iterable[int]) -> Digraph:
    """Subgraph on ``keep`` with both-endpoint arcs; labels are preserved.

    New ids follow ascending original id order, so the mapping back to the
    parent graph is ``sorted(keep)``.  Keeping every vertex returns ``g``.
    """
    keep = set(keep)
    for v in keep:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise GraphError(f"unknown vertex id {v!r}")
    if len(keep) == g.n:
        return g
    order = sorted(keep)
    new_id = {v: i for i, v in enumerate(order)}
    kept = [(new_id[u], new_id[v]) for u, v in g._arc_ids
            if u in new_id and v in new_id]
    labels = tuple(g.labels[v] for v in order)
    return Digraph._from_store(labels, dict(zip(labels, range(len(order)))),
                               dict(zip(kept, range(len(kept)))))
