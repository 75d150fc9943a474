"""Disjoint vertex classes covering 0..n-1.

Class indices are normalized by first occurrence, so two partitions with the
same grouping compare equal regardless of how they were produced.
"""
from __future__ import annotations

from typing import Hashable, Iterable

from .core import GraphError


class Partition:
    __slots__ = ("n", "class_of", "num_classes", "_classes")

    def __init__(self, class_of: Iterable[Hashable]):
        norm: dict[Hashable, int] = {}
        self.class_of = tuple([norm.setdefault(c, len(norm))
                               for c in class_of])
        self.n = len(self.class_of)
        self.num_classes = len(norm)
        self._classes: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def single_class(cls, n: int) -> "Partition":
        return cls([0] * n)

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Partition":
        class_of = [-1] * n
        for idx, members in enumerate(classes):
            for v in members:
                if not 0 <= v < n:
                    raise GraphError(f"unknown vertex id {v}")
                if class_of[v] != -1:
                    raise GraphError(f"vertex {v} appears in two classes")
                class_of[v] = idx
        if any(c == -1 for c in class_of):
            raise GraphError("classes do not cover the vertex set")
        return cls(class_of)

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes in canonical order; members ascending."""
        if self._classes is None:
            buckets: list[list[int]] = [[] for _ in range(self.num_classes)]
            for v, c in enumerate(self.class_of):
                buckets[c].append(v)
            self._classes = tuple(tuple(b) for b in buckets)
        return self._classes

    def same_class(self, u: int, v: int) -> bool:
        return self.class_of[u] == self.class_of[v]

    def class_members(self, v: int) -> tuple[int, ...]:
        return self.classes[self.class_of[v]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.class_of == other.class_of

    def __hash__(self) -> int:
        return hash(self.class_of)

    def __repr__(self) -> str:
        return f"Partition({[list(c) for c in self.classes]})"


def partition_meet(p: Partition, q: Partition) -> Partition:
    """Coarsest partition refining both: u,v share a class iff they share
    one in p and in q."""
    if p.n != q.n:
        raise GraphError(f"universe mismatch: {p.n} != {q.n}")
    return Partition(zip(p.class_of, q.class_of))
