import pytest
from hypothesis import given, settings, strategies as st

from twinblocks import GraphError, Partition, partition_meet


def P(*classes):
    n = sum(len(c) for c in classes)
    return Partition.from_classes(n, classes)


def test_meet_examples():
    assert partition_meet(P({0, 1, 2}), P({0, 1}, {2})) == P({0, 1}, {2})
    p = P({0, 1}, {2, 3})
    assert partition_meet(p, p) == p
    assert partition_meet(P({0, 1}, {2, 3}), P({0, 2}, {1, 3})) == \
        P({0}, {1}, {2}, {3})


def test_meet_universe_mismatch():
    with pytest.raises(GraphError, match="universe"):
        partition_meet(Partition([0, 0]), Partition([0, 0, 0]))


def test_from_classes_validation():
    with pytest.raises(GraphError, match="two classes"):
        Partition.from_classes(2, [{0, 1}, {1}])
    with pytest.raises(GraphError, match="cover"):
        Partition.from_classes(3, [{0, 1}])
    with pytest.raises(GraphError, match="unknown vertex id -1"):
        Partition.from_classes(3, [[0, 1], [-1]])
    with pytest.raises(GraphError, match="unknown vertex id 3"):
        Partition.from_classes(3, [[0, 1], [2, 3]])


def test_canonical_class_indexing():
    assert Partition([5, 5, 9, 5]).class_of == (0, 0, 1, 0)
    assert Partition([1, 0, 1]) == Partition([0, 1, 0])
    assert Partition([0, 1, 1]).classes == ((0,), (1, 2))


def test_any_iterable_of_ids():
    assert Partition(iter([3, 3, 1])) == Partition([3, 3, 1])
    assert Partition(zip([0, 0, 1], "aab")).class_of == (0, 0, 1)


def test_queries():
    p = Partition([0, 1, 0])
    assert p.num_classes == 2
    assert p.same_class(0, 2) and not p.same_class(0, 1)
    assert p.class_members(1) == (1,)


partitions = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
).map(Partition)


@settings(max_examples=80, deadline=None)
@given(partitions, partitions)
def test_meet_commutative(p, q):
    if p.n != q.n:
        return
    assert partition_meet(p, q) == partition_meet(q, p)


@settings(max_examples=80, deadline=None)
@given(partitions)
def test_meet_idempotent_and_identity(p):
    assert partition_meet(p, p) == p
    assert partition_meet(p, Partition.single_class(p.n)) == p


@settings(max_examples=50, deadline=None)
@given(partitions, partitions, partitions)
def test_meet_associative(p, q, r):
    if not (p.n == q.n == r.n):
        return
    left = partition_meet(partition_meet(p, q), r)
    right = partition_meet(p, partition_meet(q, r))
    assert left == right
