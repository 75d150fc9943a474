import pytest

from twinblocks import (Digraph, GeneratorConfig, PreconditionError,
                        UndirectedGraph, bridges_undirected, condensation_tscc,
                        connected_components, induced_subgraph,
                        is_strongly_connected, is_twinless_strongly_connected,
                        oracle_tscc, random_digraph, remove_arcs,
                        strongly_connected_components, twin_arc_ids,
                        twinless_strongly_connected_components,
                        two_edge_connected_components, underlying_graph)
from twinblocks import connectivity as connectivity_mod
from twinblocks.connectivity import _scc_class_of, _tscc_class_of
from twinblocks.partition import Partition
from twinblocks.fixtures import C3, G_DEMO19, G_GADGET, K3B, P2

from helpers import (any_instances, closure_scc_partition, label_classes,
                     shuffled, tsc_instances)


def demo_minus_38():
    aid = G_DEMO19.arc_id(G_DEMO19.vertex("3"), G_DEMO19.vertex("8"))
    return remove_arcs(G_DEMO19, {aid})


def test_scc_examples():
    assert strongly_connected_components(C3).num_classes == 1
    assert strongly_connected_components(G_DEMO19).num_classes == 1


def test_scc_demo_minus_arc():
    h = demo_minus_38()
    p = strongly_connected_components(h)
    # independently derived by brute-force transitive closure
    assert p == closure_scc_partition(h)
    big = frozenset("1 2 5 7 9 11 12 13 14 16 17 18 19".split())
    expected = {big} | {frozenset({x}) for x in ("3", "4", "6", "8", "10", "15")}
    assert label_classes(h, p) == expected


def test_scc_matches_closure_on_random_graphs():
    for g in any_instances(60, n_range=(1, 9), m_range=(0, 20)):
        assert strongly_connected_components(g) == closure_scc_partition(g)


def test_is_strongly_connected():
    assert is_strongly_connected(P2)
    assert not is_strongly_connected(remove_arcs(P2, {0}))
    assert is_strongly_connected(G_DEMO19)
    assert is_strongly_connected(Digraph(("a",), []))
    with pytest.raises(PreconditionError):
        is_strongly_connected(Digraph((), []))


def test_is_strongly_connected_matches_partition():
    for g in any_instances(40):
        assert is_strongly_connected(g) == \
            (strongly_connected_components(g).num_classes == 1)


def test_connected_components():
    triangle = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert connected_components(triangle).num_classes == 1
    assert connected_components(UndirectedGraph(3, [])).num_classes == 3
    two = connected_components(UndirectedGraph(4, [(0, 1), (2, 3)]))
    assert {frozenset(c) for c in two.classes} == \
        {frozenset({0, 1}), frozenset({2, 3})}


def test_bridges_undirected_small():
    assert bridges_undirected(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])) == set()
    assert bridges_undirected(UndirectedGraph(3, [(0, 1), (1, 2)])) == \
        {(0, 1), (1, 2)}


def naive_bridges(u: UndirectedGraph) -> set[tuple[int, int]]:
    base = connected_components(u).num_classes
    out = set()
    for e in u.edges:
        rest = UndirectedGraph(u.n, u.edges - {e})
        if connected_components(rest).num_classes > base:
            out.add(e)
    return out


def test_bridges_in_demo_scc_underlying():
    h = demo_minus_38()
    scc = strongly_connected_components(h)
    big = max(scc.classes, key=len)
    sub = induced_subgraph(h, big)
    u = underlying_graph(sub)
    found = bridges_undirected(u)
    assert found == naive_bridges(u)
    five, seven = sub.vertex("5"), sub.vertex("7")
    key = (five, seven) if five < seven else (seven, five)
    assert key in found


def test_bridges_match_naive_on_random_graphs():
    for g in any_instances(50, n_range=(2, 9), m_range=(1, 20)):
        u = underlying_graph(g)
        assert bridges_undirected(u) == naive_bridges(u)


def test_two_edge_connected_components():
    assert two_edge_connected_components(
        UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])).num_classes == 1
    path = two_edge_connected_components(UndirectedGraph(3, [(0, 1), (1, 2)]))
    assert path.num_classes == 3
    pendant = two_edge_connected_components(
        UndirectedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    assert {frozenset(c) for c in pendant.classes} == \
        {frozenset({0, 1, 2}), frozenset({3})}


def test_tscc_examples():
    assert label_classes(P2, twinless_strongly_connected_components(P2)) == \
        {frozenset({"1"}), frozenset({"2"})}
    assert twinless_strongly_connected_components(G_DEMO19).num_classes == 1


def test_tscc_demo_minus_arc():
    h = demo_minus_38()
    p = twinless_strongly_connected_components(h)
    assert not p.same_class(h.vertex("2"), h.vertex("7"))
    big = frozenset("1 2 5 9 11 12 13 14 16 17 18 19".split())
    singles = {frozenset({x}) for x in ("3", "4", "6", "7", "8", "10", "15")}
    assert label_classes(h, p) == {big} | singles
    # the removal leaves a single twin pair, so the oracle is cheap here
    assert p == oracle_tscc(h)


def test_tscc_refines_scc():
    for g in any_instances(50):
        scc = strongly_connected_components(g)
        tscc = twinless_strongly_connected_components(g)
        for c in tscc.classes:
            assert len({scc.class_of[v] for v in c}) == 1


def test_tscc_matches_oracle_on_random_graphs():
    for g in tsc_instances(60) + any_instances(60):
        assert twinless_strongly_connected_components(g) == oracle_tscc(g)


def test_tscc_matches_literal_per_scc_recipe():
    # the grouped single-pass computation must equal the spelled-out
    # induced-subgraph / underlying-graph / 2ecc recipe
    for g in any_instances(40, n_range=(2, 9), m_range=(0, 18)):
        tscc = twinless_strongly_connected_components(g)
        literal: list[set[int]] = []
        for cls in strongly_connected_components(g).classes:
            sub = induced_subgraph(g, cls)
            back = sorted(cls)
            p = two_edge_connected_components(underlying_graph(sub))
            literal.extend({back[v] for v in c} for c in p.classes)
        assert {frozenset(c) for c in tscc.classes} == \
            {frozenset(c) for c in literal}


def test_skip_arc_traversal_equals_removal():
    for g in tsc_instances(25, m_range=(4, 16)):
        for a in g.arcs:
            h = remove_arcs(g, {a.arc_id})
            assert Partition(_scc_class_of(g, a.arc_id)) == \
                strongly_connected_components(h)
            assert Partition(_tscc_class_of(g, a.arc_id)) == \
                twinless_strongly_connected_components(h)


@pytest.mark.parametrize("shape", ["any", "strongly-connected",
                                   "twinless-strongly-connected"])
def test_skip_arc_kernel_matches_oracle(shape):
    twin_skips = 0
    for seed in range(60):
        g = random_digraph(GeneratorConfig(
            n_range=(3, 7), m_range=(3, 14), twin_density=(seed % 5) * 0.2,
            seed=seed, shape=shape))
        for h in (g, shuffled(g, seed)):
            twin = twin_arc_ids(h)
            for a in h.arcs:
                assert Partition(_tscc_class_of(h, a.arc_id)) == \
                    oracle_tscc(remove_arcs(h, {a.arc_id}))
                twin_skips += twin[a.arc_id] != -1
    assert twin_skips > 0


def test_is_twinless_strongly_connected():
    assert is_twinless_strongly_connected(C3)
    assert not is_twinless_strongly_connected(P2)
    assert is_twinless_strongly_connected(G_DEMO19)
    assert is_twinless_strongly_connected(Digraph(("a",), []))
    with pytest.raises(PreconditionError):
        is_twinless_strongly_connected(Digraph((), []))


def test_is_tsc_matches_class_count():
    for g in any_instances(50):
        assert is_twinless_strongly_connected(g) == \
            (twinless_strongly_connected_components(g).num_classes == 1)


def test_condensation_examples():
    ct = condensation_tscc(C3)
    assert len(ct.nodes) == 1 and not ct.edges
    assert ct.is_tree and ct.every_edge_twin_crossed

    ct = condensation_tscc(P2)
    assert len(ct.nodes) == 2 and len(ct.edges) == 1
    (pairs,) = ct.edges.values()
    assert len(pairs) == 1
    assert ct.is_tree and ct.every_edge_twin_crossed

    chain = Digraph.from_label_pairs(
        [("1", "2"), ("2", "1"), ("2", "3"), ("3", "2")])
    ct = condensation_tscc(chain)
    assert len(ct.nodes) == 3 and len(ct.edges) == 2
    assert all(len(p) == 1 for p in ct.edges.values())
    assert ct.is_tree and ct.every_edge_twin_crossed


def test_condensation_requires_strong_connectivity():
    with pytest.raises(PreconditionError, match="not strongly connected"):
        condensation_tscc(remove_arcs(P2, {0}))


def test_condensation_tree_property_on_random_graphs():
    count = 0
    seed = 0
    while count < 60:
        g = random_digraph(GeneratorConfig(
            n_range=(2, 9), m_range=(2, 18), twin_density=(seed % 5) * 0.2,
            seed=seed, shape="strongly-connected"))
        seed += 1
        count += 1
        ct = condensation_tscc(g)
        assert ct.is_tree
        assert ct.every_edge_twin_crossed
        assert len(ct.edges) == len(ct.nodes) - 1


def test_condensation_runs_tarjan_once(monkeypatch):
    passes = []

    def counted(g, skip=-1):
        passes.append(skip)
        return _scc_class_of(g, skip)

    monkeypatch.setattr(connectivity_mod, "_scc_class_of", counted)
    condensation_tscc(G_DEMO19)
    assert passes == [-1]
    monkeypatch.undo()

    # results and messages as precondition check plus TSCC pass give them
    graphs = [C3, P2, K3B, G_DEMO19, G_GADGET, remove_arcs(P2, {0}),
              Digraph((), []), demo_minus_38()]
    graphs += any_instances(40)
    graphs += [random_digraph(GeneratorConfig(
        n_range=(2, 9), m_range=(2, 18), twin_density=(seed % 5) * 0.2,
        seed=seed, shape="strongly-connected")) for seed in range(40)]
    for g in graphs:
        if g.n == 0:
            with pytest.raises(PreconditionError, match="^empty graph$"):
                condensation_tscc(g)
        elif not is_strongly_connected(g):
            with pytest.raises(PreconditionError,
                               match="^input is not strongly connected$"):
                condensation_tscc(g)
        else:
            assert condensation_tscc(g).nodes == \
                twinless_strongly_connected_components(g).classes
