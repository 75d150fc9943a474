import functools
import random

import pytest

from twinblocks import (BlockSet, Digraph, GeneratorConfig, PreconditionError,
                        UndirectedGraph, bridge_report, bridges_undirected,
                        is_twinless_strongly_connected, random_digraph,
                        remove_arcs, strong_bridges, tetb_alg1_matrix,
                        tetb_alg2_refine, twin_arc_ids, twinless_bridges,
                        twinless_strongly_connected_components,
                        two_edge_blocks, underlying_graph)
from twinblocks.cli import run
from twinblocks.cuts import _CutTree, _immediate_dominators, _Separations
from twinblocks.fixtures import (C3, DEMO19_EDGE_TEXT, G_DEMO19, G_GADGET,
                                K3B, P2)

from helpers import (blob_chain, cycle, dominator_fan, labels_of_arcs,
                     naive_strong_bridges, naive_twinless_bridges, path_fan,
                     shuffled, tsc_instances)


def test_strong_bridges_examples():
    assert strong_bridges(C3) == frozenset(range(3))
    assert strong_bridges(K3B) == naive_strong_bridges(K3B) == frozenset()
    found = strong_bridges(G_GADGET)
    assert found == naive_strong_bridges(G_GADGET)
    assert labels_of_arcs(G_GADGET, found) == {("p", "q")}


def test_strong_bridges_precondition():
    with pytest.raises(PreconditionError, match="not strongly connected"):
        strong_bridges(remove_arcs(P2, {0}))


def test_twinless_bridges_examples():
    assert twinless_bridges(C3) == frozenset(range(3))
    tb = twinless_bridges(G_DEMO19)
    assert ("3", "8") in labels_of_arcs(G_DEMO19, tb)
    assert twinless_bridges(K3B) == naive_twinless_bridges(K3B) == frozenset()


def test_twinless_bridges_precondition():
    with pytest.raises(PreconditionError,
                       match="input is not twinless strongly connected"):
        twinless_bridges(P2)


NOT_SC = "^input is not strongly connected$"
NOT_TSC = "^input is not twinless strongly connected$"


# every bridge-search entry point: its message when the input is not
# strongly connected, and its result on P2 (None: refused, since P2 is
# strongly connected but not twinless strongly connected)
@pytest.mark.parametrize("search, not_sc, on_p2", [
    (strong_bridges, NOT_SC, frozenset({0, 1})),
    (two_edge_blocks, NOT_SC, BlockSet(frozenset())),
    (bridge_report, NOT_TSC, None),
    (twinless_bridges, NOT_TSC, None),
    (tetb_alg1_matrix, NOT_TSC, None),
    (functools.partial(tetb_alg2_refine, mode="safe"), NOT_TSC, None),
    (functools.partial(tetb_alg2_refine, mode="faithful"), NOT_TSC, None),
], ids=["strong_bridges", "two_edge_blocks", "bridge_report",
        "twinless_bridges", "tetb_alg1_matrix", "tetb_alg2_refine-safe",
        "tetb_alg2_refine-faithful"])
def test_bridge_searches_pin_precondition_messages(search, not_sc, on_p2):
    with pytest.raises(PreconditionError, match="^empty graph$"):
        search(Digraph((), []))
    with pytest.raises(PreconditionError, match=not_sc):
        search(remove_arcs(P2, {0}))
    if on_p2 is None:
        with pytest.raises(PreconditionError, match=NOT_TSC):
            search(P2)
    else:
        assert search(P2) == on_p2


def test_each_bridge_search_builds_one_separations(tmp_path, capsys,
                                                  monkeypatch):
    built = []
    init = _Separations.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_Separations, "__init__", counted)
    for search in (strong_bridges, bridge_report, twinless_bridges,
                   two_edge_blocks, tetb_alg1_matrix,
                   functools.partial(tetb_alg2_refine, mode="safe"),
                   functools.partial(tetb_alg2_refine, mode="faithful")):
        built.clear()
        search(G_DEMO19)
        assert len(built) == 1, search
    path = tmp_path / "demo19.txt"
    path.write_text(DEMO19_EDGE_TEXT + "\n", encoding="utf-8")
    for command in ("strong-bridges", "twinless-bridges", "2-edge-blocks"):
        built.clear()
        assert run([command, "--input", str(path)]) == 0
        assert len(built) == 1, command
    capsys.readouterr()


# strongly connected, but the joining twin pair is an underlying bridge
TRIANGLES_JOINED_BY_TWINS = Digraph.from_label_pairs(
    [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x"),
     ("a", "x"), ("x", "a")])
# bridgeless underlying triangle, but c reaches nothing
TRANSITIVE_TRIANGLE = Digraph.from_label_pairs(
    [("a", "b"), ("b", "c"), ("a", "c")])


def _seeded_graphs(shape: str, count: int) -> list[Digraph]:
    out = []
    seed = 0
    while len(out) < count:
        cfg = GeneratorConfig(n_range=(1, 7), m_range=(0, 16),
                              twin_density=(seed % 4) * 0.25,
                              seed=seed, shape=shape)
        seed += 1
        try:
            out.append(random_digraph(cfg))
        except PreconditionError:  # infeasible (n, m) for the shape
            pass
    return out


@pytest.mark.parametrize("analysis", [
    bridge_report, twinless_bridges, tetb_alg1_matrix, tetb_alg2_refine])
def test_precondition_matches_reference(analysis):
    named = [TRIANGLES_JOINED_BY_TWINS, TRANSITIVE_TRIANGLE]
    assert not any(is_twinless_strongly_connected(g) for g in named)
    graphs = named + [g for shape in ("any", "strongly-connected",
                                      "twinless-strongly-connected")
                      for g in _seeded_graphs(shape, 60)]
    refused = 0
    for g in graphs:
        if is_twinless_strongly_connected(g):
            analysis(g)
        else:
            refused += 1
            with pytest.raises(PreconditionError,
                               match="not twinless strongly connected"):
                analysis(g)
    assert 0 < refused < len(graphs)


def test_bridges_match_definitional_recheck_on_fixtures():
    for g in (C3, K3B, G_DEMO19, G_GADGET, cycle(8), path_fan(9),
              blob_chain(3, 3), blob_chain(2, 4), dominator_fan(5)):
        assert strong_bridges(g) == naive_strong_bridges(g)
        assert twinless_bridges(g) == naive_twinless_bridges(g)


def test_bridges_match_definitional_recheck_on_random_graphs():
    for g in tsc_instances(120, m_range=(3, 20)):
        assert strong_bridges(g) == naive_strong_bridges(g)
        assert twinless_bridges(g) == naive_twinless_bridges(g)


def _grown(g: Digraph, arcs) -> Digraph:
    """g plus ``arcs``, whose ends from g.n on are new vertices."""
    n = max(map(max, arcs)) + 1
    return Digraph(g.labels + tuple(f"new{v}" for v in range(g.n, n)),
                   list(g._ends) + arcs)


def _dense_with_plants(seed: int) -> list[Digraph]:
    """A dense twinless strongly connected graph (12 <= n <= 60, m <= 6n;
    n <= 20 but for one seed in 16, so the naive rechecks stay cheap) and
    copies with planted bridges: x with one in-arc, y with one out-arc,
    both, and a bidirected triangle entered by one arc and left by one,
    whose vertices all keep two in-arcs and two out-arcs."""
    rng = random.Random(seed)
    n = rng.randint(12, 60 if seed % 16 == 0 else 20)
    g = random_digraph(GeneratorConfig(
        n_range=(n, n), m_range=(5 * n, 6 * n), twin_density=(seed % 4) * 0.1,
        seed=seed, shape="twinless-strongly-connected"))
    a, b, c = rng.sample(range(n), 3)
    x, y, z = n, n + 1, n + 2
    one_in = [(a, x), (x, b), (x, c)]
    triangle = [(u, v) for u in (x, y, z) for v in (x, y, z) if u != v]
    return [g, _grown(g, one_in), _grown(g, [(a, x), (b, x), (x, c)]),
            _grown(g, one_in + [(a, y), (b, y), (y, c)]),
            _grown(g, triangle + [(a, x), (y, b)])]


def test_spare_search_skips_only_bridgeless_directions():
    skipped = 0
    for seed in range(48):
        for g in _dense_with_plants(seed):
            assert is_twinless_strongly_connected(g)
            assert twinless_bridges(g) == naive_twinless_bridges(g)
            for h in (g, shuffled(g, seed)):
                seps = _Separations(h)
                assert seps.strong_bridges() == naive_strong_bridges(h)
                skipped += seps.trees.count(None)
    assert skipped >= 300, skipped


def test_twinless_bridge_iff_removal_splits_tscc():
    for g in tsc_instances(40):
        tb = twinless_bridges(g)
        for a in g.arcs:
            split = twinless_strongly_connected_components(
                remove_arcs(g, {a.arc_id})).num_classes > 1
            assert (a.arc_id in tb) == split


def test_strong_subset_twinless_and_bound():
    for g in [G_DEMO19, G_GADGET, K3B, C3] + tsc_instances(60):
        rep = bridge_report(g)
        assert rep.strong_bridges <= rep.twinless_bridges
        assert rep.b_t <= 2 * g.n - 2
        assert rep.strong_bridges == strong_bridges(g)
        assert rep.twinless_bridges == twinless_bridges(g)
        assert rep.b_s == len(rep.strong_bridges)
        assert rep.b_t == len(rep.twinless_bridges)


def _reached_from_root(succ, removed: int) -> set[int]:
    """Vertices reachable from 0 without passing through ``removed``."""
    if removed == 0:
        return set()
    seen = {0}
    stack = [0]
    while stack:
        for w, _ in succ[stack.pop()]:
            if w != removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_dominators_match_bruteforce_in_both_directions():
    graphs = [g for shape in ("any", "strongly-connected")
              for g in _seeded_graphs(shape, 80)]
    graphs += [random_digraph(GeneratorConfig(
        n_range=(8, 20), m_range=(10, 45), twin_density=0.2, seed=seed,
        shape="any")) for seed in range(40)]
    graphs += [G_DEMO19, G_GADGET, path_fan(15), blob_chain(3, 3),
               dominator_fan(6)]
    graphs += [shuffled(g, seed) for seed, g in enumerate(graphs)]
    for g in graphs:
        for succ, pred in ((g.out_pairs, g.in_pairs),
                           (g.in_pairs, g.out_pairs)):
            order, idom = _immediate_dominators(g.n, succ, pred)
            reach = _reached_from_root(succ, -1)
            assert sorted(order) == sorted(reach) and order[0] == 0
            for w in range(g.n):
                if w not in reach or w == 0:
                    assert idom[w] == -1
                    continue
                # v strictly dominates w iff w is unreachable in G - v
                dominators = {v for v in reach if v != w
                              and w not in _reached_from_root(succ, v)}
                chain = set()
                d = idom[w]
                while d != -1:
                    chain.add(d)
                    d = idom[d]
                assert chain == dominators


def test_strong_bridges_match_recheck_on_strongly_connected_graphs():
    graphs = _seeded_graphs("strongly-connected", 200)
    assert sum(not is_twinless_strongly_connected(g) for g in graphs) > 20
    for g in graphs:
        assert strong_bridges(g) == naive_strong_bridges(g)


def test_strong_bridges_match_recheck_with_shuffled_arc_ids():
    graphs = _seeded_graphs("strongly-connected", 200)
    for seed, g in enumerate(graphs):
        h = shuffled(g, seed)
        assert strong_bridges(h) == naive_strong_bridges(h)


def test_strong_bridges_on_a_deep_path_need_no_recursion():
    g = path_fan(20001)
    assert len(strong_bridges(g)) == g.n
    rep = bridge_report(g)  # the 2-cut DFS and union-find go n deep too
    assert rep.b_s == rep.b_t == g.n


def brute_edges_in_some_two_cut(u: UndirectedGraph) -> frozenset:
    out = set()
    for e in u.edges:
        rest = UndirectedGraph(u.n, u.edges - {e})
        if bridges_undirected(rest):
            out.add(e)
    return frozenset(out)


def brute_unpaired_two_cut_arcs(g: Digraph) -> list[int]:
    """Unpaired arcs whose underlying edge the brute force puts in a
    2-edge cut."""
    cut = brute_edges_in_some_two_cut(underlying_graph(g))
    twin = twin_arc_ids(g)
    return [a.arc_id for a in g.arcs if twin[a.arc_id] < 0
            and (min(a.source, a.target), max(a.source, a.target)) in cut]


def _two_cut_arcs(g: Digraph) -> list[int]:
    return sorted(_CutTree(g, twin_arc_ids(g)).unpaired)


def test_two_cut_membership_matches_bruteforce():
    checked = 0
    seed = 0
    while checked < 120:
        g = random_digraph(GeneratorConfig(
            n_range=(3, 10), m_range=(4, 26), twin_density=(seed % 4) * 0.3,
            seed=seed, shape="twinless-strongly-connected"))
        seed += 1
        u = UndirectedGraph(g.n, ((a.source, a.target) for a in g.arcs))
        if bridges_undirected(u):
            continue  # helper contract: bridgeless input
        checked += 1
        assert _two_cut_arcs(g) == brute_unpaired_two_cut_arcs(g)


def test_two_cut_membership_on_cycle_and_clique():
    assert _two_cut_arcs(cycle(5)) == list(range(5))  # every pair is a cut
    # twin-free strongly connected orientation of K4: 3-edge-connected
    k4 = Digraph.from_label_pairs(
        [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0"), ("0", "2"),
         ("1", "3")])
    assert is_twinless_strongly_connected(k4)
    assert _two_cut_arcs(k4) == []


# DFS 0-1-2-4, then 1-3-5: the sibling subtrees below 1 both have two
# covers reaching up to 0, so their tree edges share a (count, high) key
# without sharing a cover set
SIBLINGS_WITH_EQUAL_KEYS = Digraph.from_label_pairs(
    [("0", "1"), ("1", "2"), ("2", "4"), ("4", "0"), ("2", "0"), ("1", "3"),
     ("3", "5"), ("5", "0"), ("3", "0")])


def test_two_cut_membership_matches_bruteforce_on_larger_graphs():
    graphs = [cycle(12), path_fan(41), blob_chain(4, 3), blob_chain(3, 4),
              SIBLINGS_WITH_EQUAL_KEYS]
    seed = 0
    while len(graphs) < 305:
        n = 10 + seed % 31
        g = random_digraph(GeneratorConfig(
            n_range=(n, n), m_range=(n + n // 2, 3 * n),
            twin_density=(seed % 10) * 0.1, seed=seed,
            shape="twinless-strongly-connected"))
        # the generator's arcs start with a Hamiltonian cycle, which the
        # DFS would follow as an unbranched path; shuffled arc ids branch it
        arcs = [(a.source, a.target) for a in g.arcs]
        random.Random(seed).shuffle(arcs)
        graphs.append(Digraph(g.labels, arcs))
        seed += 1
    nonempty_large = 0
    for g in graphs:
        found = _two_cut_arcs(g)
        assert found == brute_unpaired_two_cut_arcs(g)
        nonempty_large += bool(found) and g.n >= 20
    assert nonempty_large > 100
