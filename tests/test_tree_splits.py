"""Per-bridge TSCC splits read off the DFS tree of the underlying graph:
one split for all the twinless bridges that are not strong, the U - X
certificate for the strong bridges whose cut-off part X, or X with its
peel, is a connected subtree of it, and the full low-link kernel only for
the splits that fall back."""
import math
import random
from collections import Counter

import pytest

from twinblocks import (GeneratorConfig, Partition, UndirectedGraph,
                        bridge_report, bridges_undirected,
                        connected_components, induced_subgraph,
                        partition_meet, random_digraph, remove_arcs,
                        strong_bridges, strongly_connected_components,
                        tetb_alg1_matrix, tetb_alg2_refine, twinless_bridges,
                        twinless_strongly_connected_components,
                        underlying_graph)
from twinblocks import blocks as blocks_mod
from twinblocks.blocks import BlockSet, _two_edge_block_partition
from twinblocks.connectivity import (_low_link_class_of, _split_class_of,
                                     _tscc_class_of)
from twinblocks.cuts import _bridge_report, _CutTree, _peel
from twinblocks.fixtures import C3, G_DEMO19, G_GADGET, K3B, P2

from helpers import blob_chain, cycle, dominator_fan, path_fan, shuffled
from test_blocks import UNION_RULE_COUNTEREXAMPLE


def _tscc_inputs():
    """Twinless strongly connected graphs: the TSCCs of the fixtures, of
    the union-rule counterexample and of 120 seeded graphs per generator
    shape, and the adversarial shapes, each also with shuffled arc ids."""
    graphs = [C3, P2, K3B, G_DEMO19, G_GADGET, UNION_RULE_COUNTEREXAMPLE]
    for shape in ("any", "strongly-connected",
                  "twinless-strongly-connected"):
        for seed in range(120):
            n = 4 + seed % 37
            graphs.append(random_digraph(GeneratorConfig(
                n_range=(n, n), m_range=(n + n // 2, 3 * n),
                twin_density=(seed % 5) * 0.2, seed=seed, shape=shape)))
    tsccs = [induced_subgraph(g, c) for g in graphs
             for c in twinless_strongly_connected_components(g).classes
             if len(c) > 2]
    tsccs += [cycle(9), path_fan(13), blob_chain(3, 3), blob_chain(4, 4)]
    return tsccs + [shuffled(g, seed) for seed, g in enumerate(tsccs)]


TSCC_INPUTS = _tscc_inputs()


def _outside_stays_one_class(g, cut) -> bool:
    """The kernel with the vertices of ``cut`` set apart leaves the rest
    one class."""
    scc_of = [0] * g.n
    for x in cut:
        scc_of[x] = 1
    class_of = _low_link_class_of(g, scc_of)
    return len({class_of[v] for v in range(g.n) if not scc_of[v]}) == 1


def _stays_two_edge_connected(g, x: int) -> bool:
    """The kernel with x set apart leaves V - {x} one class."""
    return _outside_stays_one_class(g, {x})


def test_certificate_equals_kernel_on_every_vertex():
    outcomes = [0, 0]
    for g in TSCC_INPUTS:
        seps = _bridge_report(g)[1]
        passes = seps.cut_tree.certified(g)
        certified = {x for x in range(g.n) if passes((x,))}
        assert 0 not in certified
        for x in range(1, g.n):
            ok = _stays_two_edge_connected(g, x)
            assert (x in certified) == ok, (g, x)
            outcomes[ok] += 1
    assert min(outcomes) > 4000


def _subtree_top(parent, cut) -> int:
    """The one vertex of ``cut`` whose parent lies outside it, or -1 when
    there are several or ``cut`` holds the root 0."""
    inside = set(cut)
    tops = [x for x in cut if parent[x] not in inside]
    return tops[0] if len(tops) == 1 and 0 not in inside else -1


def _random_subtree(rng, kids, n: int) -> tuple[int, ...]:
    """A connected subtree of the tree given by ``kids``, root excluded."""
    cut = [rng.randrange(1, n)]
    fringe = list(kids[cut[0]])
    size = rng.randrange(1, n)
    while fringe and len(cut) < size:
        c = fringe.pop(rng.randrange(len(fringe)))
        cut.append(c)
        fringe += kids[c]
    return tuple(sorted(cut))


def test_certificate_equals_kernel_on_connected_subtrees():
    rng = random.Random(11)
    outcomes = {"strong": [0, 0], "random": [0, 0]}
    for g in TSCC_INPUTS:
        rep, seps = _bridge_report(g)
        tree = seps.cut_tree
        kids = [[] for _ in range(g.n)]
        for v in tree.order[1:]:
            kids[tree.parent[v]].append(v)
        strong = {tuple(seps.cut_off(e)) for e in rep.strong_bridges}
        drawn = {_random_subtree(rng, kids, g.n) for _ in range(6)}
        passes = tree.certified(g)
        certified = {cut for cut in strong | drawn if passes(cut)}
        for kind, cuts in (("strong", strong), ("random", drawn)):
            for cut in cuts:
                if _subtree_top(tree.parent, cut) < 0:
                    assert cut not in certified, (g, cut)
                    continue
                ok = _outside_stays_one_class(g, cut)
                assert (cut in certified) == ok, (g, cut)
                outcomes[kind][ok] += 1
    strong, drawn = outcomes["strong"], outcomes["random"]
    assert min(strong + drawn) >= 500, outcomes
    assert min(strong[0] + drawn[0], strong[1] + drawn[1]) >= 1000


def _model_peel(g, cut) -> set[int]:
    """V - X minus the 2-core of U - X, from the reference underlying
    graph: drop every vertex with at most one neighbour left, repeatedly."""
    adjacency = underlying_graph(g).adjacency
    left = set(range(g.n)) - set(cut)
    while True:
        low = {v for v in left if len(left.intersection(adjacency[v])) < 2}
        if not low:
            return set(range(g.n)) - set(cut) - left
        left -= low


def test_peeled_certificate_equals_kernel():
    rng = random.Random(13)
    outcomes = Counter()
    for g in TSCC_INPUTS:
        rep, seps = _bridge_report(g)
        tree = seps.cut_tree
        kids = [[] for _ in range(g.n)]
        for v in tree.order[1:]:
            kids[tree.parent[v]].append(v)
        strong = {tuple(seps.cut_off(e)) for e in rep.strong_bridges}
        drawn = {_random_subtree(rng, kids, g.n) for _ in range(6)}
        passes = tree.certified(g)
        for cut in strong | drawn:
            peel = _peel(g, cut)
            if passes(cut):
                # U - X is 2-edge-connected and simple, so unless it is
                # vertex 0 alone it has three vertices or more, each with
                # two neighbours: nothing is peeled
                assert peel == ([0] if len(cut) == g.n - 1 else []), (g, cut)
                outcomes["passed as it is"] += 1
                continue
            assert len(set(peel)) == len(peel), (g, cut)
            assert set(peel) == _model_peel(g, cut), (g, cut)
            # the kernel with X set apart: each vertex of P is alone
            scc_of = [0] * g.n
            for x in cut:
                scc_of[x] = 1
            class_of = _low_link_class_of(g, scc_of)
            sizes = Counter(class_of[v] for v in range(g.n) if not scc_of[v])
            assert all(sizes[class_of[p]] == 1 for p in peel), (g, cut)
            whole = cut + tuple(peel)
            if _subtree_top(tree.parent, whole) < 0:
                assert not passes(whole), (g, cut)
                outcomes["not a subtree"] += 1
                continue
            rest = {class_of[v] for v in range(g.n)
                    if not scc_of[v] and v not in peel}
            ok = len(rest) == 1
            assert passes(whole) == ok, (g, cut)
            outcomes[ok, bool(peel)] += 1
    assert outcomes[True, True] >= 500, outcomes
    assert outcomes["passed as it is"] >= 500, outcomes
    assert min(outcomes[False, True], outcomes["not a subtree"]) >= 20


def test_ring_splits_equal_full_tscc_passes():
    checked = multi = 0
    for g in TSCC_INPUTS + [dominator_fan(5), dominator_fan(8)]:
        rep, seps = _bridge_report(g)
        non_strong = sorted(rep.twinless_bridges - rep.strong_bridges)
        part = Partition.single_class(g.n)
        for e in non_strong:
            full = Partition(_tscc_class_of(g, e))
            assert Partition(seps.cut_tree.rings(g, [e])) == full, (g, e)
            part = partition_meet(part, full)
            checked += 1
        # every ring split at once: the fold of the full passes
        assert Partition(seps.cut_tree.rings(g, non_strong)) == part, g
        multi += len(non_strong) > 1
    assert checked > 500
    assert multi > 100


def test_no_two_non_strong_twinless_bridges_share_a_two_cut():
    pairs = 0
    for g in TSCC_INPUTS:
        rep = bridge_report(g)
        non_strong = sorted(rep.twinless_bridges - rep.strong_bridges)
        u = underlying_graph(g)
        for i, e in enumerate(non_strong):
            for f in non_strong[:i]:
                cut = {tuple(sorted(g.arcs[a][:2])) for a in (e, f)}
                assert connected_components(
                    UndirectedGraph(g.n, u.edges - cut)).num_classes == 1
                pairs += 1
    assert pairs > 100


def _full_pass_meet(g, part, bridges) -> BlockSet:
    """The stream before the tree splits: one full TSCC pass per bridge."""
    for e in sorted(bridges):
        part = Partition(zip(part.class_of, _tscc_class_of(g, e)))
    return BlockSet.from_partition(part)


def test_tree_stream_equals_full_pass_stream():
    gated = 0
    for g in TSCC_INPUTS:
        rep, seps = _bridge_report(g)
        gated += _gate(g, _removal_splits(g, rep))
        safe = _full_pass_meet(g, Partition.single_class(g.n),
                               rep.twinless_bridges)
        assert tetb_alg1_matrix(g) == safe
        assert tetb_alg2_refine(g, "safe") == safe
        assert tetb_alg2_refine(g, "faithful") == _full_pass_meet(
            g, _two_edge_block_partition(g, seps),
            rep.twinless_bridges - rep.strong_bridges)
    assert gated > 200


def _removal_splits(g, rep) -> dict:
    """Per strong bridge e, from a plain arc removal: SCC(g - e) and the
    vertices it cuts off the SCC of vertex 0."""
    out = {}
    for e in rep.strong_bridges:
        scc = strongly_connected_components(remove_arcs(g, {e}))
        out[e] = scc, [v for v in range(g.n) if not scc.same_class(v, 0)]
    return out


def _gate(g, splits) -> bool:
    """At least ceil(log2 n) distinct cut-off parts other than V - {0}."""
    cuts = {tuple(cut) for _scc, cut in splits.values()
            if len(cut) < g.n - 1}
    return len(cuts) >= math.ceil(math.log2(g.n))


def _two_edge_connected_without(g, cut) -> bool:
    u = underlying_graph(g)
    rest = UndirectedGraph(g.n, {(a, b) for a, b in u.edges
                                 if a not in cut and b not in cut})
    return (connected_components(rest).num_classes == len(cut) + 1
            and not bridges_undirected(rest))


def _stream(g):
    """Every split of the per-bridge stream, nothing met."""
    rep, seps = _bridge_report(g)
    return list(blocks_mod._tscc_stream(g, seps, rep.twinless_bridges))


SPARSE_ANY = random_digraph(GeneratorConfig(
    n_range=(300, 300), m_range=(600, 600), twin_density=0.3, seed=7,
    shape="any"))


def test_kernel_runs_once_per_fallback_split(monkeypatch):
    g = SPARSE_ANY
    full, local, built, asked, peeled = [], [], [], [], []

    def counted_kernel(h, scc_of, skip=-1, roots=None):
        (full if roots is None else local).append(skip)
        return _low_link_class_of(h, scc_of, skip, roots)

    certified = _CutTree.certified

    def counted_certified(self, *args):
        built.append(args)
        query = certified(self, *args)

        def counted_query(cut):
            asked.append(cut)
            return query(cut)
        return counted_query

    def counted_peel(h, cut):
        peeled.append(tuple(cut))
        return _peel(h, cut)

    monkeypatch.setattr(blocks_mod, "_low_link_class_of", counted_kernel)
    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    monkeypatch.setattr(blocks_mod, "_peel", counted_peel)
    gated = fell_back = walked = 0
    for cls in twinless_strongly_connected_components(g).classes:
        if len(cls) < 3:
            continue
        sub = induced_subgraph(g, cls)
        for query in (bridge_report, twinless_bridges, strong_bridges):
            query(sub)
        assert built == []  # the bridge queries never build it
        rep = bridge_report(sub)
        splits = _removal_splits(sub, rep)
        gate = _gate(sub, splits)
        parent = _bridge_report(sub)[1].cut_tree.parent

        def local_split(cut):
            """V - {0} needs no certificate; another cut X needs the gate,
            and X or X with its peel a connected subtree of the DFS tree
            with U minus it 2-edge-connected."""
            return len(cut) == sub.n - 1 or gate and any(
                _subtree_top(parent, whole) >= 0
                and _two_edge_connected_without(sub, set(whole))
                for whole in (cut, cut + sorted(_model_peel(sub, cut))))
        fallbacks = {scc for scc, cut in splits.values()
                     if not local_split(cut)}
        # a certified cut X walks X alone, unless its SCCs are single
        # vertices (the class of vertex 0 is V - X)
        locals_ = {scc for scc, cut in splits.values() if local_split(cut)
                   and any(len(c) > 1 for c in scc.classes if 0 not in c)}
        full.clear()
        local.clear()
        _stream(sub)
        assert len(built) == gate
        # past the gate, one peel and then one query, about X with its
        # peel, per distinct cut X other than V - {0}
        cuts = {tuple(cut) for _scc, cut in splits.values()
                if len(cut) < sub.n - 1}
        assert sorted(peeled) == (sorted(cuts) if gate else [])
        assert asked == [cut + tuple(_peel(sub, cut)) for cut in peeled]
        # one full pass per fallback split and one local pass per certified
        # split with a larger SCC; none for a non-strong bridge
        assert len(full) == len(fallbacks)
        assert len(local) == len(locals_)
        assert set(full + local) <= rep.strong_bridges
        assert {splits[e][0] for e in full} == fallbacks
        assert {splits[e][0] for e in local} == locals_
        gated += gate
        fell_back += bool(full)
        walked += bool(local)
        full.clear()
        local.clear()
        built.clear()
        asked.clear()
        peeled.clear()
        tetb_alg2_refine(sub, "faithful")  # ring splits only
        assert full == local == built == asked == peeled == []
    assert gated >= 1 and fell_back >= 1 and walked >= 1


def test_split_pass_repeats_only_for_a_bridge_inside_its_cut(monkeypatch):
    called, fed, yielded = [], [], []
    scc_splits = blocks_mod._scc_splits

    def counted_split(g, cut, e):
        called.append(e)
        return _split_class_of(g, cut, e)

    def counted_splits(g, cuts):
        def feed():
            for e, cut in cuts:
                fed.append((e, tuple(cut)))
                yield e, cut

        for split in scc_splits(g, feed()):
            yielded.append(split[0])
            yield split

    monkeypatch.setattr(blocks_mod, "_split_class_of", counted_split)
    monkeypatch.setattr(blocks_mod, "_scc_splits", counted_splits)
    repeats = skipped = 0
    for cls in twinless_strongly_connected_components(SPARSE_ANY).classes:
        if len(cls) < 3:
            continue
        sub = induced_subgraph(SPARSE_ANY, cls)
        rep, seps = _bridge_report(sub)
        splits = _removal_splits(sub, rep)
        called.clear()
        fed.clear()
        yielded.clear()
        _stream(sub)
        # the bridges with an end outside their larger cut X (all but the
        # bridges of both G_0 and G_0^R) split each X once; a split
        # computed again is keyed after it, so it is not yielded
        seen, outside = set(), set()
        again = 0
        for e in called:
            scc, cut = splits[e]
            if seps.side[e] != 3 and len(cut) > 1:
                assert tuple(cut) not in outside, (sub, e)
                outside.add(tuple(cut))
            again += (tuple(cut), scc) in seen
            seen.add((tuple(cut), scc))
        assert len(called) == len(yielded) + again
        repeats += again
        # what the key on X saves: a larger cut fed again for such a bridge
        outside.clear()
        for e, cut in fed:
            if len(cut) > 1 and seps.side[e] != 3:
                skipped += cut in outside
                outside.add(cut)
    assert skipped >= 2 and repeats >= 2, (skipped, repeats)


@pytest.mark.parametrize("g", [cycle(9), path_fan(13), blob_chain(3, 3)],
                         ids=["cycle", "path-fan", "blob-chain"])
def test_certificate_is_not_built_below_the_gate(g, monkeypatch):
    built = []
    certified = _CutTree.certified

    def counted_certified(self, *args):
        built.append(args)
        return certified(self, *args)

    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    reached = _gate(g, _removal_splits(g, bridge_report(g)))
    assert reached == (g.n == 13)  # path_fan(13): 5 cuts, gate 4
    for mode in ("safe", "faithful"):
        tetb_alg2_refine(g, mode)
    tetb_alg1_matrix(g)
    assert len(built) <= reached
    built.clear()
    _stream(g)  # the whole stream builds it iff the gate is reached
    assert len(built) == reached
