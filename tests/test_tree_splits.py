"""Per-bridge TSCC splits read off the DFS tree of the underlying graph:
preorder rings for the twinless bridges that are not strong, the U - x
certificate for the strong bridges that cut off one vertex, and the
low-link kernel only for the splits that fall back."""
import math

import pytest

from twinblocks import (GeneratorConfig, Partition, UndirectedGraph,
                        bridge_report, bridges_undirected,
                        connected_components, induced_subgraph,
                        random_digraph, remove_arcs, strong_bridges,
                        strongly_connected_components, tetb_alg1_matrix,
                        tetb_alg2_refine, twinless_bridges,
                        twinless_strongly_connected_components,
                        underlying_graph)
from twinblocks import blocks as blocks_mod
from twinblocks.blocks import BlockSet, _two_edge_block_partition
from twinblocks.connectivity import (_low_link_class_of, _neighbours,
                                     _tscc_class_of)
from twinblocks.cuts import _bridge_report, _CutTree
from twinblocks.fixtures import C3, G_DEMO19, G_GADGET, K3B, P2

from helpers import blob_chain, cycle, path_fan, shuffled
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


def _stays_two_edge_connected(nbrs, n: int, x: int) -> bool:
    """The kernel with x set apart leaves V - {x} one class."""
    scc_of = [0] * n
    scc_of[x] = 1
    class_of = _low_link_class_of(nbrs, scc_of)
    return len({class_of[v] for v in range(n) if v != x}) == 1


def test_certificate_equals_kernel_on_every_vertex():
    outcomes = [0, 0]
    for g in TSCC_INPUTS:
        seps = _bridge_report(g)[1]
        nbrs = _neighbours(g)
        certified = set(seps.cut_tree.certified(g, range(g.n)))
        assert 0 not in certified
        for x in range(1, g.n):
            ok = _stays_two_edge_connected(nbrs, g.n, x)
            assert (x in certified) == ok, (g, x)
            outcomes[ok] += 1
    assert min(outcomes) > 4000


def test_ring_splits_equal_full_tscc_passes():
    checked = 0
    for g in TSCC_INPUTS:
        rep, seps = _bridge_report(g)
        non_strong = sorted(rep.twinless_bridges - rep.strong_bridges)
        rings = list(seps.cut_tree.rings(g, non_strong))
        assert len(rings) == len(non_strong)
        for e, ring in zip(non_strong, rings):
            assert Partition(ring) == Partition(_tscc_class_of(g, e)), (g, e)
            checked += 1
    assert checked > 500


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
        alone = {seps.alone(e) for e in rep.strong_bridges} - {-1}
        gated += len(alone) >= math.ceil(math.log2(g.n))
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


def _singleton_cuts(splits) -> set[int]:
    return {cut[0] for _scc, cut in splits.values() if len(cut) == 1}


def _two_edge_connected_without(g, x: int) -> bool:
    u = underlying_graph(g)
    rest = UndirectedGraph(g.n, {(a, b) for a, b in u.edges
                                 if x not in (a, b)})
    return (connected_components(rest).num_classes == 2
            and not bridges_undirected(rest))


def test_kernel_runs_once_per_fallback_split(monkeypatch):
    g = random_digraph(GeneratorConfig(
        n_range=(300, 300), m_range=(600, 600), twin_density=0.3, seed=7,
        shape="any"))
    kernel, built = [], []

    def counted_kernel(nbrs, scc_of, skip=-1):
        kernel.append(skip)
        return _low_link_class_of(nbrs, scc_of, skip)

    certified = _CutTree.certified

    def counted_certified(self, *args):
        built.append(args)
        return certified(self, *args)

    monkeypatch.setattr(blocks_mod, "_low_link_class_of", counted_kernel)
    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    gated = fell_back = 0
    for cls in twinless_strongly_connected_components(g).classes:
        if len(cls) < 3:
            continue
        sub = induced_subgraph(g, cls)
        for query in (bridge_report, twinless_bridges, strong_bridges):
            query(sub)
        assert built == []  # the bridge queries never build it
        rep = bridge_report(sub)
        splits = _removal_splits(sub, rep)
        singles = _singleton_cuts(splits)
        gate = len(singles) >= math.ceil(math.log2(sub.n))
        ok = {x for x in singles
              if gate and _two_edge_connected_without(sub, x)}
        fallbacks = {scc for scc, cut in splits.values()
                     if not (len(cut) == 1 and cut[0] in ok)}
        kernel.clear()
        tetb_alg1_matrix(sub)  # alg1 meets every split: no early stop
        assert len(built) == gate
        # one pass per fallback split, and none for a non-strong bridge
        # or a certified cut-off vertex
        assert len(kernel) == len(fallbacks)
        assert set(kernel) <= rep.strong_bridges
        assert {splits[e][0] for e in kernel} == fallbacks
        gated += gate
        fell_back += bool(kernel)
        kernel.clear()
        built.clear()
        tetb_alg2_refine(sub, "faithful")  # ring splits only
        assert kernel == [] and built == []
    assert gated >= 1 and fell_back >= 1


@pytest.mark.parametrize("g", [cycle(9), path_fan(13), blob_chain(3, 3)],
                         ids=["cycle", "path-fan", "blob-chain"])
def test_certificate_is_not_built_below_the_gate(g, monkeypatch):
    built = []
    certified = _CutTree.certified

    def counted_certified(self, *args):
        built.append(args)
        return certified(self, *args)

    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    singles = _singleton_cuts(_removal_splits(g, bridge_report(g)))
    assert len(singles) < math.ceil(math.log2(g.n))
    for mode in ("safe", "faithful"):
        tetb_alg2_refine(g, mode)
    tetb_alg1_matrix(g)
    assert built == []
