"""Per-bridge TSCC splits read off the DFS tree of the underlying graph:
one split for all the twinless bridges that are not strong, the U - X
certificate for the strong bridges whose cut-off part X is a connected
subtree of it, and the full low-link kernel only for the splits that fall
back."""
import itertools
import math
import random

import pytest

from twinblocks import (GeneratorConfig, Partition, SeparationMatrix,
                        UndirectedGraph, bridge_report, bridges_undirected,
                        connected_components, induced_subgraph,
                        oracle_two_edge_twinless_blocks, partition_meet,
                        random_digraph, remove_arcs,
                        strong_bridges, strongly_connected_components,
                        tetb_alg1_matrix, tetb_alg2_refine, twinless_bridges,
                        two_edge_twinless_blocks,
                        twinless_strongly_connected_components,
                        underlying_graph)
from twinblocks import blocks as blocks_mod
from twinblocks.blocks import (BlockSet, _Refinement, _scc_records,
                               _two_edge_block_partition)
from twinblocks.connectivity import (_low_link_class_of, _split_class_of,
                                     _tscc_class_of)
from twinblocks.cuts import _bridge_report, _CutTree
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


SPARSE_ANY = random_digraph(GeneratorConfig(
    n_range=(300, 300), m_range=(600, 600), twin_density=0.3, seed=7,
    shape="any"))


# any-shape graphs on which a multi-cut group that let a class meeting
# its union pass would lose a split
GROUP_CHECK_INPUTS = [random_digraph(GeneratorConfig(
    n_range=(100, 300), m_range=(200, 600), twin_density=0.3, seed=27,
    shape="any"))] + [random_digraph(GeneratorConfig(
        n_range=(200, 400), m_range=(300, 500), twin_density=0.6, seed=seed,
        shape="any")) for seed in (172, 219)]
# their TSCCs and SPARSE_ANY's, whose fallback cuts the group check meets
FALLBACK_INPUTS = [induced_subgraph(g, c)
                   for g in [SPARSE_ANY, *GROUP_CHECK_INPUTS]
                   for c in twinless_strongly_connected_components(g).classes
                   if len(c) > 1]


def _full_pass_meet(g, part, bridges) -> BlockSet:
    """The stream before the tree splits: one full TSCC pass per bridge."""
    for e in sorted(bridges):
        part = Partition(zip(part.class_of, _tscc_class_of(g, e)))
    return BlockSet.from_partition(part)


def test_tree_stream_equals_full_pass_stream():
    gated = 0
    for g in TSCC_INPUTS + FALLBACK_INPUTS:
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
    """Every split of the per-bridge stream, each met into the stream's
    refinement as it is listed, as the block algorithms meet them."""
    rep, seps = _bridge_report(g)
    part = _Refinement(g.n)
    records = []
    for split, ids in blocks_mod._tscc_stream(g, seps, rep.twinless_bridges,
                                              part):
        part.refine(split, ids)
        records.append((split, ids))
    return records


def _outside_half(g, cut) -> Partition:
    """X one class and U - X cut into its 2-edge-connected classes, from
    the reference underlying graph."""
    inside = set(cut)
    rest = UndirectedGraph(g.n, {(a, b) for a, b in underlying_graph(g).edges
                                 if a not in inside and b not in inside})
    comp = connected_components(
        UndirectedGraph(g.n, rest.edges - bridges_undirected(rest)))
    return Partition([-1 if v in inside else comp.class_of[v]
                      for v in range(g.n)])


def _model_group_passes(g, cuts, reached) -> int:
    """The passes of the group check of ``cuts``' outside halves against
    the partition ``reached``, on the reference underlying graph.  A group
    of two or more cuts whose union R meets a class of two or more members
    splits in halves with no pass, and a group with no such class outside
    R is certified with none.  Any other group takes one pass and is
    certified when each class lies in one class of R's outside half; if
    not, it splits in halves, and a single cut's outside half is met."""
    passes = 0
    todo = [list(cuts)]
    while todo:
        group = todo.pop()
        union = set().union(*group)
        half = len(group) // 2
        big = [c for c in reached.classes if len(c) > 1]
        if len(group) > 1 and any(union.intersection(c) for c in big):
            todo += group[half:], group[:half]
            continue
        if all(union.intersection(c) for c in big):
            continue
        passes += 1
        outside = _outside_half(g, union)
        if partition_meet(reached, outside) == reached:
            continue
        if len(group) == 1:
            reached = partition_meet(reached, outside)
        else:
            todo += group[half:], group[:half]
    return passes


def test_kernel_runs_once_per_fallback_split(monkeypatch):
    g = SPARSE_ANY
    full, local, built, asked, checked = [], [], [], [], []

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

    outside_halves = blocks_mod._outside_halves

    def counted_halves(h, cuts, part):
        checked.append((list(cuts), part.partition()))  # as the check starts
        yield from outside_halves(h, cuts, part)

    monkeypatch.setattr(blocks_mod, "_low_link_class_of", counted_kernel)
    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    monkeypatch.setattr(blocks_mod, "_outside_halves", counted_halves)
    gated = fell_back = walked = grouped = 0
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
            and X a connected subtree of the DFS tree with U - X
            2-edge-connected."""
            return len(cut) == sub.n - 1 or gate and (
                _subtree_top(parent, cut) >= 0
                and _two_edge_connected_without(sub, set(cut)))
        fallbacks = {tuple(cut) for _scc, cut in splits.values()
                     if not local_split(cut)}
        # every split walks X alone, unless its SCCs are single vertices
        # (the class of vertex 0 is V - X)
        locals_ = {scc for scc, cut in splits.values()
                   if any(len(c) > 1 for c in scc.classes if 0 not in c)}
        full.clear()
        local.clear()
        checked.clear()
        _stream(sub)
        assert len(built) == gate
        # past the gate, one query, about X alone, per distinct cut X
        # other than V - {0}
        cuts = {tuple(cut) for _scc, cut in splits.values()
                if len(cut) < sub.n - 1}
        assert sorted(asked) == (sorted(cuts) if gate else [])
        # one local pass per split with a larger SCC; none for a
        # non-strong bridge
        assert len(local) == len(locals_)
        assert set(local) <= rep.strong_bridges
        assert {splits[e][0] for e in local} == locals_
        # the full passes are the group checks of the fallback cuts'
        # outside halves, at most 2k - 1 for k cuts, no arc skipped
        if fallbacks:
            [(pending, reached)] = checked
            assert sorted(pending) == sorted(fallbacks)
            assert len(full) == _model_group_passes(sub, pending, reached)
            assert len(full) <= 2 * len(pending) - 1
            assert set(full) == {-1}
            grouped += len(full) < len(pending)
        else:
            assert checked == full == []
        gated += gate
        fell_back += bool(fallbacks)
        walked += bool(local)
        full.clear()
        local.clear()
        built.clear()
        asked.clear()
        checked.clear()
        tetb_alg2_refine(sub, "faithful")  # ring splits only
        assert full == local == built == asked == checked == []
    assert gated >= 1 and fell_back >= 1 and walked >= 1 and grouped >= 1


def _count_group_checks(monkeypatch) -> list[list[int]]:
    """``[pending cuts, records met]`` per group check the stream runs."""
    log = []
    outside_halves = blocks_mod._outside_halves

    def counted(h, cuts, part):
        entry = [len(cuts), 0]
        log.append(entry)
        for record in outside_halves(h, cuts, part):
            entry[1] += 1
            yield record

    monkeypatch.setattr(blocks_mod, "_outside_halves", counted)
    return log


def _count_full_passes(monkeypatch) -> list[int]:
    """The arc each full low-link pass of ``blocks`` skips."""
    full = []

    def counted(h, scc_of, skip=-1, roots=None):
        if roots is None:
            full.append(skip)
        return _low_link_class_of(h, scc_of, skip, roots)

    monkeypatch.setattr(blocks_mod, "_low_link_class_of", counted)
    return full


def test_group_check_runs_at_most_2k_minus_1_passes(monkeypatch):
    """The group check of k pending cuts runs at most 2k - 1 full passes
    under alg2-safe and alg1, and grouping saves passes on most TSCCs
    that have fallbacks."""
    checked = _count_group_checks(monkeypatch)
    full = _count_full_passes(monkeypatch)
    grouped = failed = 0
    for sub in TSCC_INPUTS + FALLBACK_INPUTS:
        for algorithm in ("alg2-safe", "alg1"):
            checked.clear()
            full.clear()
            two_edge_twinless_blocks(sub, algorithm)
            pending = sum(k for k, _records in checked)
            assert len(full) <= max(2 * pending - 1, 0), (sub, algorithm)
            grouped += len(full) < pending
            failed += sum(records for _k, records in checked)
    assert grouped >= 300 and failed >= 8, (grouped, failed)


@pytest.mark.parametrize("seed", [45, 77, 394])
def test_failed_single_cut_is_met(seed, monkeypatch):
    """Small graphs whose blocks change when the fallback cuts' outside
    halves go unchecked: a single cut fails its check, and its outside
    half is met."""
    g = random_digraph(GeneratorConfig(
        n_range=(5, 15), m_range=(8, 30), twin_density=0.5, seed=seed,
        shape="twinless-strongly-connected"))
    checked = _count_group_checks(monkeypatch)
    expected = oracle_two_edge_twinless_blocks(g)
    for algorithm in ("alg2-safe", "alg1"):
        checked.clear()
        assert two_edge_twinless_blocks(g, algorithm) == expected
        assert sum(records for _k, records in checked) >= 1


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1"])
def test_full_passes_per_request_are_pinned(algorithm, monkeypatch):
    """SPARSE_ANY takes 4 full low-link passes per request, all of them
    group checks; one per fallback split took 9.  The certificate is asked
    about each cut X alone, so a cut whose U - X has pendant vertices is
    refused and reaches the group check: peeling them first took 3."""
    full = _count_full_passes(monkeypatch)
    two_edge_twinless_blocks(SPARSE_ANY, algorithm)
    assert len(full) == 4


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1"])
def test_dominator_fan_stops_before_any_full_pass(algorithm, monkeypatch):
    """``dominator_fan(k)`` is all singletons once the ring split and the
    first fallback cut's inside half are met: that cut's SCCs are single
    vertices, so its record comes at once, not with the stream's last
    split.  One SCC split pass and no full pass run at every size."""
    full = _count_full_passes(monkeypatch)
    split = []

    def counted_split(h, cut, e):
        split.append(e)
        return _split_class_of(h, cut, e)

    monkeypatch.setattr(blocks_mod, "_split_class_of", counted_split)
    for k in (100, 200, 400):
        full.clear()
        split.clear()
        g = dominator_fan(k)
        assert two_edge_twinless_blocks(g, algorithm) == BlockSet(frozenset())
        assert (len(split), full) == (1, []), k


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1"])
def test_one_vertex_cuts_take_no_split_pass(algorithm, monkeypatch):
    """A one-vertex cut {x}, certified or a fallback, is met as x alone
    with no SCC split pass over it, on the inputs whose cuts fall back."""
    sizes = []

    def counted_split(h, cut, e):
        sizes.append(len(cut))
        return _split_class_of(h, cut, e)

    monkeypatch.setattr(blocks_mod, "_split_class_of", counted_split)
    singles = 0
    for sub in FALLBACK_INPUTS:
        seps = _bridge_report(sub)[1]
        singles += sum(len(seps.cut_off(e)) == 1
                       for e in seps.strong_bridges())
        two_edge_twinless_blocks(sub, algorithm)
    assert sizes and 1 not in sizes
    assert singles >= 100, singles


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1"])
def test_blob_chain_cuts_are_certified(algorithm, monkeypatch):
    """``blob_chain(k, 4)``'s k - 1 nested cuts all pass the certificate:
    no full low-link pass, one local pass per cut, and the certificate
    built once and asked once per cut."""
    full, local, built, asked = [], [], [], []

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

    monkeypatch.setattr(blocks_mod, "_low_link_class_of", counted_kernel)
    monkeypatch.setattr(_CutTree, "certified", counted_certified)
    for k in (100, 200, 400):
        for log in (full, local, built, asked):
            log.clear()
        two_edge_twinless_blocks(blob_chain(k, 4), algorithm)
        assert (len(full), len(local), len(built), len(asked)) == \
            (0, k - 1, 1, k - 1), k


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


def test_stream_records_meet_like_partition_meet_folds():
    """Each split record, the 2-edge blocks' first and then the TSCC
    stream's, is repeat-free and leaves vertex 0 in its implicit class;
    ``_Refinement`` meets them as a ``partition_meet`` fold of the same
    splits at every step, every class a segment of ``elems``, and the
    rows ``SeparationMatrix.rewrite`` keeps are the masks of the
    classes."""
    records = kept = 0
    for g in TSCC_INPUTS:
        rep, seps = _bridge_report(g)
        part, matrix = _Refinement(g.n), SeparationMatrix(g.n)
        expected = Partition.single_class(g.n)
        for split, ids in itertools.chain(
                _scc_records(g, seps), blocks_mod._tscc_stream(
                    g, seps, rep.twinless_bridges, part)):
            inside = set(split)
            assert 0 not in inside and len(inside) == len(split)
            expected = partition_meet(expected, Partition(
                [(1, ids[v]) if v in inside else 0 for v in range(g.n)]))
            before = part.num_classes
            made = part.refine(split, ids)
            matrix.rewrite(part, made)
            assert part.partition() == expected
            assert part.num_classes == expected.num_classes == \
                before + len(made)
            for c in range(part.num_classes):
                members = part.members(c)
                assert sorted(members) == list(
                    expected.class_members(members[0]))
            assert matrix.rows == [
                sum(1 << w for w in expected.class_members(v))
                for v in range(g.n)]
            # a class that lies in S keeps one of its groups
            kept += any(set(part.members(c)) <= inside
                        for c in range(before))
            records += 1
    assert records > 5000 and kept > 1000, (records, kept)


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1", "alg2-faithful"])
def test_partition_builds_per_request_are_bounded(algorithm, monkeypatch):
    """One ``Partition`` for the TSCC decomposition and at most two per
    TSCC analysed, however many splits are met: on SPARSE_ANY and on
    ``dominator_fan(k)``, where faithful mode once built one per 2-edge
    block split, 2k + 3 in all."""
    built = []
    init = Partition.__init__

    def counted(self, class_of):
        built.append(self)
        init(self, class_of)

    graphs = [SPARSE_ANY] + [dominator_fan(k) for k in (100, 200, 400)]
    analysed = [sum(len(c) > 1 for c in
                    twinless_strongly_connected_components(g).classes)
                for g in graphs]
    monkeypatch.setattr(Partition, "__init__", counted)
    for g, t in zip(graphs, analysed):
        built.clear()
        two_edge_twinless_blocks(g, algorithm)
        assert len(built) <= 1 + 2 * t, (g.n, t, len(built))
