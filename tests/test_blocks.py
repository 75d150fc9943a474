import pytest

from twinblocks import (BlockSet, BudgetError, Digraph, GeneratorConfig,
                        GraphError, Partition, PreconditionError,
                        SeparationMatrix, UndirectedGraph, bridge_report,
                        connected_components, induced_subgraph,
                        partition_meet, k_edge_twinless_blocks_bruteforce,
                        oracle_tscc, oracle_two_edge_twinless_blocks,
                        random_digraph, remove_arcs, strong_bridges,
                        strongly_connected_components, tetb_alg1_matrix,
                        tetb_alg2_refine, twinless_bridges,
                        twinless_strongly_connected_components,
                        two_edge_blocks, two_edge_twinless_blocks,
                        underlying_graph)
from twinblocks import blocks as blocks_mod
from twinblocks import connectivity as connectivity_mod
from twinblocks.blocks import _Refinement, _scc_splits
from twinblocks.connectivity import (_low_link_class_of, _scc_class_of,
                                     _split_class_of, _tscc_class_of)
from twinblocks.cuts import _bridge_report, _Separations
from twinblocks.fixtures import C3, G_DEMO19, G_GADGET, K3B, P2

from helpers import (any_instances, blob_chain, cycle, dominator_fan,
                     label_blocks, labels_of_arcs, path_fan, shuffled,
                     tsc_instances)

# Four non-strong twinless bridges (e->i, h->e, a->d, f->b) in four 2-cut
# classes of the underlying graph; b_s = 6, b_t = 10.
UNION_RULE_COUNTEREXAMPLE = Digraph.from_label_pairs(
    tuple(pair.split()) for pair in (
        "d g; i g; e i; b a; b e; c g; e b; c h; g c; g f; g i; h c; h e; "
        "f g; a d; g d; f b; a b").split(";"))


def meet_over_all_arcs_scc(g) -> Partition:
    """Definitional 2-edge-block partition: every single-arc removal."""
    part = Partition.single_class(g.n)
    for a in g.arcs:
        part = partition_meet(
            part, strongly_connected_components(remove_arcs(g, {a.arc_id})))
    return part


def meet_over_all_arcs_tscc(g) -> Partition:
    part = Partition.single_class(g.n)
    for a in g.arcs:
        part = partition_meet(
            part,
            twinless_strongly_connected_components(remove_arcs(g, {a.arc_id})))
    return part


def test_two_edge_blocks_demo19():
    # The canonical 19-vertex graph: the 2-edge block alongside {12,18}
    # is {2,5,7} (vertex 5 has two arc-disjoint routes each way to both 2
    # and 7), verified against the all-arc definitional meet.
    bs = two_edge_blocks(G_DEMO19)
    assert bs == BlockSet.from_partition(meet_over_all_arcs_scc(G_DEMO19))
    assert label_blocks(G_DEMO19, bs) == {
        frozenset({"2", "5", "7"}), frozenset({"12", "18"})}


def test_two_edge_blocks_small_fixtures():
    assert two_edge_blocks(C3) == BlockSet(frozenset())
    assert label_blocks(K3B, two_edge_blocks(K3B)) == {frozenset("abc")}
    assert label_blocks(G_GADGET, two_edge_blocks(G_GADGET)) == \
        {frozenset({"x", "a", "b", "y"})}
    assert two_edge_blocks(P2) == BlockSet(frozenset())  # SC but twin-only
    with pytest.raises(PreconditionError, match="not strongly connected"):
        two_edge_blocks(remove_arcs(P2, {0}))


def test_two_edge_blocks_matches_all_arc_meet():
    for g in tsc_instances(60):
        assert two_edge_blocks(g) == \
            BlockSet.from_partition(meet_over_all_arcs_scc(g))


def test_alg1_fixtures():
    assert label_blocks(G_DEMO19, tetb_alg1_matrix(G_DEMO19)) == {
        frozenset({"2", "5"}), frozenset({"12", "18"})}
    assert tetb_alg1_matrix(C3) == BlockSet(frozenset())
    assert label_blocks(K3B, tetb_alg1_matrix(K3B)) == {frozenset("abc")}
    with pytest.raises(PreconditionError,
                       match="not twinless strongly connected"):
        tetb_alg1_matrix(P2)


def test_alg1_matrix_budget(monkeypatch):
    monkeypatch.setattr(blocks_mod, "MATRIX_VERTEX_BUDGET", 10)
    with pytest.raises(BudgetError, match="alg2"):
        tetb_alg1_matrix(G_DEMO19)
    path = Digraph(tuple(str(v) for v in range(11)),
                   [(v, v + 1) for v in range(10)])
    with pytest.raises(BudgetError, match="alg2"):  # refused before the scan
        tetb_alg1_matrix(path)


def test_alg2_fixtures_and_modes():
    assert label_blocks(G_DEMO19, tetb_alg2_refine(G_DEMO19, "safe")) == {
        frozenset({"2", "5"}), frozenset({"12", "18"})}
    # faithful mode skips the strong bridge (3,8) and wrongly keeps 7
    assert label_blocks(G_DEMO19, tetb_alg2_refine(G_DEMO19, "faithful")) == {
        frozenset({"2", "5", "7"}), frozenset({"12", "18"})}
    with pytest.raises(ValueError, match="unknown mode"):
        tetb_alg2_refine(G_DEMO19, "sloppy")
    with pytest.raises(PreconditionError):
        tetb_alg2_refine(P2)


def test_gadget_regression():
    # (p,q) is both a strong and a twinless bridge; skipping it keeps the
    # 2-edge block {x,a,b,y} intact even though removal of (p,q) funnels
    # every x<->y route through the twin pair {a,b}.
    oracle = oracle_two_edge_twinless_blocks(G_GADGET)
    safe = tetb_alg2_refine(G_GADGET, "safe")
    faithful = tetb_alg2_refine(G_GADGET, "faithful")
    assert safe == oracle
    assert not any({"x", "y"} <= b for b in label_blocks(G_GADGET, oracle))
    assert any({"x", "y"} <= b for b in label_blocks(G_GADGET, faithful))
    assert faithful != oracle
    assert label_blocks(G_GADGET, oracle) == set()  # fully shattered here


def test_algorithms_agree_on_random_tsc_graphs():
    for g in tsc_instances(80):
        a1 = tetb_alg1_matrix(g)
        a2 = tetb_alg2_refine(g, "safe")
        assert a1 == a2 == oracle_two_edge_twinless_blocks(g)


def test_faithful_equals_safe_without_strong_bridges():
    checked = 0
    for g in tsc_instances(300, n_range=(4, 8), m_range=(10, 24)):
        if strong_bridges(g):
            continue
        checked += 1
        assert tetb_alg2_refine(g, "faithful") == tetb_alg2_refine(g, "safe")
        if checked >= 60:
            break
    assert checked >= 30


@pytest.mark.parametrize("g, b_s, b_t", [
    (cycle(7), 7, 7), (path_fan(11), 11, 11),
    (blob_chain(2, 4), 1, 2), (blob_chain(3, 3), 2, 4),
], ids=["cycle", "path-fan", "blob-chain-2x4", "blob-chain-3x3"])
def test_adversarial_shapes_match_oracle(g, b_s, b_t):
    rep = bridge_report(g)
    assert (rep.b_s, rep.b_t) == (b_s, b_t)
    expected = oracle_two_edge_twinless_blocks(g)
    assert tetb_alg1_matrix(g) == expected
    assert tetb_alg2_refine(g, "safe") == expected
    assert tetb_alg2_refine(g, "faithful") == expected


@pytest.mark.parametrize("g, b_s, b_t", [
    (cycle(7), 7, 7), (path_fan(11), 11, 11),
    (blob_chain(2, 4), 1, 2), (blob_chain(3, 3), 2, 4),
], ids=["cycle", "path-fan", "blob-chain-2x4", "blob-chain-3x3"])
def test_adversarial_shapes_match_oracle_with_shuffled_arc_ids(g, b_s, b_t):
    for seed in range(2):
        h = shuffled(g, seed)
        rep = bridge_report(h)
        assert (rep.b_s, rep.b_t) == (b_s, b_t)
        expected = oracle_two_edge_twinless_blocks(h)
        assert tetb_alg1_matrix(h) == expected
        assert tetb_alg2_refine(h, "safe") == expected
        assert tetb_alg2_refine(h, "faithful") == expected


def test_union_rule_counterexample():
    # Meeting TSCC(G - e) over the non-strong twinless bridges e is not
    # the components of U after deleting every 2-cut class that holds one
    # (U the underlying graph): that union rule isolates g.  Meeting
    # components(U - C) over those classes C is exact.
    g = UNION_RULE_COUNTEREXAMPLE
    rep = bridge_report(g)
    assert (rep.b_s, rep.b_t) == (6, 10)
    non_strong = rep.twinless_bridges - rep.strong_bridges
    assert labels_of_arcs(g, non_strong) == {
        ("e", "i"), ("h", "e"), ("a", "d"), ("f", "b")}
    expected = [["b", "e", "g"]]
    assert tetb_alg1_matrix(g).as_label_lists(g) == expected
    assert tetb_alg2_refine(g, "safe").as_label_lists(g) == expected
    assert oracle_two_edge_twinless_blocks(g).as_label_lists(g) == expected

    u = underlying_graph(g)

    def components_without(edges):
        return connected_components(UndirectedGraph(g.n, u.edges - edges))

    def two_cut_class(e):
        a = g.arcs[e]
        edge = (min(a.source, a.target), max(a.source, a.target))
        rest = u.edges - {edge}
        return frozenset({edge} | {f for f in rest if connected_components(
            UndirectedGraph(g.n, rest - {f})).num_classes > 1})

    def meet(parts):
        part = Partition.single_class(g.n)
        for q in parts:
            part = partition_meet(part, q)
        return part

    classes = {two_cut_class(e) for e in non_strong}
    assert len(classes) == 4
    strong_meet = meet(twinless_strongly_connected_components(
        remove_arcs(g, {e})) for e in rep.strong_bridges)
    per_bridge = meet(twinless_strongly_connected_components(
        remove_arcs(g, {e})) for e in non_strong)
    per_class = meet(components_without(c) for c in classes)
    union = components_without(frozenset().union(*classes))
    assert per_class == per_bridge
    assert BlockSet.from_partition(partition_meet(strong_meet, per_class)) \
        .as_label_lists(g) == expected
    assert BlockSet.from_partition(partition_meet(strong_meet, union)) \
        .as_label_lists(g) == [["b", "e"]]


def _stream_graphs():
    graphs = []
    for shape in ("any", "strongly-connected",
                  "twinless-strongly-connected"):
        for seed in range(40):
            g = random_digraph(GeneratorConfig(
                n_range=(4, 16), m_range=(6, 40),
                twin_density=(seed % 5) * 0.2, seed=seed, shape=shape))
            graphs += [g, shuffled(g, seed)]
    graphs += [cycle(9), path_fan(13), blob_chain(3, 3),
               UNION_RULE_COUNTEREXAMPLE, G_DEMO19, G_GADGET]
    graphs += [shuffled(g, 1) for g in graphs[-6:]]
    return graphs


def _components(g, partition):
    return [induced_subgraph(g, c) for c in partition.classes if len(c) > 1]


def test_dominator_interval_splits_equal_scc_passes():
    checked = 0
    for g in _stream_graphs():
        for sub in _components(g, strongly_connected_components(g)):
            seps = _Separations(sub)
            assert seps.strong_bridges() == strong_bridges(sub)
            for e in seps.strong_bridges():
                assert Partition(_split_class_of(sub, seps.cut_off(e), e)) \
                    == Partition(_scc_class_of(sub, e))
                checked += 1
    assert checked > 500


def test_localized_stream_equals_full_passes():
    skipped = 0
    for g in _stream_graphs():
        for sub in _components(g, twinless_strongly_connected_components(g)):
            rep, seps = _bridge_report(sub)
            assert seps.strong_bridges() == rep.strong_bridges
            splits = {}
            cuts = ((e, seps.cut_off(e)) for e in sorted(rep.strong_bridges))
            for e, _cut, scc_of in _scc_splits(sub, cuts):
                splits[e] = Partition(scc_of)
                assert splits[e] == Partition(_scc_class_of(sub, e))
                assert _low_link_class_of(sub, scc_of, e) == \
                    _tscc_class_of(sub, e)
            # the ring splits cover exactly the twinless bridges that are
            # not strong, each with its full TSCC pass
            non_strong = sorted(rep.twinless_bridges - rep.strong_bridges)
            assert non_strong == sorted(
                e for e in rep.twinless_bridges if not seps.side[e])
            for e in non_strong:
                assert Partition(seps.cut_tree.rings(sub, [e])) == \
                    Partition(_tscc_class_of(sub, e))
            # a strong bridge is skipped iff a lower one has its SCC split,
            # and then it has that one's TSCC split too
            first = {}
            for e in sorted(rep.strong_bridges):
                split = Partition(_scc_class_of(sub, e))
                assert (e in splits) == (split not in first)
                if split in first:
                    skipped += 1
                    assert Partition(_tscc_class_of(sub, e)) == \
                        Partition(_tscc_class_of(sub, first[split]))
                first.setdefault(split, e)
    assert skipped > 50


@pytest.mark.parametrize("g", [cycle(9), path_fan(13)],
                         ids=["cycle", "path-fan"])
def test_alg2_stops_once_all_singletons(g, monkeypatch):
    passed = []  # bridge ids of every per-bridge pass, split or kernel

    def counted(fn):
        def wrapper(*args):
            passed.append(args[-1])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(blocks_mod, "_split_class_of",
                        counted(_split_class_of))
    monkeypatch.setattr(blocks_mod, "_low_link_class_of",
                        counted(_low_link_class_of))
    assert bridge_report(g).b_t == g.n  # n bridges without the prune
    expected = oracle_two_edge_twinless_blocks(g)
    for mode in ("safe", "faithful"):
        passed.clear()
        assert tetb_alg2_refine(g, mode) == expected
        assert len(set(passed)) <= 1, mode
    passed.clear()
    assert two_edge_blocks(g) == BlockSet(frozenset())
    assert len(set(passed)) <= 1


@pytest.mark.parametrize("g, whole", [(cycle(9), 1), (path_fan(13), 2)],
                         ids=["cycle", "path-fan"])
def test_alg1_stops_once_no_pair_is_left(g, whole, monkeypatch):
    pulled = []  # every split a block algorithm takes from the stream
    stream = blocks_mod._tscc_stream

    def counted(*args):
        for class_of in stream(*args):
            pulled.append(class_of)
            yield class_of

    monkeypatch.setattr(blocks_mod, "_tscc_stream", counted)
    rep, seps = _bridge_report(g)
    part = _Refinement(g.n)  # each record met before the next is pulled
    listed = 0
    for split, ids in stream(g, seps, rep.twinless_bridges, part):
        part.refine(split, ids)
        listed += 1
    assert listed == whole
    expected = oracle_two_edge_twinless_blocks(g)
    assert tetb_alg2_refine(g, "safe") == expected
    safe = len(pulled)
    pulled.clear()
    assert tetb_alg1_matrix(g) == expected
    assert len(pulled) == safe == 1


@pytest.mark.parametrize("algorithm", ["alg2-safe", "alg1"])
def test_ring_bridges_are_met_as_one_split(algorithm, monkeypatch):
    """dominator_fan(k) has k twinless bridges that are not strong, each
    setting one fan vertex apart.  They are met as one split, so the stream
    yields at most twice (that split and one V - {0} cut) at every size,
    not k + 1 times."""
    pulled = []
    stream = blocks_mod._tscc_stream

    def counted(*args):
        for class_of in stream(*args):
            pulled.append(class_of)
            yield class_of

    monkeypatch.setattr(blocks_mod, "_tscc_stream", counted)
    for k in (100, 200, 400):
        pulled.clear()
        g = dominator_fan(k)
        assert two_edge_twinless_blocks(g, algorithm) == BlockSet(frozenset())
        assert len(pulled) <= 2, (k, len(pulled))


@pytest.mark.parametrize("g", [cycle(9), path_fan(13)],
                         ids=["cycle", "path-fan"])
def test_stream_runs_at_most_one_kernel_pass(g, monkeypatch):
    kernel, whole = [], []

    def counted(fn, log):
        def wrapper(*args):
            log.append(args[-1])
            return fn(*args)
        return wrapper

    expected = oracle_two_edge_twinless_blocks(g)
    monkeypatch.setattr(blocks_mod, "_low_link_class_of",
                        counted(_low_link_class_of, kernel))
    monkeypatch.setattr(connectivity_mod, "_scc_class_of",
                        counted(_scc_class_of, whole))
    for mode in ("safe", "faithful"):
        kernel.clear()
        assert tetb_alg2_refine(g, mode) == expected
        assert len(kernel) <= 1, mode
    kernel.clear()
    assert two_edge_blocks(g) == BlockSet(frozenset())
    assert kernel == []
    assert tetb_alg1_matrix(g) == expected
    assert whole == []


def test_pipeline_examples():
    assert label_blocks(G_DEMO19, two_edge_twinless_blocks(G_DEMO19)) == {
        frozenset({"2", "5"}), frozenset({"12", "18"})}
    assert two_edge_twinless_blocks(P2) == BlockSet(frozenset())
    both = Digraph.from_label_pairs([
        ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("a", "c"), ("c", "a"),
        ("1", "2"), ("2", "3"), ("3", "1")])
    assert label_blocks(both, two_edge_twinless_blocks(both)) == \
        {frozenset("abc")}


def test_pipeline_matches_global_definitional_meet():
    # arbitrary shapes: pipeline result == meet of TSCC partitions over
    # the empty removal plus every single-arc removal
    for g in any_instances(50, m_range=(1, 16)):
        expected = BlockSet.from_partition(partition_meet(
            twinless_strongly_connected_components(g),
            meet_over_all_arcs_tscc(g)))
        assert two_edge_twinless_blocks(g) == expected


def test_pipeline_algorithm_choices_agree():
    for g in any_instances(30, m_range=(1, 14)):
        ref = two_edge_twinless_blocks(g, "alg2-safe")
        assert two_edge_twinless_blocks(g, "alg1") == ref
    with pytest.raises(ValueError, match="unknown algorithm"):
        two_edge_twinless_blocks(G_DEMO19, "alg3")


def test_ketb_k1_is_tscc_classes():
    for g in [G_DEMO19, K3B, P2] + any_instances(20):
        expected = BlockSet.from_partition(
            twinless_strongly_connected_components(g))
        assert k_edge_twinless_blocks_bruteforce(g, 1) == expected


def test_ketb_k2_matches_2etb():
    assert label_blocks(G_DEMO19,
                        k_edge_twinless_blocks_bruteforce(G_DEMO19, 2)) == {
        frozenset({"2", "5"}), frozenset({"12", "18"})}
    for g in any_instances(30, m_range=(0, 14)):
        assert k_edge_twinless_blocks_bruteforce(g, 2) == \
            two_edge_twinless_blocks(g)


def test_ketb_k2_k3b_against_oracle_enumeration():
    # spelled-out derivation: meet oracle TSCC partitions over every
    # single-arc deletion (plus the empty deletion)
    part = oracle_tscc(K3B)
    for a in K3B.arcs:
        part = partition_meet(part, oracle_tscc(remove_arcs(K3B, {a.arc_id})))
    assert BlockSet.from_partition(part) == \
        k_edge_twinless_blocks_bruteforce(K3B, 2)
    assert label_blocks(K3B, k_edge_twinless_blocks_bruteforce(K3B, 2)) == \
        {frozenset("abc")}


def test_ketb_monotone_in_k():
    for g in any_instances(12, n_range=(3, 6), m_range=(3, 10)):
        prev = None
        for k in (1, 2, 3):
            cur = k_edge_twinless_blocks_bruteforce(g, k)
            if prev is not None:
                for b in cur.blocks:  # k+1 blocks refine k blocks
                    assert any(b <= old for old in prev.blocks)
            prev = cur


def test_ketb_validation():
    with pytest.raises(PreconditionError, match="k must be >= 1"):
        k_edge_twinless_blocks_bruteforce(C3, 0)
    wide = Digraph(
        tuple(str(i) for i in range(10)),
        [(i, j) for i in range(10) for j in range(10) if i != j][:72])
    with pytest.raises(BudgetError, match="budget"):
        k_edge_twinless_blocks_bruteforce(wide, 5)  # C(72,4) > 1e6


def test_ketb_huge_k_equals_all_subsets():
    # no arc subset is larger than m, so k beyond m + 1 adds nothing
    for g in (C3, K3B):
        assert k_edge_twinless_blocks_bruteforce(g, 10 ** 9) == \
            k_edge_twinless_blocks_bruteforce(g, g.m + 1)


def test_structural_properties():
    for g in tsc_instances(50) + any_instances(50):
        tetb = two_edge_twinless_blocks(g)
        seen: set[int] = set()
        for b in tetb.blocks:  # disjointness
            assert not (b & seen)
            seen |= b
        tscc = twinless_strongly_connected_components(g)
        for b in tetb.blocks:  # containment in one TSCC class
            assert len({tscc.class_of[v] for v in b}) == 1
        part2e = meet_over_all_arcs_scc(g)
        for b in tetb.blocks:  # refinement into 2-edge blocks
            assert len({part2e.class_of[v] for v in b}) == 1


def test_meeting_over_non_bridges_changes_nothing():
    # meeting over every arc instead of only twinless bridges is a no-op
    for g in tsc_instances(40, n_range=(3, 8)):
        all_arc = BlockSet.from_partition(meet_over_all_arcs_tscc(g))
        assert tetb_alg1_matrix(g) == all_arc


def test_threads_do_not_change_blocks():
    for g in (G_DEMO19, G_GADGET):
        assert two_edge_blocks(g, threads=4) == two_edge_blocks(g)
        assert tetb_alg2_refine(g, "safe", threads=4) == \
            tetb_alg2_refine(g, "safe")
        assert two_edge_twinless_blocks(g, threads=4) == \
            two_edge_twinless_blocks(g)


def test_separation_matrix():
    m = SeparationMatrix(4)
    assert all(m.entry(v, w) for v in range(4) for w in range(4))
    m.separate_across(Partition([0, 0, 1, 1]))
    assert m.entry(0, 1) and m.entry(2, 3)
    assert not m.entry(0, 2) and not m.entry(3, 1)
    assert all(m.entry(v, v) for v in range(4))  # diagonal never clears
    assert m.never_separated_components() == [frozenset({0, 1}),
                                              frozenset({2, 3})]
    m.separate_across(Partition([0, 1, 1, 1]))
    assert m.never_separated_components() == [frozenset({2, 3})]


@pytest.mark.parametrize("n, rows", [
    (3, lambda full: [0b011, 0b111, 0b110]),  # symmetric, not transitive
    (1100, lambda full: [full ^ 0b10] + [full] * 1099),  # 0 in 1's row only
    (3, lambda full: [0b110, 0b111, 0b111]),  # row 0 lacks its own bit
], ids=["intransitive", "asymmetric-large", "no-diagonal"])
def test_never_separated_components_rejects_rows_that_are_not_classes(
        n, rows):
    m = SeparationMatrix(n)
    m.separate_across(Partition([0] * n))
    m.rows = rows((1 << n) - 1)
    with pytest.raises(GraphError, match="separation matrix"):
        m.never_separated_components()


def test_separation_matrix_universe_mismatch():
    for p in (Partition([0, 1, 1, 0, 2]), Partition([0, 1])):
        with pytest.raises(GraphError, match="universe mismatch"):
            SeparationMatrix(3).separate_across(p)


def _record(class_of):
    """A class list as a split record: the vertices outside vertex 0's
    class, and the list."""
    return [v for v, c in enumerate(class_of) if c != class_of[0]], class_of


def _refined(start, class_lists):
    """``start`` met with each class list by a ``_Refinement``, ``start``
    itself fed as the first record."""
    part = _Refinement(start.n)
    part.refine(*_record(start.class_of))
    return part.meet(map(_record, class_lists)).partition()


def test_meet_of_raw_class_lists_equals_partition_meet_fold():
    lists = [[5, 5, 2, 9, 5, 2], [7, 7, 7, 7, 0, 0], [1, 1, 3, 3, 1, 3]]
    for start in (Partition.single_class(6), Partition([4, 4, 4, 1, 1, 1])):
        expected = start
        for class_of in lists:
            expected = partition_meet(expected, Partition(class_of))
        assert _refined(start, iter(lists)) == expected
    assert _refined(Partition([0, 0, 1]), []) == Partition([0, 0, 1])


def test_meet_stops_before_pulling_past_all_singletons():
    pulled = []

    def stream():
        for class_of in ([2, 2, 8, 8], [1, 0, 1, 0]):
            pulled.append(class_of)
            yield class_of
        raise AssertionError("advanced past an all-singleton meet")

    assert _refined(Partition.single_class(4), stream()) == \
        Partition([0, 1, 2, 3])
    assert len(pulled) == 2
    already = Partition([0, 1, 2])
    assert _refined(already, stream()) == already
    assert len(pulled) == 2


def test_blockset_validation_and_rendering():
    with pytest.raises(GraphError, match="size"):
        BlockSet(frozenset({frozenset({1})}))
    with pytest.raises(GraphError, match="disjoint"):
        BlockSet(frozenset({frozenset({1, 2}), frozenset({2, 3})}))
    bs = two_edge_blocks(G_DEMO19)
    lists = bs.as_label_lists(G_DEMO19)
    assert lists == sorted(lists)
    assert all(b == sorted(b) for b in lists)
    assert bs.as_label_sets(G_DEMO19) == label_blocks(G_DEMO19, bs)
    assert len(bs) == 2
    covered = bs.covered_vertices()
    assert all(v in covered for b in bs for v in b)
