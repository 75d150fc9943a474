"""Built-in fixture and oracle checks for the ``selftest`` subcommand.

Runs the canonical fixtures plus a batch of seeded random instances
through every algorithm and the brute-force oracles, printing one line per
check.  Exits nonzero iff anything fails.
"""
from __future__ import annotations

from .core import Digraph, parse_edge_list, remove_arcs, twin_pairs
from .partition import Partition, partition_meet
from .connectivity import (_low_link_class_of, _split_class_of,
                           _tscc_class_of, is_strongly_connected,
                           is_twinless_strongly_connected,
                           twinless_strongly_connected_components)
from .cuts import _bridge_report, strong_bridges, twinless_bridges
from .blocks import (BlockSet, k_edge_twinless_blocks_bruteforce,
                     tetb_alg1_matrix, tetb_alg2_refine, two_edge_blocks,
                     two_edge_twinless_blocks)
from .testkit import (GeneratorConfig, oracle_tscc,
                      oracle_two_edge_twinless_blocks, random_digraph)
from .fixtures import DEMO19_EDGE_TEXT, G_DEMO19, G_GADGET

RANDOM_ROUNDS = 40
OUTSIDE_HALF_SEEDS = (45, 77, 394)


def _label_sets(g, bs):
    return {frozenset(g.labels[v] for v in b) for b in bs.blocks}


def run_selftest(out=print) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            out(f"ok: {name}")
        else:
            failures += 1
            out(f"FAIL: {name}" + (f" ({detail})" if detail else ""))

    g = parse_edge_list(DEMO19_EDGE_TEXT)
    check("demo19 parses to n=19, m=27", g.n == 19 and g.m == 27)
    check("demo19 equals packaged fixture", g == G_DEMO19)
    check("demo19 has exactly one twin pair", len(twin_pairs(g)) == 1)
    check("demo19 is twinless strongly connected",
          is_twinless_strongly_connected(g))

    cut = g.arc_id(g.vertex("3"), g.vertex("8"))
    check("(3,8) is a twinless bridge", cut in twinless_bridges(g))
    p = twinless_strongly_connected_components(remove_arcs(g, {cut}))
    check("removing (3,8) twinless-separates 2 and 7",
          not p.same_class(g.vertex("2"), g.vertex("7")))
    check("removal TSCC partition matches the oracle",
          p == oracle_tscc(remove_arcs(g, {cut})))

    blocks = _label_sets(g, two_edge_blocks(g))
    check("demo19 2-edge blocks are {2,5,7} and {12,18}",
          blocks == {frozenset("257"), frozenset({"12", "18"})},
          str(sorted(map(sorted, blocks))))
    expected = {frozenset({"2", "5"}), frozenset({"12", "18"})}
    for name, bs in (("alg1", tetb_alg1_matrix(g)),
                     ("alg2-safe", tetb_alg2_refine(g, "safe")),
                     ("pipeline", two_edge_twinless_blocks(g)),
                     ("oracle", oracle_two_edge_twinless_blocks(g)),
                     ("k=2 bruteforce", k_edge_twinless_blocks_bruteforce(g, 2))):
        check(f"demo19 2-edge-twinless blocks via {name}",
              _label_sets(g, bs) == expected)

    gg = G_GADGET
    pq = {gg.arc_id(gg.vertex("p"), gg.vertex("q"))}
    check("gadget strong bridges == {(p,q)}", strong_bridges(gg) == frozenset(pq))
    check("gadget twinless bridges == {(p,q)}",
          twinless_bridges(gg) == frozenset(pq))
    safe = _label_sets(gg, tetb_alg2_refine(gg, "safe"))
    faithful = _label_sets(gg, tetb_alg2_refine(gg, "faithful"))
    oracle = _label_sets(gg, oracle_two_edge_twinless_blocks(gg))
    check("gadget: safe mode equals the oracle", safe == oracle)
    check("gadget: oracle keeps x and y apart",
          not any({"x", "y"} <= b for b in oracle))
    check("gadget: faithful mode wrongly keeps x and y together",
          any({"x", "y"} <= b for b in faithful))

    # a dense graph whose directions both skip the dominators, and a copy
    # with a planted vertex x entered by one arc 0 -> x, which is a bridge
    dense = random_digraph(GeneratorConfig(
        n_range=(20, 20), m_range=(120, 120), twin_density=0.1, seed=0,
        shape="twinless-strongly-connected"))
    planted = Digraph(dense.labels + ("x",),
                      list(dense._ends) + [(0, 20), (20, 1), (20, 2)])
    for name, h, expected in (
            ("dense bridgeless graph", dense, set()),
            ("its planted-bridge copy", planted, {planted.arc_id(0, 20)})):
        recheck = {a for a in range(h.m)
                   if not is_strongly_connected(remove_arcs(h, {a}))}
        found = strong_bridges(h)
        check(f"{name}: strong bridges equal the remove-and-recheck",
              found == recheck == expected,
              f"{sorted(found)}, recheck {sorted(recheck)}")

    bad = off_reference = off_tree = multi = 0
    for seed in range(RANDOM_ROUNDS):
        cfg = GeneratorConfig(n_range=(3, 7), m_range=(3, 14),
                              twin_density=0.3, seed=seed,
                              shape="twinless-strongly-connected")
        h = random_digraph(cfg)
        if len(twin_pairs(h)) > 8:
            continue
        bridges = twinless_bridges(h)
        recheck = {a.arc_id for a in h.arcs
                   if twinless_strongly_connected_components(
                       remove_arcs(h, {a.arc_id})).num_classes > 1}
        alg1, alg2 = tetb_alg1_matrix(h), tetb_alg2_refine(h, "safe")
        ok = (twinless_strongly_connected_components(h) == oracle_tscc(h)
              and alg1 == alg2 == oracle_two_edge_twinless_blocks(h)
              and bridges == recheck and len(bridges) <= 2 * h.n - 2)
        if not ok:
            bad += 1
        # reference: one full TSCC pass per twinless bridge, met in turn
        part = Partition.single_class(h.n)
        for e in bridges:
            part = partition_meet(part, Partition(_tscc_class_of(h, e)))
        reference = BlockSet.from_partition(part)
        if not alg1 == alg2 == reference:
            off_reference += 1
        # the splits read off the 2-cut DFS tree: rings for the twinless
        # bridges that are not strong; for a certified cut X_e, X_e's SCCs
        # split by a low-link pass over X_e alone and the rest one class
        rep, seps = _bridge_report(h)
        tree = seps.cut_tree
        non_strong = sorted(rep.twinless_bridges - rep.strong_bridges)
        splits = {e: tree.rings(h, [e]) for e in non_strong}
        cuts = {e: tuple(seps.cut_off(e)) for e in rep.strong_bridges}
        passes = tree.certified(h)
        for e, cut in cuts.items():
            if passes(cut):
                multi += len(cut) > 1
                splits[e] = _low_link_class_of(
                    h, _split_class_of(h, cut, e), e, cut)
        if any(Partition(class_of) != Partition(_tscc_class_of(h, e))
               for e, class_of in splits.items()):
            off_tree += 1
    check(f"{RANDOM_ROUNDS} seeded random instances agree with the oracles",
          bad == 0, f"{bad} mismatching seeds")
    check(f"{RANDOM_ROUNDS} seeded random instances: alg1 and alg2-safe "
          "equal the meet of full per-bridge TSCC passes",
          off_reference == 0, f"{off_reference} mismatching seeds")
    check(f"{RANDOM_ROUNDS} seeded random instances: the ring and certified "
          f"splits ({multi} of more than one vertex) equal full TSCC "
          "passes", off_tree == 0 and multi > 0,
          f"{off_tree} mismatching seeds")

    # on these, a fallback cut's outside half splits what the rest joins
    off_oracle = []
    for seed in OUTSIDE_HALF_SEEDS:
        h = random_digraph(GeneratorConfig(
            n_range=(5, 15), m_range=(8, 30), twin_density=0.5, seed=seed,
            shape="twinless-strongly-connected"))
        if not (tetb_alg1_matrix(h) == tetb_alg2_refine(h, "safe")
                == oracle_two_edge_twinless_blocks(h)):
            off_oracle.append(seed)
    check(f"{len(OUTSIDE_HALF_SEEDS)} seeded instances with a fallback cut "
          "whose outside half splits a block: alg1 and alg2-safe equal the "
          "oracle", not off_oracle, f"mismatching seeds {off_oracle}")

    out(f"selftest: {'PASS' if failures == 0 else 'FAIL'} "
        f"({failures} failing check(s))")
    return 0 if failures == 0 else 1
