"""The whole-graph route of a 2-edge-twinless-blocks request: a twinless
strongly connected input is analysed off its own bridge report, with no
TSCC decomposition and no ``Arc`` record built, and an input that is not
strongly connected is refused by the report's DFS before any dominators."""
import random

import pytest

from twinblocks import (BlockSet, Digraph, GeneratorConfig,
                        PreconditionError, induced_subgraph,
                        is_strongly_connected, is_twinless_strongly_connected,
                        oracle_two_edge_twinless_blocks, parse_edge_list,
                        random_digraph, remove_arcs, serialize,
                        strong_bridges, tetb_alg1_matrix, tetb_alg2_refine,
                        twin_pairs, two_edge_twinless_blocks,
                        twinless_strongly_connected_components)
from twinblocks import blocks as blocks_mod
from twinblocks import connectivity as connectivity_mod
from twinblocks import core as core_mod
from twinblocks import cuts as cuts_mod
from twinblocks.cli import run
from twinblocks.core import Arc
from twinblocks.cuts import _bridge_report
from twinblocks.fixtures import G_DEMO19, G_GADGET

from helpers import cycle, dominator_fan, path_fan, shuffled
from test_tree_splits import TSCC_INPUTS

ALGORITHMS = ("alg1", "alg2-safe", "alg2-faithful")


def _decomposed(g, algorithm: str) -> BlockSet:
    """The blocks of each TSCC of g, analysed alone and mapped back."""
    out = []
    for cls in twinless_strongly_connected_components(g).classes:
        if len(cls) < 2:
            continue
        sub = induced_subgraph(g, cls)
        if algorithm == "alg1":
            found = tetb_alg1_matrix(sub)
        else:
            found = tetb_alg2_refine(sub, algorithm.removeprefix("alg2-"))
        back = sorted(cls)
        out.extend(frozenset(back[v] for v in b) for b in found.blocks)
    return BlockSet(frozenset(out))


def _with_pendant_pair(g, v: int) -> Digraph:
    """g plus a new vertex joined to v by one twin pair: strongly connected
    when g is, never twinless strongly connected."""
    return Digraph(g.labels + ("pendant",),
                   list(g._ends) + [(v, g.n), (g.n, v)])


def _cheap_oracle(g) -> bool:
    return g.m << len(twin_pairs(g)) <= 400


def _check_against_routes(g) -> int:
    """Every algorithm equals the decomposition route, and the oracle
    where it is cheap and the algorithm exact; returns the oracle checks."""
    expected = None
    if _cheap_oracle(g):
        expected = oracle_two_edge_twinless_blocks(g)
    faithful_exact = not any(
        strong_bridges(induced_subgraph(g, cls))
        for cls in twinless_strongly_connected_components(g).classes)
    checks = 0
    for algorithm in ALGORITHMS:
        got = two_edge_twinless_blocks(g, algorithm)
        assert got == _decomposed(g, algorithm), algorithm
        if expected is not None and (algorithm != "alg2-faithful"
                                     or faithful_exact):
            assert got == expected, algorithm
            checks += 1
    return checks


def test_whole_graph_route_equals_decomposition_on_tscc_inputs():
    checks = sum(_check_against_routes(g) for g in TSCC_INPUTS)
    assert checks > 400


def test_whole_graph_route_on_the_gadget():
    # alg2-faithful keeps x and y together: the pinned counterexample
    assert _check_against_routes(G_GADGET) == 2
    assert two_edge_twinless_blocks(G_GADGET, "alg2-faithful") != \
        two_edge_twinless_blocks(G_GADGET, "alg2-safe")


def test_strongly_connected_but_not_twinless_inputs():
    rng = random.Random(5)
    checks = 0
    graphs = [g for g in TSCC_INPUTS if g.n <= 20][::3] + [G_DEMO19, G_GADGET]
    for seed, g in enumerate(graphs):
        h = _with_pendant_pair(g, rng.randrange(g.n))
        assert is_strongly_connected(h)
        assert not is_twinless_strongly_connected(h)
        checks += _check_against_routes(h)
        checks += _check_against_routes(shuffled(h, seed))
    assert checks > 200


def _counting(monkeypatch, module, name: str, log: list) -> None:
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


TSC_INPUTS = [cycle(9), path_fan(13), dominator_fan(6),
              random_digraph(GeneratorConfig(
                  n_range=(40, 40), m_range=(120, 120), twin_density=0.3,
                  seed=3, shape="twinless-strongly-connected"))]


@pytest.mark.parametrize("g", TSC_INPUTS,
                         ids=["cycle", "path-fan", "dominator-fan", "random"])
def test_tsc_requests_build_no_arc_and_no_decomposition(g, tmp_path,
                                                        monkeypatch, capsys):
    path = tmp_path / "g.txt"
    path.write_text(serialize(g) + "\n", encoding="utf-8")
    log: list[str] = []
    _counting(monkeypatch, core_mod, "Arc", log)
    _counting(monkeypatch, connectivity_mod, "_tscc_class_of", log)
    for argv in (["2etb", "--algorithm", "alg1"], ["2etb"],
                 ["2etb", "--algorithm", "alg2-faithful"],
                 ["twinless-bridges"]):
        assert run(argv + ["--input", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    assert log == []
    assert parse_edge_list(serialize(g)).arcs[0] == Arc(0, 1, 0)
    assert log == ["Arc"] * g.m  # the guard sees a use of arcs


def _not_strongly_connected():
    star_out = Digraph(("0", "1", "2"), [(0, 1), (0, 2), (1, 2)])
    star_in = Digraph(("0", "1", "2"), [(1, 0), (2, 0), (2, 1)])
    graphs = [star_out, star_in]
    for seed in range(30):
        g = random_digraph(GeneratorConfig(
            n_range=(6, 30), m_range=(8, 60), twin_density=0.3, seed=seed,
            shape="any"))
        if not is_strongly_connected(g):
            graphs.append(g)
    return graphs


def test_not_strongly_connected_input_runs_no_dominators_first(monkeypatch):
    log: list[str] = []
    _counting(monkeypatch, cuts_mod, "_lengauer_tarjan", log)
    _counting(monkeypatch, connectivity_mod, "_tscc_class_of", log)
    graphs = _not_strongly_connected()
    assert len(graphs) > 20
    for g in graphs:
        for algorithm in ALGORITHMS:
            log.clear()
            expected = _decomposed(g, algorithm)
            log.clear()
            assert two_edge_twinless_blocks(g, algorithm) == expected
            assert log[0] == "_tscc_class_of", log
        log.clear()
        with pytest.raises(PreconditionError, match="not twinless strongly"):
            _bridge_report(g)
        assert log == []


def test_underlying_bridge_is_refused_before_dominators(monkeypatch):
    log: list[str] = []
    _counting(monkeypatch, cuts_mod, "_lengauer_tarjan", log)
    for g in TSC_INPUTS:
        h = _with_pendant_pair(g, g.n - 1)
        with pytest.raises(PreconditionError, match="not twinless strongly"):
            _bridge_report(h)
        assert log == []
        _bridge_report(g)
        assert log == ["_lengauer_tarjan"] * 2
        log.clear()


def test_alg1_over_budget_goes_to_the_decomposition(monkeypatch):
    # over the matrix budget, alg1 skips the whole-graph report: a TSC
    # graph is refused as before, and small TSCCs are still analysed
    monkeypatch.setattr(blocks_mod, "MATRIX_VERTEX_BUDGET", 8)
    log: list[str] = []
    _counting(monkeypatch, blocks_mod, "_bridge_report", log)
    with pytest.raises(PreconditionError, match="budget"):
        two_edge_twinless_blocks(cycle(9), "alg1")
    assert log == []
    two = Digraph.from_label_pairs(
        [(f"{c}{i}", f"{c}{(i + 1) % 5}") for c in "ab" for i in range(5)]
        + [("a0", "b0")])
    alg1 = two_edge_twinless_blocks(two, "alg1")
    assert log == ["_bridge_report"] * 2  # one per five-vertex TSCC
    assert alg1 == two_edge_twinless_blocks(two, "alg2-safe")


def _arcs_by_hand(g) -> tuple:
    return tuple(Arc(u, v, i) for i, (u, v) in enumerate(g._arc_ids))


def test_arcs_are_derived_from_the_store():
    g = random_digraph(GeneratorConfig(
        n_range=(12, 12), m_range=(40, 40), twin_density=0.4, seed=2))
    lines = [line.split() for line in serialize(g).splitlines()]
    rng = random.Random(2)
    graphs = [
        g, shuffled(g, 1), parse_edge_list(serialize(g)),
        Digraph.from_label_pairs(lines),
        remove_arcs(g, rng.sample(range(g.m), 7)),
        induced_subgraph(g, rng.sample(range(g.n), 7)),
    ]
    for h in graphs:
        assert h.arcs == _arcs_by_hand(h)
        assert h.arcs is h.arcs  # built once
        assert [(a.source, a.target) for a in h.arcs] == list(h._ends)
        assert all(h.arc_id(a.source, a.target) == a.arc_id for a in h.arcs)
        with pytest.raises(AttributeError):
            h.arcs = ()
