import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twinblocks
from twinblocks import (BudgetError, Digraph, GeneratorConfig, GraphError,
                        PreconditionError, is_strongly_connected,
                        is_twinless_strongly_connected, oracle_tscc,
                        oracle_twinless_related,
                        oracle_two_edge_twinless_blocks, random_digraph,
                        twin_pairs)
from twinblocks.fixtures import C3, K3B, P2

from helpers import any_instances, label_classes


def star_with_twin_pairs(k: int) -> Digraph:
    """Bidirected star: k twin pairs around a hub."""
    pairs = []
    for i in range(1, k + 1):
        pairs.append(("hub", str(i)))
        pairs.append((str(i), "hub"))
    return Digraph.from_label_pairs(pairs)


def test_oracle_related_examples():
    assert not oracle_twinless_related(P2, 0, 1)
    assert all(oracle_twinless_related(C3, u, v)
               for u in range(3) for v in range(3))
    g = Digraph.from_label_pairs([("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")])
    assert oracle_twinless_related(g, g.vertex("a"), g.vertex("b"))


def test_oracle_related_reflexive_and_validates():
    assert oracle_twinless_related(P2, 1, 1)
    with pytest.raises(GraphError, match="unknown vertex"):
        oracle_twinless_related(P2, 0, 9)


def test_oracle_related_symmetric():
    for g in any_instances(25, n_range=(2, 6), m_range=(1, 10)):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert oracle_twinless_related(g, u, v) == \
                    oracle_twinless_related(g, v, u)


def test_oracle_budget():
    big = star_with_twin_pairs(21)
    assert len(twin_pairs(big)) == 21
    with pytest.raises(BudgetError, match="twin pairs"):
        oracle_twinless_related(big, 0, 1)
    with pytest.raises(BudgetError):
        oracle_tscc(big)
    with pytest.raises(BudgetError):
        oracle_two_edge_twinless_blocks(big)


def test_oracle_2etb_work_budget():
    ok = star_with_twin_pairs(18)  # within twin budget, m * 2^p too large
    with pytest.raises(BudgetError, match="work budget"):
        oracle_two_edge_twinless_blocks(ok)


def test_oracle_tscc_examples():
    assert label_classes(P2, oracle_tscc(P2)) == \
        {frozenset({"1"}), frozenset({"2"})}
    assert oracle_tscc(K3B).num_classes == 1
    assert oracle_tscc(Digraph((), [])).num_classes == 0


def test_oracle_2etb_c3():
    assert not oracle_two_edge_twinless_blocks(C3).blocks


def test_generator_determinism():
    cfg = GeneratorConfig(n_range=(5, 5), m_range=(8, 8), seed=7,
                          twin_density=0.4)
    assert random_digraph(cfg) == random_digraph(cfg)
    # and sensitivity: a different seed changes the arc set
    other = GeneratorConfig(n_range=(5, 5), m_range=(8, 8), seed=8,
                            twin_density=0.4)
    assert random_digraph(cfg) != random_digraph(other)


def test_generator_shapes():
    for seed in range(25):
        sc = random_digraph(GeneratorConfig(
            n_range=(2, 8), m_range=(2, 16), seed=seed,
            shape="strongly-connected"))
        assert is_strongly_connected(sc)
        tsc = random_digraph(GeneratorConfig(
            n_range=(3, 8), m_range=(3, 16), seed=seed, twin_density=0.4,
            shape="twinless-strongly-connected"))
        assert is_twinless_strongly_connected(tsc)


def test_generator_respects_ranges():
    for seed in range(15):
        g = random_digraph(GeneratorConfig(
            n_range=(3, 6), m_range=(2, 9), seed=seed))
        assert 3 <= g.n <= 6
        assert 2 <= g.m <= 9


def test_generator_twin_density_extremes():
    dense = random_digraph(GeneratorConfig(
        n_range=(6, 6), m_range=(14, 14), twin_density=1.0, seed=3))
    assert len(twin_pairs(dense)) >= 3
    none = random_digraph(GeneratorConfig(
        n_range=(6, 6), m_range=(10, 10), twin_density=0.0, seed=3))
    assert isinstance(len(twin_pairs(none)), int)  # density 0 is only a bias


def test_generator_infeasible_configs():
    with pytest.raises(PreconditionError, match="infeasible"):
        random_digraph(GeneratorConfig(
            n_range=(3, 3), m_range=(1, 1), shape="strongly-connected"))
    with pytest.raises(PreconditionError):
        random_digraph(GeneratorConfig(
            n_range=(2, 2), m_range=(2, 2),
            shape="twinless-strongly-connected"))
    with pytest.raises(PreconditionError, match="infeasible"):
        random_digraph(GeneratorConfig(n_range=(2, 2), m_range=(5, 9)))


def test_config_validation():
    with pytest.raises(PreconditionError):
        GeneratorConfig(n_range=(0, 3), m_range=(0, 3))
    with pytest.raises(PreconditionError):
        GeneratorConfig(n_range=(3, 2), m_range=(0, 3))
    with pytest.raises(PreconditionError):
        GeneratorConfig(n_range=(1, 3), m_range=(0, 3), twin_density=1.5)
    with pytest.raises(PreconditionError):
        GeneratorConfig(n_range=(1, 3), m_range=(0, 3), shape="dag")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generator_produces_simple_digraphs(seed):
    g = random_digraph(GeneratorConfig(
        n_range=(1, 8), m_range=(0, 20), twin_density=0.6, seed=seed))
    seen = set()
    for a in g.arcs:
        assert a.source != a.target
        assert (a.source, a.target) not in seen
        seen.add((a.source, a.target))


REFERENCES = {"testkit", "UndirectedGraph", "underlying_graph",
              "connected_components", "bridges_undirected",
              "two_edge_connected_components"}


@pytest.mark.parametrize("module", ["core", "partition", "connectivity",
                                    "cuts", "blocks"])
def test_pipeline_modules_leave_the_references_to_testkit(module):
    source = Path(twinblocks.__file__).with_name(f"{module}.py")
    names = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(p for a in node.names for p in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & REFERENCES


MODULES = sorted(path.stem for path in
                 Path(twinblocks.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    source = Path(twinblocks.__file__).with_name(f"{module}.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not imported - used
