import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from twinblocks import (Digraph, GeneratorConfig, GraphError, ParseError,
                        induced_subgraph, parse_edge_list, random_digraph,
                        remove_arcs, serialize, twin_arc_ids, twin_pairs,
                        underlying_graph)
from twinblocks.fixtures import C3, DEMO19_EDGE_TEXT, G_DEMO19, K3B, P2

from helpers import shuffled


def test_parse_c3():
    g = parse_edge_list("1 2\n2 3\n3 1")
    assert (g.n, g.m) == (3, 3)
    assert g == C3


def test_parse_demo19_fixture():
    g = parse_edge_list(DEMO19_EDGE_TEXT)
    assert (g.n, g.m) == (19, 27)
    assert g == G_DEMO19


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("1 1")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError, match="expected 2 tokens"):
        parse_edge_list("1 2 3")
    with pytest.raises(ParseError, match="expected 2 tokens"):
        parse_edge_list("1")


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# header\n\n1 2  # trailing\n2 1\n")
    assert (g.n, g.m) == (2, 2)
    assert g == P2


def test_parse_duplicate_strict_vs_lenient():
    with pytest.raises(ParseError, match="duplicate"):
        parse_edge_list("1 2\n1 2")
    with pytest.warns(UserWarning, match="2 duplicate"):
        g = parse_edge_list("1 2\n1 2\n2 1\n1 2", mode="lenient")
    assert (g.n, g.m) == (2, 2)
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("1 1", mode="lenient")


def test_parse_unknown_mode():
    with pytest.raises(ValueError):
        parse_edge_list("1 2", mode="loose")


def _spaced_lines(seed: int) -> list[str]:
    """Arc lines of a seeded graph with tabs, padding and blank lines."""
    rng = random.Random(seed)
    g = random_digraph(GeneratorConfig(
        n_range=(2, 12), m_range=(1, 30), twin_density=0.4, seed=seed))
    lines = []
    for line in serialize(g).splitlines():
        s, t = line.split()
        lines.append(rng.choice(["", " ", "\t"]) + s
                     + rng.choice([" ", "\t", " \t "]) + t
                     + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "   ", "\t"]))
    return lines


def _commented(lines: list[str], seed: int) -> list[str]:
    """The same lines, line for line, with trailing comments and some
    blank lines turned into comment lines."""
    rng = random.Random(seed)
    return [line + rng.choice(["#", " # note", "\t#x # y", ""])
            if line.strip() else rng.choice([line, "# blank", " #"])
            for line in lines]


def _parsed(text: str, mode: str = "strict"):
    """What parsing ``text`` gives: the graph's store, or the error
    message; and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = _store(parse_edge_list(text, mode))
        except ParseError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_parse_with_and_without_comments_agree(newline):
    # text with no "#" takes the tokenizer's one-split path; the same
    # lines with comments take the comment path
    errors = set()
    for seed in range(40):
        lines = _spaced_lines(seed)
        rng = random.Random(seed)
        at = rng.randrange(len(lines) + 1)
        bad = [[], ["x\ty z"], ["solo"], ["q \t q"], [lines[0]] * 2,
               [lines[0]]][seed % 6]
        lines[at:at] = bad
        text = newline.join(lines) + rng.choice(["", newline])
        commented = newline.join(_commented(lines, seed)) + (
            newline if text.endswith(newline) else "")
        assert "#" not in text and "#" in commented
        for mode in ("strict", "lenient"):
            plain = _parsed(text, mode)
            assert _parsed(commented, mode) == plain
            if isinstance(plain[0], str):
                errors.add(plain[0].split(":", 1)[1])
    assert {" expected 2 tokens, got 3", " expected 2 tokens, got 1",
            " self-loop at 'q'"} <= errors
    assert any(e.startswith(" duplicate arc") for e in errors)


def test_parse_line_numbers_count_blank_and_comment_lines():
    for text in ("1 2\n\n2 1 3", "1 2\r\n\t\r\n2 1 3\r\n",
                 "1 2 # a\n# b\n2 1 3 # c"):
        with pytest.raises(ParseError, match="^line 3: expected 2 tokens"):
            parse_edge_list(text)


def test_labels_interned_in_first_appearance_order():
    g = parse_edge_list("b a\na c")
    assert g.labels == ("b", "a", "c")
    assert g.vertex("c") == 2
    with pytest.raises(GraphError):
        g.vertex("z")


def test_digraph_rejects_bad_construction():
    with pytest.raises(GraphError, match="self-loop"):
        Digraph(("a",), [(0, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        Digraph(("a", "b"), [(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="not unique"):
        Digraph(("a", "a"), [])
    with pytest.raises(GraphError, match="unknown vertex"):
        Digraph(("a", "b"), [(0, 5)])


def test_twin_pairs_examples():
    assert twin_pairs(C3) == frozenset()
    assert len(twin_pairs(P2)) == 1
    pairs = twin_pairs(G_DEMO19)
    assert len(pairs) == 1
    (pair,) = pairs
    fwd = G_DEMO19.arcs[pair.forward]
    bwd = G_DEMO19.arcs[pair.backward]
    assert {G_DEMO19.labels[fwd.source], G_DEMO19.labels[fwd.target]} == {"5", "7"}
    assert (fwd.source, fwd.target) == (bwd.target, bwd.source)


def test_twin_pair_removed_with_arc():
    (pair,) = twin_pairs(P2)
    g = remove_arcs(P2, {pair.forward})
    assert twin_pairs(g) == frozenset()
    assert g.m == 1


def test_remove_arcs():
    aid = G_DEMO19.arc_id(G_DEMO19.vertex("3"), G_DEMO19.vertex("8"))
    h = remove_arcs(G_DEMO19, {aid})
    assert h.m == 26 and h.n == 19
    assert G_DEMO19.m == 27  # original untouched
    assert remove_arcs(C3, set()) == C3
    with pytest.raises(GraphError, match="unknown arc"):
        remove_arcs(C3, {99})


def test_underlying_graph():
    assert underlying_graph(P2).edges == frozenset({(0, 1)})
    assert underlying_graph(K3B).edge_count == 3
    assert underlying_graph(C3).edge_count == 3
    assert underlying_graph(G_DEMO19).edge_count == 26  # one twin pair collapses


def test_induced_subgraph():
    keep = {G_DEMO19.vertex(x) for x in ("12", "16", "18")}
    sub = induced_subgraph(G_DEMO19, keep)
    assert sub.arc_label_pairs() == {("12", "16"), ("16", "18")}
    assert induced_subgraph(C3, {0, 1, 2}) == C3
    # the 2etb pipeline maps ids back through sorted(keep)
    whole = induced_subgraph(G_DEMO19, range(G_DEMO19.n))
    assert whole.arcs == G_DEMO19.arcs
    assert whole.out_pairs == G_DEMO19.out_pairs
    single = induced_subgraph(C3, {0})
    assert (single.n, single.m) == (1, 0)
    with pytest.raises(GraphError, match="unknown vertex"):
        induced_subgraph(C3, {7})


def test_serialize_examples():
    assert serialize(C3) == "1 2\n2 3\n3 1"
    assert serialize(P2) == "1 2\n2 1"


def test_serialize_roundtrip_demo19():
    g = parse_edge_list(serialize(parse_edge_list(DEMO19_EDGE_TEXT)))
    assert g == G_DEMO19


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), density=st.sampled_from([0.0, 0.3, 0.8]))
def test_roundtrip_random(seed, density):
    g = random_digraph(GeneratorConfig(
        n_range=(1, 9), m_range=(0, 20), twin_density=density, seed=seed))
    back = parse_edge_list(serialize(g))
    # arc lines are the whole format, so isolated vertices cannot survive a
    # round trip; everything else must be identical
    assert back.arc_label_pairs() == g.arc_label_pairs()
    touched = {g.labels[a.source] for a in g.arcs} | \
        {g.labels[a.target] for a in g.arcs}
    assert set(back.labels) == touched
    if len(touched) == g.n:
        assert back == g


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_twin_pair_and_underlying_counts(seed):
    g = random_digraph(GeneratorConfig(
        n_range=(2, 9), m_range=(0, 24), twin_density=0.5, seed=seed))
    p = len(twin_pairs(g))
    assert 0 <= 2 * p <= g.m
    u = underlying_graph(g)
    assert u.edge_count == g.m - p
    assert u.edge_count <= g.m


def _store(g: Digraph) -> tuple:
    """Everything a graph derives from its arc store, plus both lookups."""
    ids = {(a.source, a.target): a.arc_id for a in g.arcs}
    twin = twin_arc_ids(g)
    assert twin == [ids.get((t, s), -1) for s, t, _ in g.arcs]
    return (g.n, g.m, g.labels, g.arcs, g.out_pairs, g.in_pairs, twin,
            [g.vertex(lab) for lab in g.labels],
            [g.arc_id(a.source, a.target) for a in g.arcs])


@pytest.mark.parametrize("shape", ["any", "strongly-connected",
                                   "twinless-strongly-connected"])
def test_unchecked_constructions_equal_checked_ones(shape):
    # the parser, remove_arcs and induced_subgraph skip the per-arc checks
    # of Digraph(labels, pairs); what they build must not differ from it
    twins = 0
    for seed in range(40):
        g = shuffled(random_digraph(GeneratorConfig(
            n_range=(3, 12), m_range=(3, 30), twin_density=(seed % 5) * 0.2,
            seed=seed, shape=shape)), seed)
        twins += len(twin_pairs(g))
        text = serialize(g)
        lines = [line.split() for line in text.splitlines()]
        assert _store(parse_edge_list(text)) == \
            _store(Digraph.from_label_pairs(lines))
        rng = random.Random(seed)
        drop = set(rng.sample(range(g.m), rng.randint(0, min(4, g.m))))
        assert _store(remove_arcs(g, drop)) == _store(Digraph(g.labels, [
            (a.source, a.target) for a in g.arcs if a.arc_id not in drop]))
        keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        new_id = {v: i for i, v in enumerate(keep)}
        assert _store(induced_subgraph(g, keep)) == _store(Digraph(
            [g.labels[v] for v in keep],
            [(new_id[a.source], new_id[a.target]) for a in g.arcs
             if a.source in new_id and a.target in new_id]))
    assert twins > 0
