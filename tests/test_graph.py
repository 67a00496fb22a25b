"""Digraph construction, the robustness certifier, and the text format."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcosync import (
    DirectedGraph,
    GraphTooLargeError,
    complete_digraph,
    demo_graph_8,
    directed_ring,
    format_graph_text,
    is_r_robust,
    load_graph,
    max_robustness,
    random_digraph,
)
from pcosync.graph import parse_graph_text

from oracles import all_digraphs, naive_is_r_robust

REPO = Path(__file__).resolve().parent.parent


def test_from_lists_rejects_bad_rows():
    with pytest.raises(ValueError):
        DirectedGraph.from_lists([[0], []])  # self-loop
    with pytest.raises(ValueError):
        DirectedGraph.from_lists([[1, 1], []])  # duplicate
    with pytest.raises(ValueError):
        DirectedGraph.from_lists([[2], []])  # out of range


def test_adjacency_views():
    ring = directed_ring(3)
    assert ring.in_neighbors == ((2,), (0,), (1,))
    assert ring.out_slots == (((1, 0),), ((2, 0),), ((0, 0),))
    assert ring.in_degrees == (1, 1, 1)
    k3 = complete_digraph(3)
    assert k3.in_masks == (0b110, 0b101, 0b011)


def test_certifier_agrees_with_naive_exhaustively_small():
    for n in (2, 3):
        for g in all_digraphs(n):
            for r in range(1, n + 1):
                assert is_r_robust(g, r) == naive_is_r_robust(g, r), (
                    g.in_neighbors,
                    r,
                )


def test_certifier_agrees_with_naive_on_random_graphs():
    ps = (0.3, 0.5, 0.8)
    for seed in range(150):
        g = random_digraph(4, ps[seed % 3], seed)
        for r in range(1, 4):
            assert is_r_robust(g, r) == naive_is_r_robust(g, r), (g.in_neighbors, r)
    for seed in range(100):
        g = random_digraph(5, ps[seed % 3], 1000 + seed)
        for r in range(1, 5):
            assert is_r_robust(g, r) == naive_is_r_robust(g, r), (g.in_neighbors, r)


@st.composite
def edgewise_digraphs(draw):
    """A digraph on 2 to 8 nodes, each of its n(n - 1) possible edges drawn
    on its own."""
    n = draw(st.integers(2, 8))
    return DirectedGraph(tuple(
        tuple(j for j in range(n) if j != i and draw(st.booleans())) for i in range(n)
    ))


@settings(max_examples=150, deadline=None)
@given(graph=edgewise_digraphs(), data=st.data())
def test_certifier_agrees_with_naive_on_drawn_graphs(graph, data):
    r = data.draw(st.integers(1, graph.node_count), label="r")
    assert is_r_robust(graph, r) == naive_is_r_robust(graph, r)


def test_robustness_is_downward_closed():
    """Once r-robustness fails it must stay failed for every larger r."""
    ps = (0.3, 0.5, 0.8)
    for seed in range(100):
        n = 3 + seed % 5
        g = random_digraph(n, ps[seed % 3], 2000 + seed)
        flags = [is_r_robust(g, r) for r in range(1, n + 1)]
        for earlier, later in zip(flags, flags[1:]):
            assert earlier or not later, (g.in_neighbors, flags)


def test_complete_graph_robustness():
    # K_n is exactly ceil(n/2)-robust.
    assert [max_robustness(complete_digraph(n)) for n in range(2, 7)] == [1, 2, 2, 3, 3]


def test_ring_robustness():
    assert max_robustness(directed_ring(4)) == 1
    assert max_robustness(directed_ring(6)) == 1


def test_two_sources_break_robustness():
    # Two nodes with no in-neighbors can never see outside themselves.
    g = DirectedGraph.from_lists([[], [], [0, 1]])
    assert not is_r_robust(g, 1)
    assert max_robustness(g) == 0


def test_demo_graph_structure_and_robustness():
    g = demo_graph_8()
    assert g.node_count == 8
    assert g.in_neighbors[1] == (0, 2, 3)
    assert g.in_neighbors[4] == (5, 6, 7)
    receivers = [{i for i, _ in g.out_slots[j]} for j in (1, 4)]
    assert receivers[0] & receivers[1] == set()
    assert max_robustness(g) == 3


def test_certifier_argument_guards():
    k4 = complete_digraph(4)
    with pytest.raises(ValueError):
        is_r_robust(k4, 0)
    with pytest.raises(ValueError):
        is_r_robust(DirectedGraph.from_lists([[]]), 1)
    with pytest.raises(GraphTooLargeError):
        is_r_robust(complete_digraph(15), 1)
    with pytest.raises(GraphTooLargeError):
        is_r_robust(complete_digraph(5), 1, max_nodes=4)
    with pytest.raises(GraphTooLargeError):
        max_robustness(complete_digraph(5), max_nodes=4)


def test_random_digraph_is_seed_deterministic():
    a = random_digraph(6, 0.5, 42)
    b = random_digraph(6, 0.5, 42)
    assert a == b
    assert random_digraph(6, 0.0, 7) == DirectedGraph.from_lists([[]] * 6)
    assert random_digraph(6, 1.0, 7) == complete_digraph(6)
    with pytest.raises(ValueError):
        random_digraph(4, 1.5, 0)


def test_text_format_roundtrip():
    graphs = [demo_graph_8(), directed_ring(5), complete_digraph(3)]
    graphs += [random_digraph(2 + s % 8, 0.4, s) for s in range(20)]
    for g in graphs:
        assert parse_graph_text(format_graph_text(g)) == g


@st.composite
def digraphs(draw):
    """Any digraph on 2 to 12 nodes; in-lists may be empty and keep the
    drawn order."""
    n = draw(st.integers(2, 12))
    return DirectedGraph(tuple(
        tuple(draw(st.lists(st.sampled_from([j for j in range(n) if j != i]), unique=True)))
        for i in range(n)
    ))


@given(graph=digraphs(), comment=st.one_of(st.just(""), st.text()))
def test_text_format_roundtrip_property(graph, comment):
    assert parse_graph_text(format_graph_text(graph, comment=comment)) == graph


def test_parse_graph_text_forms():
    text = """
    # a comment line
    3
    0 <- 1 2   # trailing comment
    1 <-
    """
    g = parse_graph_text(text)
    # Node 2 is omitted entirely, which means no in-neighbors.
    assert g.in_neighbors == ((1, 2), (), ())
    assert "# listens" in format_graph_text(g, comment="listens")


def test_parse_graph_text_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_graph_text("")
    with pytest.raises(ValueError):
        parse_graph_text("x\n0 <- 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("0\n")
    with pytest.raises(ValueError):
        parse_graph_text("2\n0 1\n")  # missing arrow
    with pytest.raises(ValueError):
        parse_graph_text("2\n0 <- q\n")
    with pytest.raises(ValueError):
        parse_graph_text("2\n5 <- 0\n")
    with pytest.raises(ValueError):
        parse_graph_text("2\n0 <- 1\n0 <- 1\n")


def test_shipped_demo_graph_file_matches_builder():
    assert load_graph(REPO / "scenarios" / "graphs" / "demo8.txt") == demo_graph_8()
