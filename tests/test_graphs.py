import numpy as np
import pytest

from twospin import graphs
from twospin.errors import UsageError
from twospin.graphs import (MAX_MULTIPLICITY, BipartiteGadget, MultiGraph,
                            complete_graph, cycle_graph, graph_from_text,
                            graph_to_text, grid_graph, hypercube_graph,
                            path_graph, petersen_graph, read_graph,
                            single_edge, write_graph)


def test_from_edges_aggregates_duplicates():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 0), (1, 2, 3)])
    assert g.edges == ((0, 1, 2), (1, 2, 3))
    assert g.num_edges == 5
    assert g.degrees() == (2, 5, 3)


def test_self_loop_and_range_rejected():
    with pytest.raises(UsageError):
        MultiGraph.from_edges(2, [(0, 0)])
    with pytest.raises(UsageError):
        MultiGraph(2, ((0, 2, 1),))
    assert MultiGraph(3, ((1, 0, 1),)).edges == ((0, 1, 1),)  # either orientation
    with pytest.raises(UsageError):
        MultiGraph(3, ((0, 1, 0),))  # nonpositive multiplicity
    # columns must hold integers that fit int64
    assert MultiGraph.from_columns(3, [1], [0], [2]).edge_columns.dtype == np.int64
    for bad in (np.array([0.5]), np.array([1], dtype=np.uint64)):
        with pytest.raises(UsageError, match="integer arrays"):
            MultiGraph.from_columns(3, bad, [1], [1])


def test_regularity():
    assert cycle_graph(5).is_regular()
    assert cycle_graph(5).regular_degree() == 2
    assert complete_graph(4).regular_degree() == 3
    assert not path_graph(3).is_regular()
    with pytest.raises(UsageError):
        path_graph(3).regular_degree()


def test_disjoint_union():
    g = path_graph(2).disjoint_union(cycle_graph(3))
    assert g.num_vertices == 5
    assert g.num_edges == 4
    assert g.degrees() == (1, 1, 2, 2, 2)


def test_named_graphs():
    assert petersen_graph().regular_degree() == 3
    assert hypercube_graph(3).regular_degree() == 3
    assert grid_graph(2, 3).num_edges == 7
    assert single_edge().num_edges == 1


def test_text_roundtrip(tmp_path):
    g = MultiGraph.from_edges(4, [(2, 1, 4), (0, 3), (0, 1)])
    text = graph_to_text(g)
    assert text.splitlines()[0] == "p graph 4 3"
    assert graph_from_text(text) == g
    path = tmp_path / "g.graph"
    write_graph(g, path)
    assert read_graph(path) == g


def test_reader_aggregates_and_accepts_comments():
    text = "# comment\np graph 3 2\ne 1 0 1\ne 0 1 2\n"
    g = graph_from_text(text)
    assert g.edges == ((0, 1, 3),)


def test_multiplicities_must_fit_a_double():
    # the kernels multiply multiplicities by log-weights as doubles, so each
    # must be exact there; 400 digits used to overflow inside `twospin z`
    assert MultiGraph(2, ((0, 1, MAX_MULTIPLICITY),)).num_edges == 2 ** 53
    with pytest.raises(UsageError, match="multiplicity"):
        graph_from_text("p graph 2 1\ne 0 1 " + "9" * 400 + "\n")
    with pytest.raises(UsageError, match="multiplicity"):
        MultiGraph.from_edges(2, [(0, 1, MAX_MULTIPLICITY), (1, 0, 1)])


def test_each_record_multiplicity_must_lie_in_range():
    # the sum of a pair's records used to be the only thing checked, so a
    # record of -3 beside one of 5 read as one edge of multiplicity 2
    with pytest.raises(UsageError, match=r"line 3: multiplicity -3 is outside 1\.\.2\*\*53"):
        graph_from_text("p graph 2 2\ne 0 1 5\ne 0 1 -3\n")
    with pytest.raises(UsageError, match="line 3: multiplicity 0 "):
        graph_from_text("p graph 3 2\ne 1 2 1\ne 0 1 0\n")
    with pytest.raises(UsageError, match="record of multiplicity -3"):
        MultiGraph.from_edges(2, [(0, 1, 5), (1, 0, -3)])
    with pytest.raises(UsageError, match="record of multiplicity 0"):
        MultiGraph.from_edges(3, [(0, 1), (1, 2, 0)])


def test_reader_errors_carry_line_numbers():
    with pytest.raises(UsageError, match="line 2: non-integer field"):
        graph_from_text("p graph 2 1\ne 0 two 1\n")
    with pytest.raises(UsageError, match="line 3: duplicate header"):
        graph_from_text("p graph 2 1\ne 0 1 1\np graph 2 1\n")
    with pytest.raises(UsageError, match="line 1: bad header"):
        graph_from_text("p e2lin2 2 1\n")
    with pytest.raises(UsageError, match="header"):
        graph_from_text("e 0 1 1\n")
    with pytest.raises(UsageError, match="declares"):
        graph_from_text("p graph 2 2\ne 0 1 1\n")


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_reader_errors_name_the_line_wc_counts(sep, tmp_path):
    # '\n' ends a line for `wc -l`; these separators sit inside one
    text = f"# a comment{sep}on one line\np graph 2 1\ne 0 1 x\n"
    last = text.count("\n")
    with pytest.raises(UsageError, match=f"line {last}: non-integer field"):
        graph_from_text(text)
    path = tmp_path / "g.graph"
    path.write_bytes(f"p graph 2 1{sep}e 0 1 x\n".encode("ascii"))
    with pytest.raises(UsageError, match="line 1: bad header"):
        read_graph(path)


def test_bipartite_gadget_validation():
    g = MultiGraph.from_edges(4, [(0, 2), (1, 3)])
    h = BipartiteGadget(g, (0, 1), (2, 3))
    assert h.side_size == 2
    assert h.graph.degrees() == (1, 1, 1, 1)
    bad = MultiGraph.from_edges(4, [(0, 1)])
    with pytest.raises(UsageError, match="cross"):
        BipartiteGadget(bad, (0, 1), (2, 3))
    with pytest.raises(UsageError):
        BipartiteGadget(g, (0, 1), (2,))


def test_digit_words_match_the_int64_construction():
    # the writers' word table, built as it was before in int64, byte for byte
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    lead = digits.cumsum(axis=1) > 0
    words = np.concatenate((digits + 48, np.where(lead | [0, 0, 0, 1], digits + 48, 0),
                            np.where(lead, digits + 48, 0),
                            [[101, 32, 0, 0], [32, 0, 0, 0], [10, 0, 0, 0]]))
    expected = words.astype(np.uint8).view(np.uint32).ravel()
    got = graphs._digit_words()
    assert got.dtype == np.uint32 and got.tobytes() == expected.tobytes()


def test_digit_lines_write_each_row_as_a_line():
    ids = np.array([[0, 9, 10], [9999, 10000, 10 ** 12 + 7]])
    assert graphs.digit_lines([ids], (" ",)) == " 0 9 10\n 9999 10000 1000000000007\n"
    assert graphs.digit_lines([ids[:, :1], ids[:, 1:]], ("e ", " ")) == \
        "e 0 9 10\ne 9999 10000 1000000000007\n"
