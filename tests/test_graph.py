import numpy as np
import pytest

from modlcc.graph import EdgeListError, MultigraphSample, parse_edge_list

# Directed simple graph, 8 edges (tabular example)
SIMPLE_TSV = "A\tD\nA\tF\nB\tA\nB\tC\nB\tD\nD\tG\nF\tG\nG\tE\n"

# Directed multigraph with self-loops, 13 edges, vertices A..G on both sides
MULTI_EDGES = [
    ("A", "B"), ("B", "C"), ("B", "G"), ("C", "C"), ("C", "G"),
    ("D", "B"), ("D", "E"), ("E", "C"), ("E", "G"),
    ("F", "E"), ("F", "E"), ("G", "C"), ("G", "G"),
]
MULTI_TSV = "".join(f"{s}\t{t}\n" for s, t in MULTI_EDGES)
VOCAB = list("ABCDEFG")


def multigraph_sample():
    return parse_edge_list(MULTI_TSV, unify=True, vocabulary=VOCAB)


def test_simple_graph_labels_and_m():
    sample = parse_edge_list(SIMPLE_TSV)
    assert sample.m == 8
    assert sample.source_labels == ["A", "B", "D", "F", "G"]
    assert sample.target_labels == ["D", "F", "A", "C", "G", "E"]
    assert sample.n_source == 5 and sample.n_target == 6


def test_self_loop_multi_edge():
    sample = parse_edge_list("x\tx\t3\n")
    assert sample.n_source == 1 and sample.n_target == 1
    assert sample.m == 3


def test_multigraph_degrees():
    sample = multigraph_sample()
    assert sample.m == 13
    assert sample.out_degrees.tolist() == [1, 2, 2, 2, 2, 2, 2]
    assert sample.in_degrees.tolist() == [0, 2, 4, 0, 3, 0, 4]


def test_degree_identities():
    sample = multigraph_sample()
    assert sample.out_degrees.sum() == sample.m
    assert sample.in_degrees.sum() == sample.m
    assert sum(sample.edges.values()) == sample.m


def test_repeated_lines_accumulate():
    sample = parse_edge_list("a\tb\na\tb\na\tb\t2\n")
    assert sample.edges == {(0, 0): 4}
    assert sample.m == 4


def test_header_and_comments_skipped():
    sample = parse_edge_list("# comment\nsource\ttarget\tcount\na\tb\t2\n\n")
    assert sample.m == 2


def test_count_defaults_to_one():
    sample = parse_edge_list("a\tb\nc\td\t5\n")
    assert sample.m == 6


def test_malformed_line_errors_carry_line_number():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("a\tb\na\tb\tc\td\n")
    with pytest.raises(EdgeListError, match="line 1.*integer"):
        parse_edge_list("a\tb\tnope\n")
    with pytest.raises(EdgeListError, match="line 1.*positive"):
        parse_edge_list("a\tb\t0\n")


def test_empty_input_no_edges():
    with pytest.raises(EdgeListError, match="no edges"):
        parse_edge_list("")
    with pytest.raises(EdgeListError, match="no edges"):
        parse_edge_list("# only a comment\n")


def test_undirected_flag_doubles_edges():
    sample = parse_edge_list("a\tb\nb\tc\n", unify=True, undirected=True)
    assert sample.m == 4
    assert sample.edges[(0, 1)] == 1 and sample.edges[(1, 0)] == 1


def test_unify_shares_label_space():
    sample = parse_edge_list("a\tb\nb\tc\n", unify=True)
    assert sample.source_labels == sample.target_labels == ["a", "b", "c"]
    assert sample.unified


def test_vocabulary_declares_isolated_vertices():
    sample = parse_edge_list("a\tb\n", unify=True, vocabulary=["a", "b", "z"])
    assert sample.n_source == 3
    assert sample.out_degrees.tolist() == [1, 0, 0]
    assert sample.in_degrees.tolist() == [0, 1, 0]


def test_round_trip_serialization():
    sample = multigraph_sample()
    again = parse_edge_list(sample.serialize(), unify=True, vocabulary=VOCAB)
    assert again.edges == sample.edges
    assert again.source_labels == sample.source_labels
    assert again.m == sample.m


def test_expand_lines_one_per_edge():
    sample = multigraph_sample()
    lines = list(sample.expand_lines())
    assert len(lines) == sample.m
    again = parse_edge_list("".join(lines), unify=True, vocabulary=VOCAB)
    assert again.edges == sample.edges


def test_sample_rejects_bad_cells():
    with pytest.raises(EdgeListError):
        MultigraphSample(["a"], ["b"], {})
    with pytest.raises(EdgeListError):
        MultigraphSample(["a"], ["b"], {(0, 5): 1})
    with pytest.raises(EdgeListError):
        MultigraphSample(["a"], ["b"], {(0, 0): 0})
