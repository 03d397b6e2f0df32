import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlcc.graph import EdgeListError, MultigraphSample, parse_edge_list

from oracles import DictEdgeListError, dict_parse_edge_list

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


INT64_MAX = 2**63 - 1


def test_counts_beyond_int64_rejected():
    with pytest.raises(EdgeListError, match="^line 2: count 99999999999999999999999 out of range$"):
        parse_edge_list("a\tb\na\tb\t99999999999999999999999\n")
    # totals in [2^63, 2^64) wrap the int64 sum; a repeated cell wraps its own sum
    for text in (f"a\tb\t{INT64_MAX}\nb\ta\t{INT64_MAX}\n", f"a\tb\t{INT64_MAX}\n" * 3):
        with pytest.raises(EdgeListError, match=f"^total edge count exceeds {INT64_MAX}$"):
            parse_edge_list(text)


@pytest.mark.parametrize("counts", [[INT64_MAX, 1], [INT64_MAX] * 3, [2**62] * 8])
def test_sample_rejects_a_total_beyond_int64(counts):
    n = len(counts)
    labels = [str(i) for i in range(n)]
    with pytest.raises(EdgeListError, match=f"^total edge count exceeds {INT64_MAX}$"):
        MultigraphSample(labels, labels, (np.arange(n), np.arange(n), np.array(counts)))


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


def test_sample_rejects_bad_arrays():
    labels = ["a", "b"]
    for src, tgt, counts in (
        ([], [], []),
        ([0, 2], [0, 0], [1, 1]),
        ([0, 1], [0, -1], [1, 1]),
        ([0, 1], [0, 0], [1, 0]),
        ([0, 1], [0, 0], [1]),  # columns of different lengths
    ):
        with pytest.raises(EdgeListError):
            MultigraphSample(labels, labels, (np.array(src), np.array(tgt), np.array(counts)))


@st.composite
def split_cells(draw):
    """(labels, {(i, j): count}, the same cells as columns): the entries come
    shuffled, and each cell's count is split over up to 4 repeated entries."""
    n_s, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    keys = st.tuples(st.integers(0, n_s - 1), st.integers(0, n_t - 1))
    cells = draw(st.dictionaries(keys, st.integers(1, 2**60), min_size=1, max_size=6))
    entries = []
    for (i, j), count in cells.items():
        cuts = sorted(draw(st.sets(st.integers(1, max(count - 1, 1)), max_size=min(count - 1, 3))))
        entries += [(i, j, hi - lo) for lo, hi in zip([0] + cuts, cuts + [count])]
    entries = draw(st.permutations(entries))
    columns = [list(col) for col in zip(*entries)]
    if draw(st.booleans()):
        columns = [np.array(col) for col in columns]
    return ([f"s{i}" for i in range(n_s)], [f"t{j}" for j in range(n_t)]), cells, tuple(columns)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(split_cells())
def test_shuffled_and_split_columns_build_the_mapping_sample(case):
    (labels_s, labels_t), cells, columns = case
    from_map = MultigraphSample(labels_s, labels_t, cells)
    from_columns = MultigraphSample(labels_s, labels_t, columns)
    for name in ("src_idx", "tgt_idx", "counts", "out_degrees", "in_degrees"):
        a, b = getattr(from_map, name), getattr(from_columns, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
    assert from_map.m == from_columns.m == sum(cells.values())
    assert list(from_columns.edges.items()) == list(from_map.edges.items()) == sorted(cells.items())


def test_degrees_sum_exactly_in_int64():
    # float64 sums would cast 2^63 - 1 to -2^63 and round 2^53 + 1 to 2^53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = MultigraphSample(["a"], ["b"], {(0, 0): INT64_MAX})
    assert one.out_degrees.tolist() == one.in_degrees.tolist() == [INT64_MAX]
    sample = MultigraphSample(["a", "b"], ["c"], {(0, 0): 2**53 + 1, (1, 0): 1})
    assert sample.m == 2**53 + 2
    assert sample.in_degrees.tolist() == [sample.m]
    assert sample.out_degrees.tolist() == [2**53 + 1, 1]


def test_mapping_and_arrays_build_the_same_sample():
    cells = {(1, 0): 2, (0, 1): 1, (1, 1): 3}
    labels = ["a", "b"]
    from_map = MultigraphSample(labels, labels, cells, unified=True)
    from_arrays = MultigraphSample(labels, labels, ([0, 1, 1], [1, 0, 1], [1, 2, 3]), unified=True)
    for a, b in ((from_map, from_arrays), (from_map, parse_edge_list(from_map.serialize(), unify=True))):
        for name in ("src_idx", "tgt_idx", "counts", "out_degrees", "in_degrees"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert getattr(a, name).dtype == getattr(b, name).dtype == np.int64
        assert a.m == b.m == 6
        assert a.edges == b.edges == {(0, 1): 1, (1, 0): 2, (1, 1): 3}
        assert list(a.edges) == [(0, 1), (1, 0), (1, 1)]
    assert repr(from_map) == "MultigraphSample(n_source=2, n_target=2, m=6, cells=3)"


def test_edges_derived_on_first_read():
    sample = multigraph_sample()
    assert "edges" not in vars(sample)
    edges = sample.edges
    assert vars(sample)["edges"] is edges
    assert edges == {(i, j): c for i, j, c in zip(sample.src_idx.tolist(), sample.tgt_idx.tolist(),
                                                 sample.counts.tolist())}


# -- the columnar parser against the dict-based one -------------------------------------

LABELS = ["a", "b", "a b", " c", "d ", "source", "Target", "x y"]
# mostly valid counts, so that most texts parse; the last four are rejected
COUNTS = ["1", "2", " 3", "+2", "12"] * 6 + ["0", "-1", "x", ""]
BLANKS = ["", "  ", "\t", " \t "]
HEADERS = ["source\ttarget", "Source\tTarget\tCount", " source \t TARGET ", "source\ttarget\tcount"]


@st.composite
def edge_list_lines(draw):
    lines = []
    kinds = ["data"] * 12 + ["comment", "comment", "blank", "blank", "header", "header", "columns"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        if kind == "data":
            fields = [draw(st.sampled_from(LABELS)), draw(st.sampled_from(LABELS))]
            if draw(st.booleans()):
                fields.append(draw(st.sampled_from(COUNTS)))
            lines.append("\t".join(fields))
        elif kind == "comment":
            fields = draw(st.lists(st.sampled_from(LABELS), min_size=2, max_size=4))
            lines.append(draw(st.sampled_from(["#", "# ", "  #"])) + "\t".join(fields))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(BLANKS)))
        elif kind == "header":
            lines.append(draw(st.sampled_from(HEADERS)))
        else:
            lines.append(draw(st.sampled_from(["a", "a\tb\t1\t1"])))
    return lines


def _as_input(lines, form, newline):
    text = newline.join(lines) + newline
    if form == "str":
        return text
    if form == "bytes":
        return text.encode("utf-8")
    if form == "text file":
        return io.StringIO(text)
    if form == "bytes file":
        return io.BytesIO(text.encode("utf-8"))
    return iter([line + "\n" for line in lines])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lines=edge_list_lines(),
    form=st.sampled_from(["str", "bytes", "text file", "bytes file", "iterable"]),
    newline=st.sampled_from(["\n", "\r\n"]),
    unify=st.booleans(),
    undirected=st.booleans(),
    vocabulary=st.none() | st.lists(st.sampled_from(LABELS + ["z", "w"]), max_size=5),
    target_vocabulary=st.none() | st.lists(st.sampled_from(LABELS + ["y"]), max_size=5),
)
def test_parser_matches_dict_oracle(lines, form, newline, unify, undirected, vocabulary,
                                    target_vocabulary):
    options = dict(unify=unify, undirected=undirected, vocabulary=vocabulary,
                   target_vocabulary=target_vocabulary)
    try:
        expect = dict_parse_edge_list(_as_input(lines, form, newline), **options)
    except DictEdgeListError as exc:
        with pytest.raises(EdgeListError) as got:
            parse_edge_list(_as_input(lines, form, newline), **options)
        assert str(got.value) == str(exc)
        return
    sample = parse_edge_list(_as_input(lines, form, newline), **options)
    assert sample.source_labels == expect.source_labels
    assert sample.target_labels == expect.target_labels
    assert sample.unified == expect.unified
    for name in ("src_idx", "tgt_idx", "counts", "out_degrees", "in_degrees"):
        got, want = getattr(sample, name), getattr(expect, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert sample.m == expect.m
    assert sample.edges == expect.edges and list(sample.edges) == list(expect.edges)
