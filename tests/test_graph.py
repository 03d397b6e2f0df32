import contextlib
import io
import random
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlcc import graph
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


@pytest.mark.parametrize("columns", [
    ([0, 1], [0, 0], [1.7, 2.2]),  # float counts, once truncated to [1, 2]
    ([0.9, 1], [0, 0], [1, 1]),  # a float source index, once truncated to 0
    ([0, 1], [0, 0], [1, 2**63]),  # read as float64
    ([0], [0], [2**63]),  # read as uint64, once a bare OverflowError
    ([0], [0], [2**70]),  # read as objects
    ([0], [0], ["1"]),
    ([True], [0], [1]),
])
def test_sample_rejects_non_integer_and_out_of_range_columns(columns):
    with pytest.raises(EdgeListError, match="^edge columns must hold int64 integers$"):
        MultigraphSample(["a", "b"], ["c"], columns)


def test_sample_takes_any_integer_columns_within_int64():
    sample = MultigraphSample(["a", "b"], ["c"], (np.array([1, 0], dtype=np.uint64), np.zeros(2, dtype=np.int8),
                                                  np.array([2, INT64_MAX - 2], dtype=np.uint64)))
    assert sample.counts.dtype == np.int64 and sample.counts.tolist() == [INT64_MAX - 2, 2]
    with pytest.raises(EdgeListError, match="^no edges$"):
        MultigraphSample(["a"], ["b"], (np.array([]), np.array([]), np.array([])))


@st.composite
def split_cells(draw, in_order=False):
    """(labels, {(i, j): count}, the same cells as columns): the entries come
    shuffled, or in cell order if `in_order`, and each cell's count is split
    over up to 4 repeated entries."""
    n_s, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    keys = st.tuples(st.integers(0, n_s - 1), st.integers(0, n_t - 1))
    cells = draw(st.dictionaries(keys, st.integers(1, 2**60), min_size=1, max_size=6))
    entries = []
    for (i, j), count in cells.items():
        cuts = sorted(draw(st.sets(st.integers(1, max(count - 1, 1)), max_size=min(count - 1, 3))))
        entries += [(i, j, hi - lo) for lo, hi in zip([0] + cuts, cuts + [count])]
    entries = sorted(entries, key=lambda e: e[:2]) if in_order else draw(st.permutations(entries))
    columns = [list(col) for col in zip(*entries)]
    if draw(st.booleans()):
        columns = [np.array(col) for col in columns]
    return ([f"s{i}" for i in range(n_s)], [f"t{j}" for j in range(n_t)]), cells, tuple(columns)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(split_cells())
def test_shuffled_and_split_columns_build_the_mapping_sample(case):
    assert_columns_build_the_mapping_sample(case)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(split_cells(in_order=True))
def test_ordered_columns_with_repeated_cells_build_the_mapping_sample(case):
    # non-decreasing keys: each run of repeated cells is summed without a sort
    assert_columns_build_the_mapping_sample(case)


def assert_columns_build_the_mapping_sample(case):
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

# labels that start with whitespace, a control byte or a non-ASCII byte, hold
# a NUL (which pads no key), or are longer than 8 bytes and share a prefix
LABELS = ["a", "b", "a b", " c", "d ", "source", "Target", "x y", "\xa0a", "a\x00", "é", "abcdefgh",
          "abcdefgh9", "abcdefgh9abcdefgh_20", "\xe9abcdef", "\xe9abcdefg"]
# a target may start with "#"; as a source it makes the line a comment
TARGETS = LABELS + ["#a"]
# mostly valid counts, so that most texts parse; the others are rejected, or
# are not plain digits, or lie at the int64 bounds and beyond 18 digits
COUNTS = ["1", "2", " 3", "+2", "12", "007", "1_0", "\u0663"] * 5 + [
    "0", "-1", "x", "", "9223372036854775807", "9223372036854775808", "99999999999999999999"]
BLANKS = ["", "  ", "\t", " \t "]
HEADERS = ["source\ttarget", "Source\tTarget\tCount", " source \t TARGET ", "source\ttarget\tcount"]
# every label that a drawn line can hold, a header row read as data included
EVERY_LABEL = sorted(set(TARGETS).union(*(row.split("\t") for row in HEADERS)))


def vocabularies(others):
    """None; a few labels, some in the lines and some (`others`) not; or every
    label the lines can hold and `others`, shuffled; each may repeat labels."""
    every = st.lists(st.sampled_from(EVERY_LABEL), max_size=3).flatmap(
        lambda repeats: st.permutations(EVERY_LABEL + others + repeats))
    return st.none() | st.lists(st.sampled_from(LABELS + others), max_size=5) | every


@st.composite
def edge_list_lines(draw):
    lines = []
    kinds = ["data"] * 12 + ["comment", "comment", "blank", "blank", "header", "header", "columns"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        if kind == "data":
            fields = [draw(st.sampled_from(LABELS)), draw(st.sampled_from(TARGETS))]
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
    if form == "disk file":
        # a binary file on disk, read from past a first line that is not part of the input
        file = tempfile.TemporaryFile()
        file.write(b"skipped\n" + text.encode("utf-8"))
        file.seek(len(b"skipped\n"))
        return file
    return iter([line + "\n" for line in lines])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    lines=edge_list_lines(),
    form=st.sampled_from(["str", "bytes", "text file", "bytes file", "disk file", "iterable"]),
    newline=st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                             "\u2029"]),
    unify=st.booleans(),
    undirected=st.booleans(),
    vocabulary=vocabularies(["z", "w"]),
    target_vocabulary=vocabularies(["y"]),
)
def test_parser_matches_dict_oracle(lines, form, newline, unify, undirected, vocabulary,
                                    target_vocabulary):
    assert_matches_oracle(lambda: _as_input(lines, form, newline), unify=unify, undirected=undirected,
                          vocabulary=vocabulary, target_vocabulary=target_vocabulary)


def assert_matches_oracle(make_input, **options):
    """`parse_edge_list` and the dict oracle give the same sample, or the same error message."""
    def parse(parser):
        data = make_input()
        with data if hasattr(data, "read") else contextlib.nullcontext():
            return parser(data, **options)

    try:
        expect = parse(dict_parse_edge_list)
    except DictEdgeListError as exc:
        with pytest.raises(EdgeListError) as got:
            parse(parse_edge_list)
        assert str(got.value) == str(exc)
        return
    sample = parse(parse_edge_list)
    assert sample.source_labels == expect.source_labels
    assert sample.target_labels == expect.target_labels
    assert sample.unified == expect.unified
    for name in ("src_idx", "tgt_idx", "counts", "out_degrees", "in_degrees"):
        got, want = getattr(sample, name), getattr(expect, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert sample.m == expect.m
    assert sample.edges == expect.edges and list(sample.edges) == list(expect.edges)


# every line separator of `str.splitlines` but "\n"; ASCII lines around the
# ASCII ones take the byte scan of bytes input, the others the decode
@pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
@pytest.mark.parametrize("form", ["str", "bytes", "bytes file"])
def test_every_line_separator_splits_lines(newline, form):
    assert_matches_oracle(lambda: _as_input(["a\tb", "c\td\t2", "a\tb"], form, newline))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    lines=edge_list_lines(),
    form=st.sampled_from(["str", "bytes", "disk file", "iterable"]),
    unify=st.booleans(),
    undirected=st.booleans(),
    vocabulary=vocabularies(["z", "w"]),
    target_vocabulary=vocabularies(["y"]),
    collide=st.booleans(),
    chunk=st.integers(1, 8),
)
def test_vocabulary_lookup_matches_the_oracle(lines, form, unify, undirected, vocabulary, target_vocabulary,
                                              collide, chunk):
    # every input looked up in its vocabulary a few fields at a time; with a
    # zero multiplier every key hashes alike, so every vocabulary key lies in
    # the probe chain of slot 0
    with mock.patch.object(graph, "_LOOKUP_CHUNK", chunk), \
            mock.patch.object(graph, "_HASH_MULTIPLIER", np.int64(0 if collide else graph._HASH_MULTIPLIER)):
        assert_matches_oracle(lambda: _as_input(lines, form, "\n"), unify=unify, undirected=undirected,
                              vocabulary=vocabulary, target_vocabulary=target_vocabulary)


def test_number_writes_first_appearance_ids_over_the_keys():
    keys = np.array([5, 7, 5, 5, 7, 9], dtype=np.int64)
    vertex, vertex_key = graph._number(keys)
    assert vertex is keys
    assert (vertex.tolist(), vertex_key.tolist(), vertex_key.dtype) == ([0, 1, 0, 0, 1, 2], [5, 7, 9], np.uint64)
    vertex, vertex_key = graph._number(np.empty(0, dtype=np.int64))
    assert (vertex.tolist(), vertex_key.tolist()) == ([], [])
    # a column of a (fields, 2) array, as a directed stream is numbered; the other column stays as it was
    fields = np.array([[-1, 4], [2**40, 4], [-1, 3], [0, 2]], dtype=np.int64)
    vertex, vertex_key = graph._number(fields[:, 0])
    assert fields.tolist() == [[0, 4], [1, 4], [0, 3], [2, 2]]
    assert vertex_key.tolist() == [2**64 - 1, 2**40, 0]


def test_vocabulary_lookup_probes_shared_home_slots():
    # keys that share a home slot take the slots after it, wrapping past the
    # last, and a lookup probes on to them; an empty slot ends the probe of a
    # key not in the table
    vocabulary = np.array([9, -1, 5, 2**40], dtype=np.int64)
    fields = np.array([5, 6, 2**40, -1, 9, 0, 5], dtype=np.int64)

    def last_slot(keys, bits, out):
        out[:] = (1 << bits) - 1
        return out

    for patch, taken in ((contextlib.nullcontext(), None),
                         (mock.patch.object(graph, "_HASH_MULTIPLIER", np.int64(0)), [0, 1, 2, 3]),
                         (mock.patch.object(graph, "_home_slots", last_slot), [0, 1, 2, 127])):
        with patch:
            table_keys, table_vertex, bits = graph._vocabulary_table(vocabulary)
            assert len(table_keys) == 1 << bits > 16 * len(vocabulary)
            assert sorted(table_vertex[table_vertex >= 0].tolist()) == [0, 1, 2, 3]
            assert np.array_equal(table_keys[table_vertex >= 0], vocabulary[table_vertex[table_vertex >= 0]])
            if taken is not None:
                assert (table_vertex >= 0).nonzero()[0].tolist() == taken
            for chunk in (1, 3, 100):
                looked_up = fields.copy()
                with mock.patch.object(graph, "_LOOKUP_CHUNK", chunk):
                    pos, missing = graph._look_up(looked_up, (table_keys, table_vertex, bits))
                assert looked_up.tolist() == [2, -1, 3, 1, 0, -1, 2]
                assert (pos.tolist(), missing.tolist()) == ([1, 5], [6, 0])


@pytest.mark.parametrize("shape", ["regular", "irregular"])
def test_large_inputs_match_the_oracle(shape):
    # a few thousand fields; labels of every length class, and lines with
    # and without counts, so both line layouts are read
    rng = random.Random(7)
    labels = [f"v{i}" for i in range(300)] + ["abcdefgh", "abcdefgh9", "\u00e9t\u00e9", "a label of twenty b"]
    lines = []
    for _ in range(3000):
        fields = [rng.choice(labels), rng.choice(labels)]
        if shape == "irregular" and rng.random() < 0.5:
            fields.append(str(rng.randint(1, 9)))
        lines.append("\t".join(fields))
    if shape == "irregular":
        lines[100:100] = ["# a comment", ""]
    text = "\n".join(lines) + "\n"
    for unify in (False, True):
        for undirected in (False, True):
            assert_matches_oracle(lambda: text.encode(), unify=unify, undirected=undirected,
                                  vocabulary=labels[::-3], target_vocabulary=labels[5:50])
            # vocabularies that name every label, with repeats, looked up a chunk at a time from the file on disk
            with mock.patch.object(graph, "_LOOKUP_CHUNK", 1000):
                assert_matches_oracle(lambda: _as_input(lines, "disk file", "\n"), unify=unify,
                                      undirected=undirected, vocabulary=labels[::-1] + labels[:9],
                                      target_vocabulary=labels[7:] + labels[:7] + labels[3:5])


@pytest.mark.parametrize("change", [-5, 5, -10**6])
def test_a_file_that_changes_size_while_it_is_read_is_read_whole(change):
    # the file's size as `os.fstat` reads it before the read: shrunk, grown, or gone
    real_fstat = graph.os.fstat

    def fstat(fd):
        status = real_fstat(fd)
        return graph.os.stat_result(tuple(status)[:6] + (max(status.st_size + change, 0),) + tuple(status)[7:10])

    with mock.patch.object(graph.os, "fstat", fstat):
        assert_matches_oracle(lambda: _as_input(["a\tb", "c\td\t2", "abcdefgh9\ta"], "disk file", "\n"))


# lines that Python settles, each after a data line: blank or comment once
# stripped, or data that starts with whitespace, a control or non-ASCII byte
@pytest.mark.parametrize("line", [" \t ", "\t", "  #a\tb", "\t#a", "\xa0#a\tb\t1", "\x1f\t", "\x00\tb",
                                  " a\tb", "\ta", "\u00e9\tb\t2", "\ta\tb"])
@pytest.mark.parametrize("form", ["str", "iterable"])
def test_open_lines_after_a_data_line_match_the_oracle(line, form):
    assert_matches_oracle(lambda: _as_input(["a\tb", line, "c\td"], form, "\n"))


def test_iterable_items_are_lines_as_given():
    # separators inside an item are label bytes; only trailing newlines go
    items = ["a\tb\rc\n\n", "d\ne\tf\u2028\n", "\x85\tg"]
    sample = parse_edge_list(iter(items))
    assert sample.source_labels == ["a", "d\ne", "\x85"]
    assert sample.target_labels == ["b\rc", "f\u2028", "g"]
    assert_matches_oracle(lambda: iter(items))


def test_every_leading_header_row_skipped():
    sample = parse_edge_list("source\ttarget\nSOURCE\tTarget\tcount\na\tb\n")
    assert sample.source_labels == ["a"] and sample.target_labels == ["b"]
    # after the first data line a header row is data
    assert parse_edge_list("a\tb\nsource\ttarget\n").source_labels == ["a", "source"]


# first rows that start as a header does, so Python settles each of them
@pytest.mark.parametrize("first", ["sourced\ttarget", "Source\ttargets", "source \tTARGET", "SOURCE\tTarget\t3",
                                   "source \t target \tcount ", "sourcE\ttarget\tcount\t"])
def test_leading_rows_like_a_header_match_the_oracle(first):
    assert_matches_oracle(lambda: _as_input([first, "a\tb"], "str", "\n"))


def test_first_malformed_line_wins():
    bad_count, four_columns = "a\tb\tx", "a\tb\tc\td"
    for third, fifth, message in ((bad_count, four_columns, "count 'x' is not an integer"),
                                  (four_columns, bad_count, "expected 2 or 3 tab-separated columns, got 4")):
        text = "\n".join(["a\tb", "# c", third, "c\td\t2", fifth, "e\tf"]) + "\n"
        with pytest.raises(EdgeListError) as got:
            parse_edge_list(text)
        assert str(got.value) == f"line 3: {message}"
