"""Directed multigraph samples and edge-list ingestion."""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "EdgeListError",
    "MultigraphSample",
    "parse_edge_list",
]


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""


_INT64_MAX = np.iinfo(np.int64).max


def _total(counts: np.ndarray) -> int:
    """The sum of positive int64 counts, or an EdgeListError if it exceeds int64.

    The int64 sum wraps to a negative value for a total in [2^63, 2^64); a
    larger total shows in the float sum, whose relative error is far below
    the margin of the 1.5 * 2^63 threshold.
    """
    total = int(counts.sum())
    if total < 0 or counts.sum(dtype=np.float64) > 1.5 * 2.0**63:
        raise EdgeListError(f"total edge count exceeds {_INT64_MAX}")
    return total


def _int64_column(values) -> np.ndarray:
    """`values` as an int64 array; an EdgeListError unless they are integers within int64."""
    column = np.asarray(values)
    kind = column.dtype.kind
    if kind not in "iu" or (kind == "u" and column.max() > _INT64_MAX):
        raise EdgeListError("edge columns must hold int64 integers")
    return column.astype(np.int64, copy=False)


def int_bincount(index: np.ndarray, counts: np.ndarray, length: int) -> np.ndarray:
    """The int64 sums of `counts` into `length` bins by `index`; exact, unlike a float `bincount`."""
    sums = np.zeros(length, dtype=np.int64)
    np.add.at(sums, index, counts)
    return sums


class MultigraphSample:
    """A directed multigraph observed as a sample of m edges.

    Source and target vertices live in separate label spaces unless the
    sample was built with ``unify=True``, in which case both sides share
    one vocabulary (and one index per vertex).

    The nonzero cells are stored once, as COO arrays ``src_idx``,
    ``tgt_idx`` and ``counts`` in row-major cell order.  ``edges`` is three
    integer columns within int64 (source index, target index, count), in
    any order and with repeated cells, whose counts are summed exactly in
    int64; columns whose keys i * n_T + j strictly increase skip the sort.
    A ``{(i, j): count}`` mapping is read as the same columns.  Columns of
    another dtype, such as floats, raise an EdgeListError.
    """

    def __init__(
        self,
        source_labels: list[str],
        target_labels: list[str],
        edges: Mapping[tuple[int, int], int] | tuple[np.ndarray, np.ndarray, np.ndarray],
        unified: bool = False,
    ):
        if isinstance(edges, Mapping):
            edges = ([i for i, _ in edges], [j for _, j in edges], list(edges.values()))
        if not len(edges[0]) == len(edges[1]) == len(edges[2]):
            raise EdgeListError("source, target and count columns differ in length")
        if not len(edges[0]):
            raise EdgeListError("no edges")
        src_idx, tgt_idx = (_int64_column(a) for a in edges[:2])
        if unified and source_labels != target_labels:
            raise EdgeListError("unified sample requires identical source/target labels")
        self.source_labels = list(source_labels)
        self.target_labels = list(target_labels)
        self.unified = unified
        n_s, n_t = len(self.source_labels), len(self.target_labels)

        if src_idx.min() < 0 or src_idx.max() >= n_s:
            raise EdgeListError("source index out of range")
        if tgt_idx.min() < 0 or tgt_idx.max() >= n_t:
            raise EdgeListError("target index out of range")
        key = src_idx * n_t + tgt_idx
        inverse = None
        if (key[1:] <= key[:-1]).any():
            # unordered or repeated cells; the sort runs with only the keys alive (peak RSS)
            del src_idx, tgt_idx
            key, inverse = np.unique(key, return_inverse=True)
            src_idx, tgt_idx = np.divmod(key, n_t)
        # the per-entry counts are built after the sort for the same reason
        counts = _int64_column(edges[2])
        if counts.min() < 1:
            raise EdgeListError("edge counts must be positive")
        # a total within int64 bounds every cell's sum below
        self.m = _total(counts)
        if inverse is not None:
            counts = int_bincount(inverse, counts, len(key))
        self.src_idx, self.tgt_idx, self.counts = src_idx, tgt_idx, counts
        self.out_degrees = int_bincount(src_idx, counts, n_s)
        self.in_degrees = int_bincount(tgt_idx, counts, n_t)

    @functools.cached_property
    def edges(self) -> dict[tuple[int, int], int]:
        """``{(i, j): count}`` over the nonzero cells, in cell order; built on first read.

        This is a Python dict of every cell, kept for the sample's lifetime:
        about 15 MB on 90,795 cells.  Library code that needs the number of
        cells reads ``len(sample.counts)``.
        """
        cells = zip(self.src_idx.tolist(), self.tgt_idx.tolist(), self.counts.tolist())
        return {(i, j): c for i, j, c in cells}

    @property
    def n_source(self) -> int:
        return len(self.source_labels)

    @property
    def n_target(self) -> int:
        return len(self.target_labels)

    def _cells(self):
        """(source label, target label, count) per nonzero cell, in cell order."""
        s_lab, t_lab = self.source_labels, self.target_labels
        for i, j, c in zip(self.src_idx.tolist(), self.tgt_idx.tolist(), self.counts.tolist()):
            yield s_lab[i], t_lab[j], c

    def serialize(self) -> str:
        """Aggregated TSV, one `source<TAB>target<TAB>count` line per nonzero cell."""
        return "".join(f"{s}\t{t}\t{c}\n" for s, t, c in self._cells())

    def expand_lines(self) -> Iterable[str]:
        """One `source<TAB>target` line per edge (multi-edges repeated), cell order."""
        for s, t, c in self._cells():
            line = f"{s}\t{t}\n"
            for _ in range(c):
                yield line

    def __repr__(self):
        return (f"MultigraphSample(n_source={self.n_source}, n_target={self.n_target}, "
                f"m={self.m}, cells={len(self.counts)})")


_HEADERS = (["source", "target"], ["source", "target", "count"])
# the line separators of `str.splitlines` other than "\n"
_OTHER_SEPARATORS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TAB, _NEWLINE, _HASH = 9, 10, 35
# UTF-8 never uses the byte 0xFF: it ends the lines of an iterable and pads the buffer and the label keys
_FF = 0xFF
# bytes before and after the text, so that an 8-byte word or an 18-digit count can be read across a field's bounds
_PAD = 24
# any count of at most 18 digits fits in int64
_MAX_DIGITS = 18
# the offsets of a count's digit columns from its field's end, and their place values
_OFFSETS = np.arange(-_MAX_DIGITS, 0)
_PLACES = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
_ZERO = np.uint8(ord("0"))
# the offsets, from a line's first delimiter, of the delimiters that end its first two fields
_FIELD_ENDS = np.array([0, 1])
# word | _KEY_PAD[r] keeps the low r bytes of a little-endian word and sets the others to 0xFF
_KEY_PAD = np.array([2**64 - 2 ** (8 * r) for r in range(9)], dtype=np.uint64)
# what the byte rules make of a line: left to Python, skipped, a data line, a data line with a count to read
_OPEN, _SKIP, _DATA, _COUNT = range(4)


def _rule_table(sep: int) -> np.ndarray:
    """The byte rule of a line by its first byte and its tab count (3 for any more)."""
    table = np.full((256, 4), _OPEN, dtype=np.int8)
    # printable ASCII but "#": a byte that Python would neither strip nor read as a comment
    plain = [b for b in range(33, 127) if b != _HASH]
    table[plain, 1] = _DATA
    table[plain, 2] = _COUNT
    # a line that starts with its own end is blank
    table[[_HASH, sep]] = _SKIP
    return table


_RULES = {sep: _rule_table(sep) for sep in (_NEWLINE, _FF)}


def _text_bytes(data) -> tuple[bytes, int]:
    """The input's lines as UTF-8 bytes, each but perhaps the last ended by one separator byte, and that byte."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        text = data.decode("utf-8")  # a UnicodeDecodeError, a ValueError, on invalid UTF-8
        if not any(sep in text for sep in _OTHER_SEPARATORS):
            return data, _NEWLINE
        data = text
    if isinstance(data, str):
        if any(sep in data for sep in _OTHER_SEPARATORS):
            data = "\n".join(data.splitlines())
        return data.encode("utf-8", "surrogatepass"), _NEWLINE
    # each item of an iterable is one line, whatever separators it holds
    lines = (str(line).rstrip("\n").encode("utf-8", "surrogatepass") + b"\xff" for line in data)
    return b"".join(lines), _FF


def _line_count(line: str, lineno: int, header: bool) -> int | None:
    """The count of a data line; None for a blank or comment line, or for a
    header row when `header`; an EdgeListError for a malformed line."""
    stripped = line.strip()
    if not stripped or stripped[0] == "#":
        return None
    fields = line.split("\t")
    if header and [f.strip().lower() for f in fields] in _HEADERS:
        return None
    if len(fields) == 2:
        return 1
    if len(fields) != 3:
        raise EdgeListError(f"line {lineno}: expected 2 or 3 tab-separated columns, got {len(fields)}")
    raw = fields[2]
    try:
        c = int(raw)
    except ValueError:
        raise EdgeListError(f"line {lineno}: count {raw!r} is not an integer") from None
    if c <= 0:
        raise EdgeListError(f"line {lineno}: count must be positive, got {c}")
    if c > _INT64_MAX:
        raise EdgeListError(f"line {lineno}: count {c} out of range")
    return c


def _line_spans(u8: np.ndarray, lo: int, hi: int, sep: int):
    """The lines of u8[lo + 1:hi], where u8[lo] is a separator: the start and
    the end of each line's first two fields, as two (lines, 2) arrays, each
    line's end and its tab count."""
    body = u8[lo:hi]
    is_delim = body == _TAB
    is_delim |= body == sep
    delim = is_delim.nonzero()[0]
    del is_delim
    delim += lo
    last = (u8[delim] == sep).nonzero()[0]  # the line ends, as indices into delim; first the one at lo
    ends = delim[last]
    first = last[:-1] + 1  # each line's first delimiter
    n_tabs = last[1:] - first
    del last
    # a line without a tab ends its first field; the end of its second is never read
    field_end = delim.take(first[:, None] + _FIELD_ENDS, mode="clip")
    del first, delim
    field_start = np.empty_like(field_end)
    np.add(ends[:-1], 1, out=field_start[:, 0])
    np.add(field_end[:, 0], 1, out=field_start[:, 1])
    return field_start, field_end, ends[1:], n_tabs


def _digit_counts(u8: np.ndarray, tab: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of the count fields u8[tab + 1:end], each read right-aligned
    as a row of digit columns, and which are positive counts of 1 to 18
    ASCII digits."""
    before = tab - end  # the offset of each field's tab from the field's end
    widest = -1 - int(np.minimum.reduce(before))
    columns = min(widest, _MAX_DIGITS)
    offsets = _OFFSETS[_MAX_DIGITS - columns:]
    digits = u8[end[:, None] + offsets]
    digits -= _ZERO  # wraps above 9 for a byte below "0"
    digits *= offsets > before[:, None]  # 0 from the tab back
    ok = np.maximum.reduce(digits, axis=1, initial=0) <= 9
    value = digits @ _PLACES[_MAX_DIGITS - columns:]
    ok &= value > 0
    if widest > _MAX_DIGITS:
        ok &= before >= -1 - _MAX_DIGITS
    return value, ok


def _field_keys(buf: bytes, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """A 64-bit key per field of `length` bytes at `start` in `buf`, equal
    for fields of equal bytes, and the bytes of each field longer than 8
    bytes, by index.

    A field of at most 8 bytes is keyed by its bytes padded with 0xFF, which
    UTF-8 never uses.  A longer one is keyed by its index among the longer
    labels, with the low byte 0xFE, which no shorter label's key has.
    """
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))  # the 8 bytes from each position
    keys = words[start]
    keys |= _KEY_PAD.take(length, mode="clip")
    table: dict[bytes, int] = {}
    if np.maximum.reduce(length) > 8:
        long = (length > 8).nonzero()[0]
        keys[long] = [table.setdefault(buf[s:s + n], len(table)) << 8 | 0xFE
                      for s, n in zip(start[long].tolist(), length[long].tolist())]
    return keys, list(table)


def _label_text(keys: np.ndarray, long_labels: list[bytes]) -> list[str]:
    """The label of each key."""
    return [(long_labels[key >> 8] if key & 0xFF == 0xFE else key.to_bytes(8, "little").rstrip(b"\xff"))
            .decode("utf-8", "surrogatepass") for key in keys.tolist()]


def _number(keys: np.ndarray, size0: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Vertex ids by first appearance.  keys[:size0] and keys[size0:] are two
    streams of fields; each numbers its own vertices from 0 in the order in
    which their keys first appear in it.  Returns each field's vertex, each
    vertex's key (those of the first stream first) and the first stream's
    vertex count.  Sorts `keys` in place and reuses its memory, which keeps
    the peak low."""
    two = size0 < len(keys)
    order = keys[:size0].argsort()
    if two:
        order = np.concatenate([order, keys[size0:].argsort() + size0])
    keys.take(order, out=keys)  # buffered, so the overlap is safe
    new = np.empty(len(keys), dtype=bool)  # where a run of equal keys starts
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    if two:
        new[size0] = True
    run_start = new.nonzero()[0]
    # the first position of each run's key; argsort need not be stable
    first = np.minimum.reduceat(order, run_start)
    run_vertex = np.sort(first).searchsorted(first)
    vertex_key = np.empty(len(first), dtype=keys.dtype)
    vertex_key[run_vertex] = keys[run_start]
    run = np.add.accumulate(new, dtype=np.int64, out=keys.view(np.int64))
    del new
    run -= 1
    vertex = np.empty(len(keys), dtype=np.int64)
    vertex[order] = run_vertex[run]
    if not two:
        return vertex, vertex_key, len(vertex_key)
    n0 = int(run_start.searchsorted(size0))
    vertex[size0:] -= n0
    return vertex, vertex_key, n0


def parse_edge_list(
    data,
    unify: bool = False,
    undirected: bool = False,
    vocabulary: Iterable[str] | None = None,
    target_vocabulary: Iterable[str] | None = None,
) -> MultigraphSample:
    """Parse a TSV edge list into a MultigraphSample.

    `data` is a str, UTF-8 bytes, a file of either, or an iterable of
    lines.  A str, bytes or file splits into lines as `str.splitlines`
    splits it; each item of an iterable is one line, less its trailing
    newlines.  A line is `source<TAB>target[<TAB>count]`, its fields taken
    as they are, not stripped.  The count is whatever Python's `int()`
    reads, and must lie in [1, 2^63); it defaults to 1, and repeated lines
    accumulate.  A line that is blank or `#`-prefixed once stripped is
    skipped, and so is every `source<TAB>target[<TAB>count]` header row
    (any case and spacing) before the first data line.  A malformed line
    raises an EdgeListError naming the first such line.

    With ``undirected=True`` every line is ingested in both directions.
    With ``unify=True`` sources and targets share one label space.
    An optional vocabulary declares the vertex universe up front, so that
    zero-degree vertices participate in the partitions.  Vertex ids follow
    the vocabulary, then the first appearance of each new label.

    The text is read as one byte buffer: whole-array passes find the tabs
    and line ends, read counts of up to 18 digits and number the labels.
    Python checks only the lines those byte rules leave open: lines that
    start with whitespace, a control or non-ASCII byte or `#`, the rows
    before the first data line and that line if it starts as a header
    does, and lines with another count or number of columns.
    """
    vocab_s = vocab_t = []
    if vocabulary is not None:
        vocab_s = list(vocabulary)
        vocab_t = [] if unify or target_vocabulary is None else list(target_vocabulary)
    vocab_bytes = [label.encode("utf-8", "surrogatepass") for label in vocab_s + vocab_t]
    vocab_end = np.array([*itertools.accumulate(map(len, vocab_bytes), initial=_PAD)])
    raw, sep = _text_bytes(data)
    tail = bytes([sep]) if raw and raw[-1] != sep else b""
    # the vocabulary, then the lines after a separator that ends no line
    pad = b"\xff" * _PAD
    buf = b"".join([pad, *vocab_bytes, bytes([sep]), raw, tail, pad])
    del raw, vocab_bytes
    u8 = np.frombuffer(buf, dtype=np.uint8)
    field_start, field_end, ends, n_tabs = _line_spans(u8, int(vocab_end[-1]), len(buf) - _PAD, sep)

    # the byte rules: a line is skipped, or settled as a data line, or left open
    code = _RULES[sep][u8[field_start[:, 0]], np.minimum(n_tabs, 3)]
    del n_tabs
    counts = np.ones(len(code), dtype=np.int64)
    pending = (code == _COUNT).nonzero()[0]
    if len(pending):
        value, ok = _digit_counts(u8, field_end[pending, 1], ends[pending])
        counts[pending] = value
        code[pending] = np.where(ok, _COUNT, _OPEN)
        del value, ok
    del pending

    def line(i):
        return buf[field_start[i, 0]:ends[i]].decode("utf-8", "surrogatepass")

    # Python settles the rest in line order, so the first malformed line raises:
    # first every row up to the first data line, each of which may be a header ...
    rows = (code != _SKIP).nonzero()[0]
    skipped = False  # whether Python skips any of `rows`
    for i in rows:
        if code[i] != _OPEN and buf[field_start[i, 0]:field_start[i, 0] + 6].lower() != b"source":
            break  # a data line that no header matches
        c = _line_count(line(i), i + 1, header=True)
        if c is not None:
            code[i], counts[i] = _DATA, c
            break
        code[i], skipped = _SKIP, True
    # ... then the open lines after it
    for i in (code == _OPEN).nonzero()[0].tolist():
        c = _line_count(line(i), i + 1, header=False)
        if c is None:
            code[i], skipped = _SKIP, True
        else:
            code[i], counts[i] = _DATA, c
    if skipped:
        rows = (code != _SKIP).nonzero()[0]
    n = len(rows)
    if not n:
        raise EdgeListError("no edges")
    if n < len(code):
        field_start, field_end, counts = field_start[rows], field_end[rows], counts[rows]
    del code, rows, ends

    n_vs = len(vocab_s)

    def stream_fields(vocab, fields):
        """The vocabulary and (lines, 2) field bounds laid out as the streams
        in which labels first appear: its vocabulary, then its fields line by line."""
        if unify:
            return np.concatenate([vocab, fields.ravel()])
        if undirected:
            return np.concatenate([vocab[:n_vs], fields.ravel(), vocab[n_vs:], fields[:, ::-1].ravel()])
        return np.concatenate([vocab[:n_vs], fields[:, 0], vocab[n_vs:], fields[:, 1]])

    start = stream_fields(vocab_end[:-1], field_start)
    del field_start
    length = stream_fields(vocab_end[1:], field_end)
    del field_end
    length -= start
    size0 = n_vs + (2 if unify or undirected else 1) * n
    keys, long_labels = _field_keys(buf, start, length)
    del start, length, buf, u8
    vertex, vertex_key, n_source = _number(keys, size0)
    del keys
    source_labels = _label_text(vertex_key[:n_source], long_labels)
    target_labels = source_labels if unify else _label_text(vertex_key[n_source:], long_labels)

    src = vertex[n_vs:size0]
    if unify:
        src, tgt = (src, src.reshape(n, 2)[:, ::-1].ravel()) if undirected else (src[0::2], src[1::2])
    else:
        tgt = vertex[size0 + len(vocab_t):]
    if undirected:
        counts = counts.repeat(2)
    return MultigraphSample(source_labels, target_labels, (src, tgt, counts), unified=unify)
