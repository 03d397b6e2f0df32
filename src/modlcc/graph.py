"""Directed multigraph samples and edge-list ingestion."""

from __future__ import annotations

import functools
import itertools
import os
import stat
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
    int64; columns whose keys i * n_T + j never decrease skip the sort, and
    only those with a repeated key are summed.
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
        order = None
        repeated = (key[1:] <= key[:-1]).any()  # or unordered
        if repeated and (key[1:] < key[:-1]).any():
            # unordered cells; the sort runs with only the keys alive (peak RSS)
            del src_idx, tgt_idx
            order = key.argsort()
            key = key[order]
        # the per-entry counts are built after the sort for the same reason
        counts = _int64_column(edges[2])
        if counts.min() < 1:
            raise EdgeListError("edge counts must be positive")
        # a total within int64 bounds every cell's sum below
        self.m = _total(counts)
        if order is not None:
            counts = counts[order]
        if repeated:
            last = np.empty(len(key), dtype=bool)  # where each cell's run of entries ends
            np.not_equal(key[1:], key[:-1], out=last[:-1])
            last[-1] = True
            run_end = last.nonzero()[0]
            del last
            if len(run_end) < len(key):
                key = key[run_end]
                # each cell's count is a difference of running totals, exact as the total is
                counts = np.diff(np.add.accumulate(counts)[run_end], prepend=0)
            del run_end
            src_idx, tgt_idx = np.divmod(key, n_t)
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
# the line separators of `str.splitlines` other than "\n", and those of them that are ASCII
_OTHER_SEPARATORS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ASCII_SEPARATORS = [sep.encode() for sep in _OTHER_SEPARATORS if sep.isascii()]
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
# an odd multiplier, 2^64 over the golden ratio as an int64, whose products' high bits hash label keys
_HASH_MULTIPLIER = np.int64(0x9E3779B97F4A7C15 - 2**64)
# the keys that `_look_up` takes at a time, so that its buffers stay in cache
_LOOKUP_CHUNK = 1 << 15
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


def _padded(length: int) -> bytearray:
    """A zeroed buffer for a text of `length` bytes at [_PAD:_PAD + length],
    with room after it for one separator byte and the pad."""
    return bytearray(_PAD + length + 1 + _PAD)


def _read(file):
    """What `file.read()` returns; but a regular binary file's bytes are read
    in place into a `_padded` buffer, so they are never copied."""
    if not hasattr(file, "readinto"):
        return file.read()
    try:
        status, start = os.fstat(file.fileno()), file.tell()
    except OSError:  # no file descriptor, as in io.BytesIO
        return file.read()
    if not stat.S_ISREG(status.st_mode):
        return file.read()
    size = max(status.st_size - start, 0)
    buf = _padded(size)
    with memoryview(buf) as view:
        got = file.readinto(view[_PAD:_PAD + size + 1])  # one byte more shows a file that grew
        if got > size:
            return bytes(view[_PAD:_PAD + got]) + file.read()
    del buf[_PAD + got:_PAD + size]  # a file that shrank
    return buf


def _text_buffer(data) -> tuple[bytearray, int, int]:
    """The input's lines as UTF-8 bytes at buf[_PAD:end] of a `_padded`
    buffer, each ended by one separator byte; `end` and that byte, which
    buf[_PAD - 1] holds too.

    Bytes that hold no other line separator than "\n" are taken as they
    are.  ASCII bytes are checked with byte scans; other bytes are decoded,
    which checks that they are UTF-8.
    """
    buf = None
    if hasattr(data, "read"):
        data = _read(data)
        if isinstance(data, bytearray):  # read in place, between zeroed pads: ASCII, and no separator
            buf = data
    if buf is not None or isinstance(data, bytes):
        text = data if buf is None else memoryview(buf)[_PAD:len(buf) - _PAD - 1]
        if data.isascii():
            if any(sep in data for sep in _ASCII_SEPARATORS):
                data = str(text, "ascii")
        else:
            decoded = str(text, "utf-8")  # a UnicodeDecodeError, a ValueError, on invalid UTF-8
            if any(sep in decoded for sep in _OTHER_SEPARATORS):
                data = decoded
        del text
    sep = _NEWLINE
    if isinstance(data, str):
        if any(sep in data for sep in _OTHER_SEPARATORS):
            data = "\n".join(data.splitlines())
        data = data.encode("utf-8", "surrogatepass")
    elif data is not buf and not isinstance(data, bytes):
        # each item of an iterable is one line, whatever separators it holds
        data = b"".join(str(line).rstrip("\n").encode("utf-8", "surrogatepass") + b"\xff" for line in data)
        sep = _FF
    if data is not buf:
        buf = _padded(len(data))
        buf[_PAD:_PAD + len(data)] = data
    del data
    end = len(buf) - _PAD - 1
    buf[_PAD - 1] = sep
    if end > _PAD and buf[end - 1] != sep:
        buf[end] = sep
        end += 1
    return buf, end, sep


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
    """The lines of u8[lo + 1:hi], where u8[lo] is a separator: the
    delimiters before and after each line's first two fields, as two
    (lines, 2) arrays, each line's end and its tab count, an int if every
    line has the same one.

    When every line has the same number of tabs, and at least one, its
    fields lie between consecutive delimiters, and the arrays are views of
    the one array of delimiter positions.
    """
    body = u8[lo:hi]
    if sep == _TAB + 1:
        # the tab and the newline are the only bytes that fall below 2 once the tab's value is taken off
        is_delim = np.subtract(body, _TAB, dtype=np.uint8)
        is_delim = np.less(is_delim, 2, out=is_delim.view(bool))
    else:
        is_delim = body == _TAB
        is_delim |= body == sep
    delim = is_delim.nonzero()[0]
    del is_delim
    is_end = body[delim] == sep  # first the separator at lo
    delim += lo
    n_lines = int(np.count_nonzero(is_end)) - 1
    per_line = (len(delim) - 1) // max(n_lines, 1)  # delimiters per line, if all lines have as many
    if per_line > 1 and per_line * n_lines == len(delim) - 1 and is_end[::per_line].all():
        before = delim[:-1].reshape(n_lines, per_line)
        after = delim[1:].reshape(n_lines, per_line)
        return before[:, :2], after[:, :2], after[:, -1], per_line - 1
    last = is_end.nonzero()[0]  # the line ends, as indices into delim
    del is_end
    ends = delim[last]
    n_tabs = last[1:] - last[:-1]
    n_tabs -= 1
    first = last[:-1]
    first += 1  # each line's first delimiter
    del last
    after = np.empty((len(first), 2), dtype=np.int64)
    after[:, 0] = delim[first]
    first += 1
    # a line without a tab ends its first field; the end of its second is never read
    after[:, 1] = delim.take(first, mode="clip")
    del first, delim
    before = np.empty_like(after)
    before[:, 0] = ends[:-1]
    before[:, 1] = after[:, 0]
    return before, after, ends[1:], n_tabs


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


def _field_keys(buf: bytes, before: np.ndarray, after: np.ndarray, table: dict[bytes, int]) -> np.ndarray:
    """A 64-bit key per field buf[before + 1:after], equal for fields of
    equal bytes, as an int64 array shaped like `before`.  `table` numbers
    the fields longer than 8 bytes by their bytes, and gains the new ones.

    A field of at most 8 bytes is keyed by its bytes padded with 0xFF, which
    UTF-8 never uses.  A longer one is keyed by its index among the longer
    labels, with the low byte 0xFE, which no shorter label's key has.
    """
    # the 8 bytes after each position
    words = np.ndarray((len(buf) - 8,), dtype="<i8", buffer=buf, offset=1, strides=(1,))
    keys = words[before]
    length = after - before
    length -= 1
    long = None
    if length.size and length.max() > 8:
        long = (length > 8).nonzero()
        view = memoryview(buf)  # a slice of it is copied once, to the bytes of a dict key
        long_keys = [table.setdefault(bytes(view[b + 1:b + 1 + n]), len(table)) << 8 | 0xFE
                     for b, n in zip(before[long].tolist(), length[long].tolist())]
    # -1 << 8r keeps the low r bytes of a word and sets the others; a shift of 64 or more gives 0
    length <<= 3
    keys |= np.left_shift(-1, length, out=length)
    if long is not None:
        keys[long] = long_keys
    return keys


def _vocabulary_keys(labels: list[str], table: dict[bytes, int]) -> np.ndarray:
    """The `_field_keys` of the labels, laid out as fields of one padded buffer."""
    encoded = [label.encode("utf-8", "surrogatepass") for label in labels]
    end = np.array([*itertools.accumulate(map(len, encoded), initial=_PAD)])
    buf = b"".join([bytes(_PAD), *encoded, bytes(_PAD)])
    return _field_keys(buf, end[:-1] - 1, end[1:], table)


def _label_text(keys: np.ndarray, long_labels: list[bytes]) -> list[str]:
    """The label of each key."""
    return [(long_labels[key >> 8] if key & 0xFF == 0xFE else key.to_bytes(8, "little").rstrip(b"\xff"))
            .decode("utf-8", "surrogatepass") for key in keys.tolist()]


def _number(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex ids by first appearance: each of a stream of int64 field keys
    takes the number of distinct keys that first appear before its own.
    Returns each field's vertex and each vertex's key as uint64.  The
    vertices are written over `keys`, which may be a strided view, and
    which keeps the peak low.  `parse_edge_list` passes only the fields
    that no vocabulary names, so the stream may hold no keys.
    """
    order = keys.argsort()
    sorted_keys = keys[order]
    new = np.empty(len(keys), dtype=bool)  # where a run of equal keys starts
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    run_start = new.nonzero()[0]
    # the first position of each run's key, as argsort need not be stable
    first = np.minimum.reduceat(order, run_start)
    run_vertex = np.sort(first).searchsorted(first)
    vertex_key = np.empty(len(first), dtype=np.uint64)
    vertex_key[run_vertex] = sorted_keys[run_start]
    run = np.add.accumulate(new, dtype=np.int64, out=keys)
    del new
    run -= 1
    keys[order] = run_vertex.take(run, out=sorted_keys, mode="clip")
    return keys, vertex_key


def _home_slots(keys: np.ndarray, bits: int, out: np.ndarray) -> np.ndarray:
    """Each key's home slot among 2^bits, written to `out`: the high bits of
    the key mixed by x ^ (x >> 29), times `_HASH_MULTIPLIER`.

    The mix folds a key's high bytes into its low ones before the multiply;
    without it, a fifth of the explore fields miss their home slot, as the
    0xFF padding of short labels fills the same high bytes.
    """
    mixed = out.view(np.uint64)
    np.right_shift(keys.view(np.uint64), 29, out=mixed)
    mixed ^= keys.view(np.uint64)
    out *= _HASH_MULTIPLIER  # wraps, as a hash should
    mixed >>= 64 - bits
    return out


def _vocabulary_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """An open-addressing table of distinct keys: each slot's key, its
    vertex (the key's index, -1 at an empty slot) and the slot bits.

    A key lies in the first slot from its home slot on that no key took
    before it, so a lookup that probes on from the home slot finds it before
    any empty slot.  An empty slot holds keys[0], which a lookup therefore
    never meets there: whatever key meets an empty slot differs from it.
    """
    bits = len(keys).bit_length() + 4  # 16 to 32 slots per key
    mask = (1 << bits) - 1
    table_keys = np.full(mask + 1, keys[0])
    table_vertex = np.full(mask + 1, -1)
    slot = _home_slots(keys, bits, np.empty_like(keys))
    todo = np.arange(len(keys))
    while len(todo):
        free = table_vertex[slot] < 0
        # of the keys that want one free slot, the one written last takes it
        table_vertex[slot[free]] = todo[free]
        took = table_vertex[slot] == todo
        table_keys[slot[took]] = keys[todo[took]]
        left = ~took
        todo, slot = todo[left], (slot[left] + 1) & mask
    return table_keys, table_vertex, bits


def _look_up(keys: np.ndarray, table: tuple[np.ndarray, np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
    """Write the vertex of each key in `table` over `keys`, and -1 over the
    others; returns the positions of the others, in order, and their keys.

    Keys are compared whole, so two keys that share a slot never share a
    vertex.  The home slots are looked up a chunk at a time, in buffers
    reused across chunks; the few keys whose home slot holds another key
    probe on together.
    """
    table_keys, table_vertex, bits = table
    n = len(keys)
    chunk = min(n, _LOOKUP_CHUNK)
    slot_buf, got_buf = np.empty(chunk, dtype=np.int64), np.empty(chunk, dtype=np.int64)
    wrong_buf = np.empty(chunk, dtype=bool)
    pos = wrong_keys = wrong_slots = np.empty(0, dtype=np.int64)
    parts = []  # (positions, keys, home slots) of each chunk's keys not at their home slot
    for lo in range(0, n, chunk):
        part = keys[lo:lo + chunk]
        size = len(part)
        slot = _home_slots(part, bits, slot_buf[:size])
        got = table_keys.take(slot, out=got_buf[:size], mode="clip")  # "clip": unbuffered
        wrong = np.not_equal(got, part, out=wrong_buf[:size]).nonzero()[0]
        if len(wrong):
            parts.append((wrong + lo, part[wrong], slot[wrong]))
        table_vertex.take(slot, out=part, mode="clip")
    if parts:
        pos, wrong_keys, wrong_slots = (np.concatenate(p) for p in zip(*parts))
        keys[pos] = -1
    # the keys whose home slot holds another key probe on to the next slots
    probing = (table_vertex[wrong_slots] >= 0).nonzero()[0]
    slot = wrong_slots[probing]
    while len(probing):
        slot += 1
        slot &= len(table_keys) - 1
        hit = table_keys[slot] == wrong_keys[probing]
        keys[pos[probing[hit]]] = table_vertex[slot[hit]]
        on = ~hit
        on &= table_vertex[slot] >= 0
        probing, slot = probing[on], slot[on]
    missing = keys[pos] < 0
    return pos[missing], wrong_keys[missing]


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

    The text is read as one byte buffer, a regular binary file in place:
    whole-array passes find the tabs and line ends, read counts of up to 18
    digits and number the labels.  Bytes input is not decoded if it is
    ASCII, only scanned for line separators.  Each field of a stream with a
    vocabulary is looked up in a hash table of the vocabulary's keys; the
    fields not found, and every field of a stream without one, are
    numbered by one argsort of that stream's keys.
    Python checks only the lines those byte rules leave open: lines that
    start with whitespace, a control or non-ASCII byte or `#`, the rows
    before the first data line and that line if it starts as a header
    does, and lines with another count or number of columns.
    """
    # each stream's distinct vocabulary labels: the sources', then the targets' unless unified
    vocabs = [[]] if unify else [[], []]
    if vocabulary is not None:
        vocabs[0] = list(dict.fromkeys(vocabulary))
        if not unify and target_vocabulary is not None:
            vocabs[1] = list(dict.fromkeys(target_vocabulary))
    long_table: dict[bytes, int] = {}
    tables = [_vocabulary_table(_vocabulary_keys(labels, long_table)) if labels else None for labels in vocabs]
    buf, end, sep = _text_buffer(data)
    u8 = np.frombuffer(buf, dtype=np.uint8)
    before, after, ends, n_tabs = _line_spans(u8, _PAD - 1, end, sep)

    # the byte rules: a line is skipped, or settled as a data line, or left open
    code = _RULES[sep][u8[1:][before[:, 0]], np.minimum(n_tabs, 3)]
    del n_tabs
    counts = np.ones(len(code), dtype=np.int64)
    pending = (code == _COUNT).nonzero()[0]
    if len(pending):
        value, ok = _digit_counts(u8, after[pending, 1], ends[pending])
        counts[pending] = value
        code[pending] = np.where(ok, _COUNT, _OPEN)
        del value, ok
    del pending

    def line(i):
        return buf[before[i, 0] + 1:ends[i]].decode("utf-8", "surrogatepass")

    # Python settles the rest in line order, so the first malformed line raises:
    # first every row up to the first data line, each of which may be a header ...
    rows = (code != _SKIP).nonzero()[0]
    skipped = False  # whether Python skips any of `rows`
    for i in rows:
        if code[i] != _OPEN and buf[before[i, 0] + 1:before[i, 0] + 7].lower() != b"source":
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
        before, after, counts = before[rows], after[rows], counts[rows]
    del code, rows, ends

    field_keys = _field_keys(buf, before, after, long_table)
    del before, after, buf, u8
    # the streams in which labels first appear: the fields line by line, or
    # each column; undirected, the targets' stream takes each line reversed
    if unify:
        streams = [field_keys.ravel()]
    elif undirected:
        streams = [field_keys.ravel(), field_keys[:, ::-1].ravel()]
    else:
        streams = [field_keys[:, 0], field_keys[:, 1]]
    del field_keys
    # each stream's vertices are written over its keys: a field found in the
    # stream's vocabulary takes its vertex from it; the others, and every
    # field of a stream without a vocabulary, are numbered by first
    # appearance, after the vocabulary's vertices
    long_labels = list(long_table)
    labels = []
    for stream, vocab, table in zip(streams, vocabs, tables):
        if table is None:
            new_keys = _number(stream)[1]
        else:
            pos, missing = _look_up(stream, table)
            vertex, new_keys = _number(missing)
            stream[pos] = vertex + len(vocab)
        labels.append(vocab + _label_text(new_keys, long_labels))
    if unify:
        (src,) = streams
        src, tgt = (src, src.reshape(n, 2)[:, ::-1].ravel()) if undirected else (src[0::2], src[1::2])
        labels *= 2
    else:
        src, tgt = streams
    if undirected:
        counts = counts.repeat(2)
    return MultigraphSample(*labels, (src, tgt, counts), unified=unify)
