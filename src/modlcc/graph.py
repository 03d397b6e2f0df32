"""Directed multigraph samples and edge-list ingestion."""

from __future__ import annotations

import functools
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
    columns (source index, target index, count), in any order and with
    repeated cells, whose counts are summed exactly in int64; columns whose
    keys i * n_T + j strictly increase skip the sort.  A ``{(i, j): count}``
    mapping is read as the same columns.
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
        src_idx, tgt_idx = (np.asarray(a, dtype=np.int64) for a in edges[:2])
        if not len(src_idx) == len(tgt_idx) == len(edges[2]):
            raise EdgeListError("source, target and count columns differ in length")
        if not len(src_idx):
            raise EdgeListError("no edges")
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
        counts = np.asarray(edges[2], dtype=np.int64)
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
        """``{(i, j): count}`` over the nonzero cells, in cell order; built on first read."""
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


def _read_lines(data) -> list[str]:
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        return data.splitlines()
    return [str(line).rstrip("\n") for line in data]


def parse_edge_list(
    data,
    unify: bool = False,
    undirected: bool = False,
    vocabulary: Iterable[str] | None = None,
    target_vocabulary: Iterable[str] | None = None,
) -> MultigraphSample:
    """Parse a TSV edge list into a MultigraphSample.

    Lines are `source<TAB>target[<TAB>count]`; count defaults to 1 and
    repeated lines accumulate.  `#`-prefixed lines are comments, and a
    leading `source<TAB>target[<TAB>count]` header row is skipped.

    With ``undirected=True`` every line is ingested in both directions.
    With ``unify=True`` sources and targets share one label space.
    An optional vocabulary declares the vertex universe up front, so that
    zero-degree vertices participate in the partitions.
    """
    src_index: dict[str, int] = {}
    tgt_index: dict[str, int] = {}
    if vocabulary is not None:
        for label in vocabulary:
            src_index.setdefault(label, len(src_index))
        if unify:
            tgt_index = src_index
        elif target_vocabulary is not None:
            for label in target_vocabulary:
                tgt_index.setdefault(label, len(tgt_index))
    elif unify:
        tgt_index = src_index

    src_id, tgt_id = src_index.setdefault, tgt_index.setdefault
    srcs: list[int] = []
    tgts: list[int] = []
    cnts: list[int] = []
    add_src, add_tgt, add_cnt = srcs.append, tgts.append, cnts.append

    seen_data = False
    for lineno, line in enumerate(_read_lines(data), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        fields = line.split("\t")
        if not seen_data and [f.strip().lower() for f in fields] in _HEADERS:
            continue
        if len(fields) == 2:
            s, t = fields
            c = 1
        elif len(fields) == 3:
            s, t, raw = fields
            try:
                c = int(raw)
            except ValueError:
                raise EdgeListError(f"line {lineno}: count {raw!r} is not an integer") from None
            if c <= 0:
                raise EdgeListError(f"line {lineno}: count must be positive, got {c}")
            if c > _INT64_MAX:
                raise EdgeListError(f"line {lineno}: count {c} out of range")
        else:
            raise EdgeListError(f"line {lineno}: expected 2 or 3 tab-separated columns, got {len(fields)}")
        seen_data = True
        add_src(src_id(s, len(src_index)))
        add_tgt(tgt_id(t, len(tgt_index)))
        add_cnt(c)
        if undirected:
            add_src(src_id(t, len(src_index)))
            add_tgt(tgt_id(s, len(tgt_index)))
            add_cnt(c)

    source_labels = list(src_index)
    target_labels = source_labels if unify else list(tgt_index)
    return MultigraphSample(source_labels, target_labels, (srcs, tgts, cnts), unified=unify)
