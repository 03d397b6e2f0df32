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


class MultigraphSample:
    """A directed multigraph observed as a sample of m edges.

    Source and target vertices live in separate label spaces unless the
    sample was built with ``unify=True``, in which case both sides share
    one vocabulary (and one index per vertex).

    The nonzero cells are stored once, as COO arrays ``src_idx``,
    ``tgt_idx`` and ``counts`` in row-major cell order.  ``edges`` may be
    given either as those three arrays (sorted, distinct cells) or as a
    ``{(i, j): count}`` mapping, which is sorted into them.
    """

    def __init__(
        self,
        source_labels: list[str],
        target_labels: list[str],
        edges: Mapping[tuple[int, int], int] | tuple[np.ndarray, np.ndarray, np.ndarray],
        unified: bool = False,
    ):
        if isinstance(edges, Mapping):
            cells = sorted(edges.items())
            edges = (
                [i for (i, _), _ in cells],
                [j for (_, j), _ in cells],
                [c for _, c in cells],
            )
        src_idx, tgt_idx, counts = (np.asarray(a, dtype=np.int64) for a in edges)
        if not len(counts):
            raise EdgeListError("no edges")
        if unified and source_labels != target_labels:
            raise EdgeListError("unified sample requires identical source/target labels")
        self.source_labels = list(source_labels)
        self.target_labels = list(target_labels)
        self.unified = unified
        n_s, n_t = len(self.source_labels), len(self.target_labels)

        if counts.min() < 1:
            raise EdgeListError("edge counts must be positive")
        if src_idx.min() < 0 or src_idx.max() >= n_s:
            raise EdgeListError("source index out of range")
        if tgt_idx.min() < 0 or tgt_idx.max() >= n_t:
            raise EdgeListError("target index out of range")
        key = src_idx * n_t + tgt_idx
        if (key[1:] <= key[:-1]).any():
            raise EdgeListError("cells must be distinct and in row-major order")
        self.src_idx, self.tgt_idx, self.counts = src_idx, tgt_idx, counts

        self.m = _total(counts)
        self.out_degrees = np.bincount(src_idx, weights=counts, minlength=n_s).astype(np.int64)
        self.in_degrees = np.bincount(tgt_idx, weights=counts, minlength=n_t).astype(np.int64)

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
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        return data.splitlines()
    if hasattr(data, "read"):
        raw = data.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        return raw.splitlines()
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

    if not cnts:
        raise EdgeListError("no edges")
    source_labels = list(src_index)
    target_labels = source_labels if unify else list(tgt_index)
    # aggregate repeated lines into cells, sorted by the row-major key
    # i * n_T + j; integer sums, exact as the per-line counts are, and no
    # cell's sum wraps once the total of the lines fits int64
    n_t = len(target_labels)
    key = np.array(srcs, dtype=np.int64) * n_t + np.array(tgts, dtype=np.int64)
    cells, inverse = np.unique(key, return_inverse=True)
    line_counts = np.array(cnts, dtype=np.int64)
    _total(line_counts)
    counts = np.zeros(len(cells), dtype=np.int64)
    np.add.at(counts, inverse, line_counts)
    # kept alive while the sample is built, the copy raised explore's peak RSS by 3 MB
    del line_counts
    src_idx, tgt_idx = np.divmod(cells, n_t)
    return MultigraphSample(source_labels, target_labels, (src_idx, tgt_idx, counts), unified=unify)
