"""Directed multigraph samples and edge-list ingestion."""

from __future__ import annotations

import io
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "EdgeListError",
    "MultigraphSample",
    "parse_edge_list",
]


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""


class MultigraphSample:
    """A directed multigraph observed as a sample of m edges.

    Source and target vertices live in separate label spaces unless the
    sample was built with ``unify=True``, in which case both sides share
    one vocabulary (and one index per vertex).
    """

    def __init__(
        self,
        source_labels: list[str],
        target_labels: list[str],
        edges: Mapping[tuple[int, int], int],
        unified: bool = False,
    ):
        if not edges:
            raise EdgeListError("no edges")
        if unified and source_labels != target_labels:
            raise EdgeListError("unified sample requires identical source/target labels")
        self.source_labels = list(source_labels)
        self.target_labels = list(target_labels)
        self.unified = unified
        n_s, n_t = len(self.source_labels), len(self.target_labels)

        cells = sorted(edges.items())
        self.src_idx = np.array([i for (i, _), _ in cells], dtype=np.int64)
        self.tgt_idx = np.array([j for (_, j), _ in cells], dtype=np.int64)
        self.counts = np.array([c for _, c in cells], dtype=np.int64)
        if np.any(self.counts < 1):
            raise EdgeListError("edge counts must be positive")
        if self.src_idx.min() < 0 or self.src_idx.max() >= n_s:
            raise EdgeListError("source index out of range")
        if self.tgt_idx.min() < 0 or self.tgt_idx.max() >= n_t:
            raise EdgeListError("target index out of range")

        self.edges = {(int(i), int(j)): int(c) for (i, j), c in cells}
        self.m = int(self.counts.sum())
        self.out_degrees = np.bincount(self.src_idx, weights=self.counts, minlength=n_s).astype(np.int64)
        self.in_degrees = np.bincount(self.tgt_idx, weights=self.counts, minlength=n_t).astype(np.int64)

    @property
    def n_source(self) -> int:
        return len(self.source_labels)

    @property
    def n_target(self) -> int:
        return len(self.target_labels)

    def serialize(self) -> str:
        """Aggregated TSV, one `source<TAB>target<TAB>count` line per nonzero cell."""
        out = io.StringIO()
        for (i, j), c in sorted(self.edges.items()):
            out.write(f"{self.source_labels[i]}\t{self.target_labels[j]}\t{c}\n")
        return out.getvalue()

    def expand_lines(self) -> Iterable[str]:
        """One `source<TAB>target` line per edge (multi-edges repeated), cell order."""
        for (i, j), c in sorted(self.edges.items()):
            line = f"{self.source_labels[i]}\t{self.target_labels[j]}\n"
            for _ in range(c):
                yield line

    def __repr__(self):
        return (f"MultigraphSample(n_source={self.n_source}, n_target={self.n_target}, "
                f"m={self.m}, cells={len(self.edges)})")


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

    def intern(table: dict[str, int], label: str) -> int:
        if label not in table:
            table[label] = len(table)
        return table[label]

    edges: dict[tuple[int, int], int] = {}

    def add(s: str, t: str, c: int):
        key = (intern(src_index, s), intern(tgt_index, t))
        edges[key] = edges.get(key, 0) + c

    seen_data = False
    for lineno, line in enumerate(_read_lines(data), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        if not seen_data and [f.strip().lower() for f in fields] in (
            ["source", "target"],
            ["source", "target", "count"],
        ):
            continue
        if len(fields) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 2 or 3 tab-separated columns, got {len(fields)}")
        s, t = fields[0], fields[1]
        if len(fields) == 3:
            try:
                c = int(fields[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: count {fields[2]!r} is not an integer") from None
            if c <= 0:
                raise EdgeListError(f"line {lineno}: count must be positive, got {c}")
        else:
            c = 1
        seen_data = True
        add(s, t, c)
        if undirected:
            add(t, s, c)

    if not edges:
        raise EdgeListError("no edges")
    source_labels = list(src_index)
    target_labels = source_labels if unify else list(tgt_index)
    return MultigraphSample(source_labels, target_labels, edges, unified=unify)
