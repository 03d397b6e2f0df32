"""Coclustering models and the exact evaluation criterion.

A model is a pair of partitions (source and target vertices) together with
all the edge counts it induces on the sample.  The criterion is the exact
negative log posterior of the model under the hierarchical uniform prior;
lower is better, values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._engine import Engine
from .graph import MultigraphSample, int_bincount

__all__ = [
    "ModelError",
    "AuditError",
    "CriterionBreakdown",
    "Coclustering",
    "NEW_CLUSTER",
    "from_partitions",
    "null_model",
    "maximal_model",
    "model_header",
]

NEW_CLUSTER = "new"

_TERM_NAMES = (
    "cluster_number_prior",
    "partition_prior",
    "cocluster_prior",
    "source_margin_prior",
    "target_margin_prior",
    "cocluster_likelihood",
    "source_degree_likelihood",
    "target_degree_likelihood",
)


class ModelError(ValueError):
    """Invalid partition or model/sample mismatch."""


class AuditError(ModelError):
    """A model's counts differ from those of the sample it is checked against."""


@dataclass(frozen=True)
class CriterionBreakdown:
    """The eight additive criterion terms and their sum, in nats."""

    cluster_number_prior: float
    partition_prior: float
    cocluster_prior: float
    source_margin_prior: float
    target_margin_prior: float
    cocluster_likelihood: float
    source_degree_likelihood: float
    target_degree_likelihood: float
    total: float

    @classmethod
    def from_terms(cls, terms) -> "CriterionBreakdown":
        terms = tuple(float(t) for t in terms)
        return cls(*terms, total=float(sum(terms)))

    @property
    def likelihood_total(self) -> float:
        """Sum of the three likelihood terms (no prior terms)."""
        return (
            self.cocluster_likelihood
            + self.source_degree_likelihood
            + self.target_degree_likelihood
        )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _TERM_NAMES + ("total",)}


def _normalize_partition(partition, labels, n, what) -> np.ndarray:
    """Accept an assignment array or an iterable of clusters (labels/indices)."""
    part = partition if isinstance(partition, np.ndarray) else list(partition)
    if len(part) and isinstance(part[0], (list, tuple, set, frozenset)):
        label_index = {lab: i for i, lab in enumerate(labels)}
        assign = -np.ones(n, dtype=np.int64)
        for cid, cluster in enumerate(part):
            for v in cluster:
                idx = label_index[v] if isinstance(v, str) else int(v)
                if not 0 <= idx < n:
                    raise ModelError(f"{what} vertex {v!r} out of range")
                if assign[idx] != -1:
                    raise ModelError(f"{what} vertex {v!r} assigned twice")
                assign[idx] = cid
    else:
        # a copy: the model never shares its assignment with the caller
        assign = np.array(part, dtype=np.int64)
        if assign.shape != (n,):
            raise ModelError(f"{what} assignment must cover all {n} vertices")
    if np.any(assign < 0):
        raise ModelError(f"{what} partition does not cover every vertex")
    # n vertices fill at most n clusters: a larger id leaves one empty
    k = int(assign.max()) + 1
    if k > n or np.any(np.bincount(assign, minlength=k) == 0):
        raise ModelError(f"{what} partition has an empty cluster")
    return assign


def _check_side(side):
    if side not in ("source", "target"):
        raise ModelError(f"side must be 'source' or 'target', got {side!r}")


class Coclustering:
    """A source/target partition pair with cached counts over a sample."""

    def __init__(self, sample: MultigraphSample, source_assignment, target_assignment):
        self.sample = sample
        self.source_assignment = _normalize_partition(
            source_assignment, sample.source_labels, sample.n_source, "source"
        )
        self.target_assignment = _normalize_partition(
            target_assignment, sample.target_labels, sample.n_target, "target"
        )
        self.k_source = int(self.source_assignment.max()) + 1
        self.k_target = int(self.target_assignment.max()) + 1
        self.source_cluster_sizes = np.bincount(self.source_assignment, minlength=self.k_source)
        self.target_cluster_sizes = np.bincount(self.target_assignment, minlength=self.k_target)

        flat = (
            self.source_assignment[sample.src_idx] * self.k_target
            + self.target_assignment[sample.tgt_idx]
        )
        grid = int_bincount(flat, sample.counts, self.k_source * self.k_target).reshape(self.k_source, -1)
        self.cocluster_grid = grid
        self.source_cluster_margins = grid.sum(axis=1)
        self.target_cluster_margins = grid.sum(axis=0)
        self._criterion: CriterionBreakdown | None = None

    def _cells(self) -> list[list[int]]:
        """[i, j, count] of every nonzero grid cell, in ascending (i, j) order."""
        i, j = np.nonzero(self.cocluster_grid)
        return np.column_stack([i, j, self.cocluster_grid[i, j]]).tolist()

    # -- evaluation --------------------------------------------------------

    def criterion(self) -> CriterionBreakdown:
        if self._criterion is None:
            self._criterion = CriterionBreakdown.from_terms(Engine(self).criterion_terms())
        return self._criterion

    # -- edits ---------------------------------------------------------------

    def merge(self, side: str, a: int, b: int):
        """Fuse clusters a and b on `side`; returns (new model, criterion delta)."""
        _check_side(side)
        k = self.k_source if side == "source" else self.k_target
        if a == b or not (0 <= a < k and 0 <= b < k):
            raise ModelError(f"invalid {side} cluster pair ({a}, {b})")
        eng = Engine(self)
        delta = eng.merge_struct(side, a, b) + eng.merge_global(side)
        eng.apply_merge(side, a, b)
        return Coclustering(self.sample, *eng.assignments()), float(delta)

    def move(self, side: str, vertex: int, dest):
        """Move a vertex to cluster `dest` (or NEW_CLUSTER); returns (model, delta).

        The delta is the sweeps' move delta.  A move into a fresh cluster is
        scored as minus the move back into the vertex's old cluster.
        """
        _check_side(side)
        n = self.sample.n_source if side == "source" else self.sample.n_target
        k = self.k_source if side == "source" else self.k_target
        if not 0 <= vertex < n:
            raise ModelError(f"{side} vertex {vertex} out of range")
        fresh = dest == NEW_CLUSTER
        if not fresh and not 0 <= dest < k:
            raise ModelError(f"invalid {side} destination cluster {dest}")
        assign = self.source_assignment if side == "source" else self.target_assignment
        a = int(assign[vertex])
        if not fresh and dest == a:
            return self, 0.0
        new = assign.copy()
        new[vertex] = k if fresh else dest
        # close the gap that an emptied cluster leaves
        new = np.unique(new, return_inverse=True)[1]
        s, t = (new, self.target_assignment) if side == "source" else (self.source_assignment, new)
        moved = Coclustering(self.sample, s, t)
        if not fresh:
            delta = _move_delta(self, side, vertex, dest)
        elif np.count_nonzero(assign == a) > 1:
            delta = -_move_delta(moved, side, vertex, a)
        else:
            delta = 0.0  # a singleton into a fresh cluster is a relabelling
        return moved, delta

    # -- audits ---------------------------------------------------------------

    def verify_consistent(self, sample: MultigraphSample):
        """Recompute all counts from `sample` and compare (consistency audit)."""
        if sample.n_source != self.sample.n_source or sample.n_target != self.sample.n_target:
            raise AuditError("consistency audit failed: vertex universes differ")
        other = Coclustering(sample, self.source_assignment, self.target_assignment)
        if not np.array_equal(other.cocluster_grid, self.cocluster_grid):
            raise AuditError("consistency audit failed: cocluster counts differ")
        if not np.array_equal(sample.out_degrees, self.sample.out_degrees) or not np.array_equal(
            sample.in_degrees, self.sample.in_degrees
        ):
            raise AuditError("consistency audit failed: vertex degrees differ")

    def clusters(self, side: str) -> list[list[str]]:
        _check_side(side)
        labels = self.sample.source_labels if side == "source" else self.sample.target_labels
        assign = self.source_assignment if side == "source" else self.target_assignment
        k = self.k_source if side == "source" else self.k_target
        out: list[list[str]] = [[] for _ in range(k)]
        for idx, cid in enumerate(assign):
            out[cid].append(labels[idx])
        return out

    # -- serialization ------------------------------------------------------------

    def to_dict(self, seed=None) -> dict:
        from . import __version__

        return {
            "format_version": 1,
            "tool_version": __version__,
            "seed": seed,
            "source_labels": self.sample.source_labels,
            "target_labels": self.sample.target_labels,
            "unified": self.sample.unified,
            "source_assignment": self.source_assignment.tolist(),
            "target_assignment": self.target_assignment.tolist(),
            "source_clusters": self.clusters("source"),
            "target_clusters": self.clusters("target"),
            "cocluster_counts": self._cells(),
            "criterion": self.criterion().to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict, sample: MultigraphSample) -> "Coclustering":
        """The model that `to_dict` wrote, over `sample`; its `cocluster_counts` are audited
        whenever the key is present, whatever its value, and a file without the key loads unaudited."""
        source_labels, target_labels, _ = model_header(data)
        if source_labels != sample.source_labels or target_labels != sample.target_labels:
            raise ModelError("model labels do not match the sample")
        model = cls(
            sample,
            _int_array(data, "source_assignment", 1, "cluster ids"),
            _int_array(data, "target_assignment", 1, "cluster ids"),
        )
        if "cocluster_counts" in data:
            stored = _stored_grid(_int_array(data, "cocluster_counts", 2, "[i, j, count] cells"),
                                  model.cocluster_grid.shape)
            if stored is None or not np.array_equal(stored, model.cocluster_grid):
                raise AuditError("consistency audit failed: stored cocluster counts differ from the sample")
        return model

    def __repr__(self):
        return f"Coclustering(k_source={self.k_source}, k_target={self.k_target}, m={self.sample.m})"


def _move_delta(model: Coclustering, side: str, vertex: int, dest: int) -> float:
    """Delta of moving `vertex` into the existing cluster `dest`, scored as a sweep scores it."""
    eng = Engine(model)
    own = np.flatnonzero(eng.sides[side].idx == vertex)
    _, dests, deltas = eng.move_options(side, vertex, eng.vertex_profiles(side, own)[vertex])
    return float(deltas[dests == dest][0])


def model_header(data) -> tuple[list[str], list[str], bool]:
    """The source labels, target labels and `unified` flag of a model dict.

    They say how to read the model's edge file, so they are checked before
    it is read; a malformed field raises a ModelError that names it.
    """
    if not isinstance(data, dict):
        raise ModelError("model JSON must be an object")
    for name in ("source_labels", "target_labels"):
        labels = data.get(name)
        if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
            raise ModelError(f"{name} must list the vertex labels as strings")
    unified = data.get("unified", False)
    if not isinstance(unified, bool):
        raise ModelError(f"unified must be true or false, got {unified!r}")
    return data["source_labels"], data["target_labels"], unified


def _int_array(data: dict, name: str, ndim: int, what: str) -> np.ndarray:
    """data[name] as an `ndim`-dimensional int64 array; a ModelError names the field otherwise.

    JSON floats, booleans, strings, nulls and integers beyond int64 are
    all rejected, never truncated or wrapped.
    """
    if name not in data:
        raise ModelError(f"model has no {name}")
    try:
        values = np.array(data[name])
    except ValueError:  # ragged nesting
        values = np.array(None)
    if values.ndim != ndim or values.size and values.dtype != np.int64:
        raise ModelError(f"{name} must list {what} as int64 integers")
    return values.astype(np.int64)


def _stored_grid(stored: np.ndarray, shape) -> np.ndarray | None:
    """The grid of stored [i, j, count] cells, or None if no grid of `shape`
    holds them, each cell once."""
    if stored.shape[1] != 3:
        raise ModelError("cocluster_counts must list [i, j, count] cells")
    i, j, c = stored.T
    if np.any((i < 0) | (i >= shape[0]) | (j < 0) | (j >= shape[1]) | (c <= 0)):
        return None
    grid = np.zeros(shape, dtype=np.int64)
    grid[i, j] = c
    # a repeated cell would keep only its last count
    if np.count_nonzero(grid) != len(stored):
        return None
    return grid


def from_partitions(sample, source_partition, target_partition) -> Coclustering:
    """Build a model from explicit partitions (assignment arrays or label clusters)."""
    return Coclustering(sample, source_partition, target_partition)


def null_model(sample: MultigraphSample) -> Coclustering:
    """One cluster per side."""
    return Coclustering(
        sample, np.zeros(sample.n_source, dtype=np.int64), np.zeros(sample.n_target, dtype=np.int64)
    )


def maximal_model(sample: MultigraphSample) -> Coclustering:
    """One cluster per vertex."""
    return Coclustering(
        sample, np.arange(sample.n_source, dtype=np.int64), np.arange(sample.n_target, dtype=np.int64)
    )
