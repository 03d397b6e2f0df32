"""Agglomerative coarsening of a fitted coclustering into a dendrogram."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._engine import Engine
from .model import Coclustering
from .optimizer import _merges

__all__ = ["MergeRecord", "Dendrogram", "build_dendrogram", "cut"]


@dataclass(frozen=True)
class MergeRecord:
    side: str
    a: int  # cluster ids in the model at this step, a < b
    b: int
    delta: float
    criterion: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class Dendrogram:
    initial_model: Coclustering
    merges: list[MergeRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "initial_k_source": self.initial_model.k_source,
            "initial_k_target": self.initial_model.k_target,
            "initial_criterion": self.initial_model.criterion().total,
            "merges": [rec.to_dict() for rec in self.merges],
        }


def build_dendrogram(model: Coclustering) -> Dendrogram:
    """Greedy minimum-delta merge sequence from `model` down to one cluster per side.

    Both sides compete at every step; deltas are criterion differences and
    are recorded verbatim (they can be negative if the input model was not
    merge-optimal).
    """
    eng = Engine(model)
    total = eng.criterion_total()
    merges: list[MergeRecord] = []
    for delta, side, a, b in _merges(eng):
        # delta is scored afresh from the counts, not read from the merge
        # loop's incremental caches, so the path matches an exhaustive scan
        # and each delta equals `Coclustering.merge`'s for the same merge
        total += delta
        merges.append(MergeRecord(side=side, a=a, b=b, delta=float(delta), criterion=float(total)))
    return Dendrogram(initial_model=model, merges=merges)


def cut(dendrogram: Dendrogram, target_source_clusters: int, target_target_clusters: int) -> Coclustering:
    """Model at the earliest merge-sequence state where both cluster counts
    are at or below the requested targets.

    The greedy sequence may skip the exact requested pair; the returned
    model's actual counts are its `k_source`/`k_target`.
    """
    model = dendrogram.initial_model
    if not (1 <= target_source_clusters <= model.k_source):
        raise ValueError(f"target source clusters must be in 1..{model.k_source}")
    if not (1 <= target_target_clusters <= model.k_target):
        raise ValueError(f"target target clusters must be in 1..{model.k_target}")
    assign = {"source": model.source_assignment.copy(), "target": model.target_assignment.copy()}
    k = {"source": model.k_source, "target": model.k_target}
    for rec in dendrogram.merges:
        if k["source"] <= target_source_clusters and k["target"] <= target_target_clusters:
            break
        # fuse b into a (a < b), then close the gap so ids stay 0..k-1
        x = assign[rec.side]
        x[x == rec.b] = rec.a
        x -= x > rec.b
        k[rec.side] -= 1
    return Coclustering(model.sample, assign["source"], assign["target"])
