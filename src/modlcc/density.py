"""Edge-density estimators, entropy/mutual-information metrics and modularity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MultigraphSample, int64_array
from .model import Coclustering, null_model

__all__ = [
    "DensityEstimate",
    "MetricsReport",
    "estimate_density",
    "baseline_estimator",
    "information_metrics",
    "modularity",
    "modl_mi_estimate",
]


class DensityEstimate:
    """Piecewise-constant edge probabilities derived from a coclustering.

    p(i, j) factors into the cocluster probability times the within-cluster
    vertex weights of the two endpoints; it is 0 on empty coclusters.
    """

    def __init__(self, model: Coclustering):
        self.model = model
        sample = model.sample
        m = sample.m
        self.p_cocluster = model.cocluster_grid / m
        s_mar = model.source_cluster_margins[model.source_assignment].astype(np.float64)
        t_mar = model.target_cluster_margins[model.target_assignment].astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.p_source_within = np.where(s_mar > 0, sample.out_degrees / s_mar, 0.0)
            self.p_target_within = np.where(t_mar > 0, sample.in_degrees / t_mar, 0.0)

    def p(self, i: int, j: int) -> float:
        sample = self.model.sample
        if not (0 <= i < sample.n_source and 0 <= j < sample.n_target):
            raise IndexError(f"vertex pair ({i}, {j}) out of range")
        cc = self.p_cocluster[self.model.source_assignment[i], self.model.target_assignment[j]]
        return float(cc * self.p_source_within[i] * self.p_target_within[j])

    def matrix(self) -> np.ndarray:
        """Dense n_source x n_target probability grid."""
        cc = self.p_cocluster[np.ix_(self.model.source_assignment, self.model.target_assignment)]
        return cc * np.outer(self.p_source_within, self.p_target_within)


class _BaselineDensity:
    def __init__(self, sample: MultigraphSample, kind: str):
        self.sample = sample
        self.kind = kind

    def p(self, i: int, j: int) -> float:
        s = self.sample
        if not (0 <= i < s.n_source and 0 <= j < s.n_target):
            raise IndexError(f"vertex pair ({i}, {j}) out of range")
        c = s.edges.get((i, j), 0)
        if self.kind == "empirical":
            return c / s.m
        return (c + 1) / (s.m + s.n_source * s.n_target)

    def matrix(self) -> np.ndarray:
        s = self.sample
        grid = np.zeros((s.n_source, s.n_target))
        grid[s.src_idx, s.tgt_idx] = s.counts
        if self.kind == "empirical":
            return grid / s.m
        return (grid + 1.0) / (s.m + s.n_source * s.n_target)


def estimate_density(model: Coclustering) -> DensityEstimate:
    return DensityEstimate(model)


def baseline_estimator(sample: MultigraphSample, kind: str):
    """Baseline cell-probability estimators: `empirical` or `laplace`."""
    if kind not in ("empirical", "laplace"):
        raise ValueError(f"kind must be 'empirical' or 'laplace', got {kind!r}")
    return _BaselineDensity(sample, kind)


@dataclass
class MetricsReport:
    """Entropy and dependence measures of a joint edge distribution, in nats."""

    entropy_source: float
    entropy_target: float
    joint_entropy: float
    mutual_information: float
    modularity: float | None = None
    modl_mi: float | None = None
    modl_mi_likelihood: float | None = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def information_metrics(joint) -> MetricsReport:
    """Entropies and mutual information of a joint probability grid.

    The grid must be non-negative and sum to 1 within 1e-6 (it is rescaled
    internally); 0 log 0 is taken as 0.  A model's `DensityEstimate` is
    measured in closed form instead, without building its grid.
    """
    if isinstance(joint, DensityEstimate):
        return _factored_metrics(joint)
    p = np.asarray(getattr(joint, "matrix", lambda: joint)(), dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("negative probability in joint grid")
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"joint grid sums to {total}, expected 1 within 1e-6")
    p = p / total
    ps = p.sum(axis=1)
    pt = p.sum(axis=0)
    h_s, h_t, h_j = _entropy(ps), _entropy(pt), _entropy(p)
    return MetricsReport(
        entropy_source=h_s,
        entropy_target=h_t,
        joint_entropy=h_j,
        mutual_information=h_s + h_t - h_j,
    )


def _within_entropy(p: np.ndarray, within: np.ndarray) -> float:
    """sum_i p_i * -log(within_i) over the vertices with p_i > 0."""
    nz = p > 0
    return float(-(p[nz] * np.log(within[nz])).sum())


def _factored_metrics(est: DensityEstimate) -> MetricsReport:
    """Metrics of p(i, j) = P(I, J) p(i | I) p(j | J) in O(n + kS * kT).

    Its margins are the degree distributions, so H(i) and H(j) are those of
    the degrees, and H(i, j) = H(I, J) + H(i | I) + H(j | J), where
    H(i | I) = sum_i (d_i / m) * -log(d_i / m_I); MI(i; j) is then MI(I; J).
    """
    sample = est.model.sample
    ps = sample.out_degrees / sample.m
    pt = sample.in_degrees / sample.m
    h_s, h_t = _entropy(ps), _entropy(pt)
    h_j = (_entropy(est.p_cocluster) + _within_entropy(ps, est.p_source_within)
           + _within_entropy(pt, est.p_target_within))
    return MetricsReport(h_s, h_t, h_j, h_s + h_t - h_j)


def sparse_information_metrics(sample: MultigraphSample) -> MetricsReport:
    """Empirical-plug-in metrics of a sample without materializing the grid."""
    m = sample.m
    pj = sample.counts / m
    h_j = _entropy(pj)
    h_s = _entropy(sample.out_degrees / m)
    h_t = _entropy(sample.in_degrees / m)
    return MetricsReport(h_s, h_t, h_j, h_s + h_t - h_j)


def modularity(sample: MultigraphSample, partition) -> float:
    """Newman modularity of one partition of the unified vertex set.

    The sample must be ingested in symmetric-directed form, so that the
    edge total is twice the number of undirected edges.
    """
    if not sample.unified:
        raise ValueError("modularity requires a unified vertex space")
    n = sample.n_source
    assign = np.asarray(partition)
    if assign.shape != (n,):
        raise ValueError(f"partition must cover all {n} vertices")
    if (assign := int64_array(assign)) is None:
        raise ValueError("partition must hold int64 cluster ids")
    k = int(assign.max()) + 1
    m = sample.m
    same = assign[sample.src_idx] == assign[sample.tgt_idx]
    within = sample.counts[same].sum() / m
    out_c = np.bincount(assign, weights=sample.out_degrees, minlength=k)
    in_c = np.bincount(assign, weights=sample.in_degrees, minlength=k)
    expected = (out_c * in_c).sum() / (m * m)
    return float(within - expected)


def modl_mi_estimate(fit, sample: MultigraphSample) -> tuple[float, float]:
    """Mutual-information estimates from a fit: criterion gap to the null
    model per edge, full-criterion and likelihood-terms-only variants."""
    best = fit.best_criterion if hasattr(fit, "best_criterion") else fit.criterion()
    null = null_model(sample).criterion()
    m = sample.m
    full = (null.total - best.total) / m
    lh_only = (null.likelihood_total - best.likelihood_total) / m
    return full, lh_only
