"""Seeded generators for the artificial graph families used in the benchmarks.

Every generator returns a MultigraphSample whose vertex universe covers all
n vertices (zero-degree vertices included), plus the family's ground truth:
the exact cell-probability table or the planted cluster labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import MultigraphSample

__all__ = [
    "GeneratorError",
    "GeneratorSpec",
    "gen_circular",
    "gen_block_diagonal",
    "gen_blockmodel",
    "gen_undirected_pattern",
    "TABLE_BLOCKMODEL_MATRIX",
    "TABLE_BLOCKMODEL_SIZES",
]


class GeneratorError(ValueError):
    """Invalid generator parameters or degenerate output."""


# default 3-cluster blockmodel: cluster sizes 30/40/30, cell probabilities
TABLE_BLOCKMODEL_SIZES = (30, 40, 30)
TABLE_BLOCKMODEL_MATRIX = (
    (0.30, 0.00, 0.00),
    (0.00, 0.10, 0.30),
    (0.00, 0.30, 0.00),
)


@dataclass
class GeneratorSpec:
    family: str  # circular | block_diagonal | blockmodel | undirected_pattern
    m: int = 0
    seed: int = 0
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"family": self.family, "m": self.m, "seed": self.seed, "params": dict(self.params)}


def _labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"v{i:0{width}d}" for i in range(n)]


def _sample_from_cells(n, src, tgt):
    """Unified sample of the edges (src[e], tgt[e]) over n vertices, counted here into sorted
    cells, which the sample keeps without a sort: less memory than its sum of unit edges."""
    cells, counts = np.unique(src * n + tgt, return_counts=True)
    labels = _labels(n)
    return MultigraphSample(labels, labels, (*np.divmod(cells, n), counts), unified=True)


def circular_probability_table(n: int) -> np.ndarray:
    """Exact cell probabilities of the circular random graph on n vertices."""
    idx = np.arange(n)
    x = np.cos(2 * np.pi * idx / n)
    y = np.sin(2 * np.pi * idx / n)
    d = np.sqrt((x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2)
    np.fill_diagonal(d, 2.0 / n)  # self-loop distance, extended by continuity
    inv = 1.0 / d
    return inv / inv.sum()


def gen_circular(n: int, m: int, seed) -> tuple[MultigraphSample, np.ndarray]:
    """Directed multigraph with edge probability inversely proportional to
    the circle distance of the endpoints; returns (sample, true p table)."""
    if n < 2:
        raise GeneratorError("circular family requires n >= 2")
    if m < 1:
        raise GeneratorError("m must be >= 1")
    p = circular_probability_table(n)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(m, p.ravel()).reshape(n, n)
    src_nz, tgt_nz = np.nonzero(counts)
    reps = counts[src_nz, tgt_nz]
    sample = _sample_from_cells(n, np.repeat(src_nz, reps), np.repeat(tgt_nz, reps))
    return sample, p


def _block_assignment(n: int, k: int) -> np.ndarray:
    """Near-equal split: the first n % k blocks get one extra vertex."""
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.repeat(np.arange(k), sizes)


def gen_block_diagonal(n: int, k: int, noise_rate: float, m: int, seed):
    """Block-diagonal directed multigraph with uniform background noise.

    Each edge is uniform over the full grid with probability `noise_rate`,
    otherwise a uniform source vertex with a uniform target in its block.
    Returns (sample, block labels per vertex).
    """
    if k < 1:
        raise GeneratorError(f"block count {k} must be >= 1")
    if k > n:
        raise GeneratorError(f"block count {k} exceeds vertex count {n}")
    if not 0.0 <= noise_rate <= 1.0:
        raise GeneratorError("noise_rate must be in [0, 1]")
    if m < 1:
        raise GeneratorError("m must be >= 1")
    blocks = _block_assignment(n, k)
    starts = np.searchsorted(blocks, np.arange(k))
    sizes = np.bincount(blocks, minlength=k)
    rng = np.random.default_rng(seed)
    is_noise = rng.random(m) < noise_rate
    src = rng.integers(0, n, size=m)
    tgt = np.empty(m, dtype=np.int64)
    tgt[is_noise] = rng.integers(0, n, size=int(is_noise.sum()))
    structured = ~is_noise
    b = blocks[src[structured]]
    tgt[structured] = starts[b] + rng.integers(0, sizes[b])
    sample = _sample_from_cells(n, src, tgt)
    return sample, blocks


def gen_blockmodel(matrix=None, cluster_sizes=None, m: int = 1, seed=0):
    """Directed multigraph from a cluster-pair probability matrix, with
    uniform endpoints within clusters; returns (sample, (src, tgt) labels)."""
    matrix = np.asarray(matrix if matrix is not None else TABLE_BLOCKMODEL_MATRIX, dtype=np.float64)
    sizes = np.asarray(cluster_sizes if cluster_sizes is not None else TABLE_BLOCKMODEL_SIZES, dtype=np.int64)
    k = len(sizes)
    if matrix.shape != (k, k):
        raise GeneratorError(f"matrix shape {matrix.shape} does not match {k} clusters")
    if np.any(matrix < 0) or abs(matrix.sum() - 1.0) > 1e-9:
        raise GeneratorError("probability matrix entries must be non-negative and sum to 1")
    if m < 1:
        raise GeneratorError("m must be >= 1")
    n = int(sizes.sum())
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    labels = np.repeat(np.arange(k), sizes)
    rng = np.random.default_rng(seed)
    pair = rng.choice(k * k, size=m, p=matrix.ravel())
    bs, bt = pair // k, pair % k
    src = starts[bs] + rng.integers(0, sizes[bs])
    tgt = starts[bt] + rng.integers(0, sizes[bt])
    sample = _sample_from_cells(n, src, tgt)
    return sample, (labels, labels)


def gen_undirected_pattern(cluster_count: int, cluster_size: int, intra: float, inter: float, seed):
    """Simple undirected graph (no loops, at most one edge per pair) with
    per-cocluster edge proportions, emitted as a symmetric directed sample.

    Returns (sample, cluster labels per vertex).
    """
    if cluster_count < 1 or cluster_size < 1:
        raise GeneratorError("cluster count and cluster size must be >= 1")
    for p, name in ((intra, "intra"), (inter, "inter")):
        if not 0.0 <= p <= 1.0:
            raise GeneratorError(f"{name} proportion must be in [0, 1]")
    n = cluster_count * cluster_size
    labels = np.repeat(np.arange(cluster_count), cluster_size)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    p_pair = np.where(labels[iu] == labels[ju], intra, inter)
    keep = rng.random(len(iu)) < p_pair
    if not keep.any():
        raise GeneratorError("no edges")
    src = np.concatenate([iu[keep], ju[keep]])
    tgt = np.concatenate([ju[keep], iu[keep]])
    sample = _sample_from_cells(n, src, tgt)
    return sample, labels


def generate(spec: GeneratorSpec):
    """Dispatch a GeneratorSpec; returns (sample, ground_truth)."""
    p = spec.params
    if spec.family == "circular":
        return gen_circular(p["n"], spec.m, spec.seed)
    if spec.family == "block_diagonal":
        return gen_block_diagonal(p["n"], p["blocks"], p.get("noise_rate", 0.0), spec.m, spec.seed)
    if spec.family == "blockmodel":
        return gen_blockmodel(p.get("matrix"), p.get("cluster_sizes"), spec.m, spec.seed)
    if spec.family == "undirected_pattern":
        return gen_undirected_pattern(
            p["cluster_count"], p["cluster_size"], p["intra"], p["inter"], spec.seed
        )
    raise GeneratorError(f"unknown family {spec.family!r}")
