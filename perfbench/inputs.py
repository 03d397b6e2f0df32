"""Seeded benchmark inputs and planted-partition scoring.

Everything here is the benchmark's own: the program only ever receives the
TSV text and model files written from these inputs.  The skewed family
lives here rather than in `modlcc.synthgen` because it exists to exercise
a known defect, not to model a graph family from the paper.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from modlcc import from_partitions
from modlcc.synthgen import gen_block_diagonal

# ROADMAP's reference fit, and the fit command that runs on it.
FIT_LARGE = dict(n=1000, blocks=5, noise=0.5, m=100_000)
FIT_LARGE_ROUNDS = 4

# Half of fit-batch: the cluster-recovery family of `modlcc bench clusters`.
RECOVERY = dict(n=10, blocks=2, noise=0.0, sizes=(50, 100, 200, 400, 800))
# The other half: small graphs whose edges sit on the first half of the
# rows and columns, plus a few uniform stray edges.  On these, the shared
# log-factorial table can be too short for a merged cocluster cell.
SKEWED = dict(n=(2, 11), dense_edges=(300, 3000), stray_edges=(1, 60))
BATCH_ROUNDS = 3

EXPLORE = dict(n=4000, blocks=64, noise=0.3, m=300_000)
EXPLORE_CLUSTERS = (8, 8)


@dataclass
class BatchGraph:
    """One fit-batch input: TSV text plus the planted group of each label."""

    family: str
    text: str
    unify: bool
    source_groups: dict[str, int]
    target_groups: dict[str, int]
    edges: int = 0  # total edge count


def planted_model(sample, source_groups, target_groups):
    """The planted partition of a parsed sample, clusters renumbered 0..k-1."""
    parts = []
    for labels, groups in (
        (sample.source_labels, source_groups),
        (sample.target_labels, target_groups),
    ):
        raw = np.array([groups[lab] for lab in labels], dtype=np.int64)
        parts.append(np.unique(raw, return_inverse=True)[1])
    return from_partitions(sample, parts[0], parts[1])


def block_diagonal(n, blocks, noise, m, seed):
    """`gen_block_diagonal` plus the seconds it took: (sample, blocks, seconds)."""
    t = time.perf_counter()
    sample, labels = gen_block_diagonal(n, blocks, noise, m, seed)
    return sample, labels, time.perf_counter() - t


def block_groups(labels, blocks) -> dict[str, int]:
    """Generator labels are `v<index>`: map each to its planted block."""
    return {lab: int(blocks[int(lab[1:])]) for lab in labels}


def skewed_graph(rng) -> BatchGraph:
    lo, hi = SKEWED["n"]
    n_s, n_t = (int(v) for v in rng.integers(lo, hi + 1, size=2))
    h_s, h_t = max(1, n_s // 2), max(1, n_t // 2)
    dense = int(rng.integers(SKEWED["dense_edges"][0], SKEWED["dense_edges"][1] + 1))
    stray = int(rng.integers(SKEWED["stray_edges"][0], SKEWED["stray_edges"][1] + 1))
    counts = np.zeros((n_s, n_t), dtype=np.int64)
    np.add.at(counts, (rng.integers(0, h_s, dense), rng.integers(0, h_t, dense)), 1)
    np.add.at(counts, (rng.integers(0, n_s, stray), rng.integers(0, n_t, stray)), 1)
    lines = [f"s{i}\tt{j}\t{counts[i, j]}\n" for i, j in zip(*np.nonzero(counts))]
    return BatchGraph(
        family="skewed",
        text="".join(lines),
        unify=False,
        source_groups={f"s{i}": int(i >= h_s) for i in range(n_s)},
        target_groups={f"t{j}": int(j >= h_t) for j in range(n_t)},
        edges=dense + stray,
    )


def recovery_graph(rng):
    """A cluster-recovery graph and the seconds `gen_block_diagonal` took."""
    m = int(rng.choice(RECOVERY["sizes"]))
    seed = int(rng.integers(2**63))
    p = RECOVERY
    sample, blocks, gen_s = block_diagonal(p["n"], p["blocks"], p["noise"], m, seed)
    groups = block_groups(sample.source_labels, blocks)
    return BatchGraph("recovery", sample.serialize(), True, groups, groups, m), gen_s


def batch_graphs(seed: int, count: int):
    """`count` graphs, half from each family, drawn from the seed and listed
    by ascending edge count, as `modlcc bench` sweeps its sizes; returns
    (graphs, seconds spent in synthgen).

    The order matters for the skewed half.  Which of its fits fail depends on
    how far the shared log-factorial table has grown, and the table doubles
    from its size when it is too short.  In ascending order it grows along
    one path, 1025 -> 2050 -> 4100 entries, on every seed.  In a shuffled
    order the first large graph sets its size, and a seed fails either about
    3% or about 7.5% of its fits.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    graphs, gen_s = [], 0.0
    for _ in range(count - count // 2):
        g, s = recovery_graph(rng)
        graphs.append(g)
        gen_s += s
    graphs += [skewed_graph(rng) for _ in range(count // 2)]
    graphs.sort(key=lambda g: g.edges)
    return graphs, gen_s


def write_edges(path: str, sample):
    """One `source<TAB>target` line per edge, as `modlcc generate` writes them."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(sample.expand_lines())


def fit_large_input(seed: int, workdir: str):
    """Write the fit-large edge file; returns ((path, planted groups by
    label), seconds spent in synthgen)."""
    p = FIT_LARGE
    sample, blocks, gen_s = block_diagonal(p["n"], p["blocks"], p["noise"], p["m"], seed)
    path = os.path.join(workdir, "large.tsv")
    write_edges(path, sample)
    return (path, block_groups(sample.source_labels, blocks)), gen_s


def explore_input(seed: int, workdir: str):
    """Write the explore edge file and the planted 64x64 model file; returns
    ((edge path, model path), seconds spent in synthgen)."""
    p = EXPLORE
    sample, blocks, gen_s = block_diagonal(p["n"], p["blocks"], p["noise"], p["m"], seed)
    edges = os.path.join(workdir, "explore.tsv")
    write_edges(edges, sample)
    model = os.path.join(workdir, "planted.json")
    doc = from_partitions(sample, blocks, blocks).to_dict(seed=seed)
    with open(model, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return (edges, model), gen_s
