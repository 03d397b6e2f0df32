"""Model-space search: random initial solutions, greedy bottom-up merging,
vertex-move post-optimization and multi-start selection of the best model."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._engine import OTHER_SIDE, Engine, shift_out
from .model import Coclustering, CriterionBreakdown, null_model

__all__ = [
    "FitConfig",
    "RoundLog",
    "FitResult",
    "initial_solution",
    "gbum",
    "post_optimize",
    "vns_fit",
]


@dataclass
class FitConfig:
    rounds: int = 10
    seed: int = 0
    # vertex-move passes before and after the merges of each round
    post_opt_passes: ClassVar[int] = 2

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass
class RoundLog:
    round: int
    seed: int
    initial_k_source: int
    initial_k_target: int
    final_k_source: int
    final_k_target: int
    criterion: float
    seconds: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class FitResult:
    best_model: Coclustering
    best_criterion: CriterionBreakdown
    rounds: list[RoundLog] = field(default_factory=list)
    config: FitConfig | None = None

    def to_dict(self, seed=None) -> dict:
        d = self.best_model.to_dict(seed=seed if seed is not None else getattr(self.config, "seed", None))
        # wall times stay out of the file so identical runs serialize identically
        d["fit_log"] = [
            {k: v for k, v in r.to_dict().items() if k != "seconds"} for r in self.rounds
        ]
        return d


def initial_solution(sample, max_clusters: int, seed) -> Coclustering:
    """Seeded uniform random partition into at most `max_clusters` clusters per side."""
    if max_clusters < 1:
        raise ValueError("max_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    parts = []
    for n in (sample.n_source, sample.n_target):
        k = min(max_clusters, n)
        assign = rng.integers(0, k, size=n)
        # force every cluster to be non-empty so the solution spans exactly
        # k clusters (moves and merges can only reduce the count afterwards)
        seeds = rng.permutation(n)[:k]
        assign[seeds] = np.arange(k)
        parts.append(assign)
    return Coclustering(sample, parts[0], parts[1])


# -- greedy bottom-up merging --------------------------------------------------


def _cluster_costs(eng: Engine, side: str, clusters):
    """k-independent criterion share of `clusters` on `side`.

    Merging clusters a and b changes the criterion by
    cost(a + b) - cost(a) - cost(b), plus `Engine.merge_global`.
    """
    s = eng.sides[side]
    m, n = s.margin[clusters], s.sizes[clusters]
    return eng.lf[m] + eng._lnC(m + n - 1, n - 1) - eng.lf[eng.rows(side)[clusters]].sum(axis=-1)


def _pair_deltas(eng: Engine, side: str, D: np.ndarray, c, others: np.ndarray, cost: np.ndarray):
    """Write the k-independent merge deltas of cluster c with each of `others` into D.

    D[a, b] holds the delta of the pair for a < b; every other entry is inf.
    `cost` holds `_cluster_costs` of the current counts, by cluster.
    """
    s, M = eng.sides[side], eng.rows(side)
    lf = eng.lf
    m = s.margin[c] + s.margin[others]
    n = s.sizes[c] + s.sizes[others]
    merged = lf[m] + eng._lnC(m + n - 1, n - 1) - lf[M[c] + M[others]].sum(axis=1)
    D[np.minimum(c, others), np.maximum(c, others)] = merged - cost[c] - cost[others]


def _cross_side_correction(eng: Engine, D_full: np.ndarray, old_a, old_b):
    """Adjust the other side's pair deltas after a merge changed one row.

    `D_full` is the other side's pair matrix at its start size; the live
    pair matrix is its top-left block, so cluster ids index both alike.

    Only pairs of clusters that share nonzero cells with the merged rows
    are impacted; everything else keeps its delta.  With x, y the merged
    rows' cells and s = x + y on that support, the correction of pair (i, j)
    is u_i + u_j + lf[x_i + x_j] + lf[y_i + y_j] - lf[s_i + s_j], where
    u = lf[s] - lf[x] - lf[y]: three pairwise table gathers over the
    support, O(|support|^2), added to D through flat indices.  The result
    differs from a fresh `merge_struct` by rounding only, which
    `_best_merge` absorbs by scoring near-ties again.
    """
    lf = eng.lf
    support = np.flatnonzero((old_a != 0) | (old_b != 0))
    if len(support) < 2:
        return
    x, y = old_a[support], old_b[support]
    s = x + y
    u = lf[s] - lf[x] - lf[y]
    corr = u[:, None] + u
    # 2*r on the diagonal can run past the table; D's diagonal is never
    # read, so clipped lookups there are harmless
    corr += lf.take(x[:, None] + x, mode="clip")
    corr += lf.take(y[:, None] + y, mode="clip")
    corr -= lf.take(s[:, None] + s, mode="clip")
    flat = (support[:, None] * D_full.shape[1] + support).ravel()
    D_flat = D_full.reshape(-1)
    D_flat[flat] += corr.ravel()


def _best_merge(eng: Engine, D: dict) -> tuple:
    """Best merge left on either side as (criterion delta, side, a, b).

    The pair deltas in D carry rounding from their update history, so exact
    ties could fall either way.  Every pair within a relative 1e-9 of the
    best (far above that rounding) is scored again from the counts, one
    `Engine.merge_struct` call per side, and the first minimum in (side, a,
    b) order wins ("source" sorts first), as in a scan over all pairs; the
    returned delta is that fresh value.
    """
    low = {}  # side -> (smallest pair delta, merge_global)
    for side in ("source", "target"):
        if eng.sides[side].k > 1:
            low[side] = (D[side].min(), eng.merge_global(side))
    best = min(v + g for v, g in low.values())
    lim = best + 1e-9 * max(1.0, abs(best))
    near = []
    for side, (v, g) in low.items():
        if v + g <= lim:
            a, b = np.divmod(np.flatnonzero(D[side] <= lim - g), len(D[side]))
            deltas = eng.merge_struct(side, a, b) + g
            i = int(deltas.argmin())
            near.append((float(deltas[i]), side, int(a[i]), int(b[i])))
    return min(near)


def _merges(eng: Engine):
    """Greedy bottom-up merge sequence of `eng`, down to one cluster per side.

    Yields the best merge left on either side as (criterion delta, side,
    cluster a, cluster b) with a < b, and applies it when resumed; stop
    iterating to keep the engine where it is.  Pair deltas are kept
    incrementally, and the merged-away cluster's row and column of D are
    deleted as the engine deletes the cluster.  The start
    costs O(k^2 * k_other) per side.  Each merge then costs O(k * k_other)
    to score the surviving cluster's pairs afresh, O(s^2) to correct the
    other side's pairs, where s <= k_other is the number of other-side
    clusters with cells in the merged rows (`_cross_side_correction`), and
    one vectorized O(k^2) scan per side for the best pair.
    """
    D, cost = {}, {}
    for side in ("source", "target"):
        ids = np.arange(eng.sides[side].k)
        D[side] = np.full((len(ids), len(ids)), np.inf)
        cost[side] = _cluster_costs(eng, side, ids)
        for i in range(len(ids) - 1):
            _pair_deltas(eng, side, D[side], i, ids[i + 1 :], cost[side])
    # D shrinks as a view of its start buffer, whose flat indices are cheaper to write
    full = dict(D)
    while eng.sides["source"].k > 1 or eng.sides["target"].k > 1:
        best = _best_merge(eng, D)
        yield best
        _, side, a, b = best
        other = OTHER_SIDE[side]
        M = eng.rows(side)
        old_a, old_b = M[a].copy(), M[b].copy()
        eng.apply_merge(side, a, b)  # a < b, so a survives and b is deleted
        cost[side] = shift_out(cost[side], b)
        cost[side][a] = _cluster_costs(eng, side, a)
        # every other-side cluster had its counts at a and b fused
        cost[other] += eng.lf[old_a] + eng.lf[old_b] - eng.lf[old_a + old_b]
        D[side] = shift_out(shift_out(D[side], b).T, b).T
        others = np.arange(eng.sides[side].k)
        _pair_deltas(eng, side, D[side], a, others[others != a], cost[side])
        _cross_side_correction(eng, full[other], old_a, old_b)


def _gbum(eng: Engine):
    """Run greedy bottom-up merging in place until no merge improves."""
    for total, _, _, _ in _merges(eng):
        if not total < 0.0:
            break
    return eng


def gbum(model: Coclustering) -> Coclustering:
    """Greedy bottom-up merge heuristic: apply the best strictly-improving
    cluster merge until none improves the criterion."""
    eng = Engine(model)
    _gbum(eng)
    return Coclustering(model.sample, *eng.assignments())


# -- vertex-move post-optimization ----------------------------------------------


def _sweep(eng: Engine, side: str) -> bool:
    """One greedy best-move pass over all vertices of `side`; True if anything moved.

    Each vertex's cluster profile is built once per sweep, in one pass over
    the side's edges (`Engine.vertex_profiles`), and serves both its move
    deltas and its move.  The destination terms are kept from vertex to
    vertex until a move changes them.
    """
    # the other side's partition is frozen, so every profile holds all sweep
    moved = False
    s = eng.sides[side]
    dests = None
    for v, profile in enumerate(eng.vertex_profiles(side)):
        if s.k < 2:
            break
        if dests is None:
            dests = eng.dest_terms(side)
        deltas = eng._move_deltas(side, v, dests, profile)
        best = int(deltas.argmin())
        if deltas[best] < 0.0:
            eng.apply_move(side, v, best, profile)
            dests = None
            moved = True
    return moved


def _post_opt(eng: Engine, passes: int):
    for _ in range(passes):
        moved = _sweep(eng, "source")
        moved |= _sweep(eng, "target")
        if not moved:
            break
    return eng


def post_optimize(model: Coclustering, passes: int = 2) -> Coclustering:
    """Greedy vertex-move sweeps, alternating sides with the other partition frozen."""
    eng = Engine(model)
    _post_opt(eng, passes)
    return Coclustering(model.sample, *eng.assignments())


# -- multi-start -------------------------------------------------------------------


def vns_fit(sample, config: FitConfig | None = None) -> FitResult:
    """Multi-start search: per round, random initial solution, move
    pre-optimization, greedy merging, move post-optimization; keep the best."""
    config = config or FitConfig()
    r = math.isqrt(sample.m)
    max_init = r if r * r == sample.m else r + 1  # ceil(sqrt(m))
    if max_init < 2:
        # tiny samples: start from the maximal model so merging can explore
        max_init = max(sample.n_source, sample.n_target)
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.rounds)

    best_model = None
    best_total = np.inf
    logs: list[RoundLog] = []
    for r in range(config.rounds):
        t0 = time.perf_counter()
        model = initial_solution(sample, max_init, children[r])
        eng = Engine(model)
        _post_opt(eng, config.post_opt_passes)
        _gbum(eng)
        _post_opt(eng, config.post_opt_passes)
        total = eng.criterion_total()
        fitted = Coclustering(sample, *eng.assignments())
        elapsed = time.perf_counter() - t0
        logs.append(RoundLog(
            round=r,
            seed=config.seed,
            initial_k_source=model.k_source,
            initial_k_target=model.k_target,
            final_k_source=fitted.k_source,
            final_k_target=fitted.k_target,
            criterion=total,
            seconds=elapsed,
        ))
        if total < best_total:
            best_total = total
            best_model = fitted
    null = null_model(sample)
    if null.criterion().total < best_total:
        best_model = null
    return FitResult(
        best_model=best_model,
        best_criterion=best_model.criterion(),
        rounds=logs,
        config=config,
    )
