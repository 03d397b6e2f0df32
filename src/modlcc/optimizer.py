"""Model-space search: random initial solutions, greedy bottom-up merging,
vertex-move post-optimization and multi-start selection of the best model."""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from ._engine import OTHER_SIDE, Engine, shift_out, warm_tables
from .model import Coclustering, CriterionBreakdown, null_model

__all__ = [
    "FitConfig",
    "PhaseLog",
    "RoundLog",
    "FitResult",
    "initial_solution",
    "gbum",
    "post_optimize",
    "vns_fit",
]

# `vns_fit` runs its rounds on forked workers once a sample has this many
# distinct cells.  On 2 cores, starting a 2-worker fork pool costs about
# 16 ms, and one round of `gen_block_diagonal` samples (4 rounds) costs
# 3.7 ms at 100 cells, 15-18 ms at 540-770 cells, 34 ms at 936 cells and
# 98 ms at 2,953 cells.  Below the threshold the start is a large share of
# the fit, so small samples, such as the benchmark's fit-batch graphs of at
# most about 121 cells, stay in process.
POOL_MIN_CELLS = 1000


@dataclass
class FitConfig:
    rounds: int = 10
    seed: int = 0
    # vertex-move passes before and after the merges of each round
    post_opt_passes: ClassVar[int] = 2

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass(slots=True)
class PhaseLog:
    """What one phase of a round did, and the cluster counts after it.

    A round's phases are "start", "pre-opt", "merges" and "post-opt".
    `converged` is False only for a move phase that stopped at its pass cap
    with its last pass still moving vertices.
    """

    phase: str
    passes: int
    moves: int
    merges: int
    converged: bool
    k_source: int
    k_target: int
    seconds: float


@dataclass(slots=True)
class RoundLog:
    round: int
    seed: int
    initial_k_source: int
    initial_k_target: int
    final_k_source: int
    final_k_target: int
    criterion: float
    seconds: float
    phases: list[PhaseLog] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FitResult:
    best_model: Coclustering
    best_criterion: CriterionBreakdown
    rounds: list[RoundLog] = field(default_factory=list)
    config: FitConfig | None = None

    def to_dict(self, seed=None) -> dict:
        d = self.best_model.to_dict(seed=seed if seed is not None else getattr(self.config, "seed", None))
        # wall times, and the phase records that hold them, stay out of the
        # file so identical runs serialize identically
        d["fit_log"] = [
            {k: v for k, v in r.to_dict().items() if k not in ("seconds", "phases")} for r in self.rounds
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
    return s.lf_margin[clusters] + s.prior[clusters] - eng.lf[eng.rows(side)[clusters]].sum(axis=-1)


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
    rows' cells and s = x + y, the correction of pair (i, j) is
    u_i + u_j + lf[x_i + x_j] + lf[y_i + y_j] - lf[s_i + s_j], where
    u = lf[s] - lf[x] - lf[y].  It depends on the clusters' (x, y) values
    only, and these fall into few classes, so it is computed once per pair
    of classes, O(C^2) for C classes, and added to D by the rows of the
    support, O(s * k) for s <= k clusters in the support: the same IEEE
    operations on the same operands as per pair.  The class of clusters
    outside the support, (0, 0), corrects by exactly 0.0.  The result
    differs from a fresh `merge_struct` by rounding only, which
    `_best_merge` absorbs by scoring near-ties again.
    """
    support = np.flatnonzero((old_a != 0) | (old_b != 0))
    if len(support) < 2:
        return
    # the classes of distinct (x, y), in ascending order, and each cluster's class
    order = np.lexsort((old_b, old_a))
    x, y = old_a[order], old_b[order]
    first = np.empty(len(order), dtype=bool)
    first[0] = True
    first[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    cls = np.empty_like(order)
    cls[order] = first.cumsum() - 1
    x, y = x[first], y[first]
    lf = eng.lf
    s = x + y
    u = lf[s] - lf[x] - lf[y]
    corr = u[:, None] + u
    # 2*r for one cluster with itself can run past the table; D's diagonal
    # is never read, so clipped lookups there are harmless
    corr += lf.take(x[:, None] + x, mode="clip")
    corr += lf.take(y[:, None] + y, mode="clip")
    corr -= lf.take(s[:, None] + s, mode="clip")
    if s[0] == 0:
        corr[0] = corr[:, 0] = 0.0
    D_full[support, : len(cls)] += corr.take(cls[support], axis=0).take(cls, axis=1)


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
    to score the surviving cluster's pairs afresh, O(C^2 + s * k_other) to
    correct the other side's pairs (`_cross_side_correction`), where
    s <= k_other other-side clusters have cells in the merged rows and C
    is the number of distinct (x, y) cell pairs among them, and one
    vectorized O(k^2) scan per side for the best pair.
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


def _gbum(eng: Engine) -> int:
    """Run greedy bottom-up merging in place until no merge improves; returns the merges."""
    merges = 0
    for total, _, _, _ in _merges(eng):
        if not total < 0.0:
            break
        merges += 1
    return merges


def gbum(model: Coclustering) -> Coclustering:
    """Greedy bottom-up merge heuristic: apply the best strictly-improving
    cluster merge until none improves the criterion."""
    eng = Engine(model)
    _gbum(eng)
    return Coclustering(model.sample, *eng.assignments())


# -- vertex-move post-optimization ----------------------------------------------


def _sweep(eng: Engine, side: str) -> int:
    """One greedy best-move pass over all vertices of `side`; returns the moves.

    Each vertex's cluster profile is built once per sweep, in one pass over
    the side's edges (`Engine.vertex_profiles`), and serves both its move
    deltas and its move.
    """
    s = eng.sides[side]
    if s.k < 2:
        return 0
    # the other side's partition is frozen, so every profile holds all sweep
    moves = 0
    for v, profile in enumerate(eng.vertex_profiles(side)):
        if s.k < 2:
            break
        deltas = eng._move_deltas(side, v, profile)
        best = int(deltas.argmin())
        if deltas[best] < 0.0:
            eng.apply_move(side, v, best, profile)
            moves += 1
    return moves


def _post_opt(eng: Engine, passes: int) -> tuple[int, int, bool]:
    """Up to `passes` passes of a source sweep then a target sweep.

    Returns (passes run, moves, converged): converged once a pass moves
    nothing, not if the last pass allowed still moved vertices.
    """
    moves = 0
    for p in range(1, passes + 1):
        moved = _sweep(eng, "source") + _sweep(eng, "target")
        if not moved:
            return p, moves, True
        moves += moved
    return passes, moves, False


def post_optimize(model: Coclustering, passes: int = 2) -> Coclustering:
    """Greedy vertex-move sweeps, alternating sides with the other partition frozen."""
    eng = Engine(model)
    _post_opt(eng, passes)
    return Coclustering(model.sample, *eng.assignments())


# -- multi-start -------------------------------------------------------------------


def _round(sample, max_init, child):
    """One round: a random start from seed `child`, moves, merges, moves.

    Returns (a `PhaseLog` per phase, final (source, target) assignments,
    criterion, seconds).
    """
    t0 = lap = time.perf_counter()
    phases = []

    def log(phase, passes=0, moves=0, converged=True, merges=0):
        nonlocal lap
        now = time.perf_counter()
        phases.append(PhaseLog(phase, passes, moves, merges, converged,
                               eng.sides["source"].k, eng.sides["target"].k, now - lap))
        lap = now

    eng = Engine(initial_solution(sample, max_init, child))
    log("start")
    log("pre-opt", *_post_opt(eng, FitConfig.post_opt_passes))
    log("merges", merges=_gbum(eng))
    log("post-opt", *_post_opt(eng, FitConfig.post_opt_passes))
    total = eng.criterion_total()
    return phases, eng.assignments(), total, time.perf_counter() - t0


def _initial_clusters(sample) -> int:
    """The cluster cap of each round's start: ceil(sqrt(m))."""
    r = math.isqrt(sample.m)
    max_init = r if r * r == sample.m else r + 1
    if max_init < 2:
        # tiny samples: start from the maximal model so merging can explore
        max_init = max(sample.n_source, sample.n_target)
    return max_init


# a pool worker's (sample, max_init, round seeds), set by `_start_worker`
_worker_job = None


def _start_worker(*job):
    # a forked worker receives `job` by inheritance, not pickled
    global _worker_job
    _worker_job = job


def _worker_round(r):
    sample, max_init, children = _worker_job
    return _round(sample, max_init, children[r])


def _pool_workers(sample, rounds) -> int:
    """Worker processes to run `rounds` rounds on `sample`; 0 runs them in process."""
    # `len(sample.edges)` would build a dict of every cell in the parent
    if len(sample.counts) < POOL_MIN_CELLS or "fork" not in multiprocessing.get_all_start_methods():
        return 0
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(rounds, cores)
    return workers if workers >= 2 else 0


def vns_fit(sample, config: FitConfig | None = None) -> FitResult:
    """Multi-start search: per round, random initial solution, move
    pre-optimization, greedy merging, move post-optimization; keep the best.

    The rounds are independent, each seeded by its own `SeedSequence`
    child.  On a sample of at least `POOL_MIN_CELLS` cells they run on up
    to min(rounds, usable cores) forked worker processes, which all end
    before the call returns; the result is the same, byte for byte.  A
    round's `RoundLog.seconds` is its time inside the process that ran it,
    and `RoundLog.phases` holds what each of its phases did.
    """
    config = config or FitConfig()
    max_init = _initial_clusters(sample)
    children = np.random.SeedSequence(config.seed).spawn(config.rounds)

    workers = _pool_workers(sample, config.rounds)
    if workers:
        # the workers inherit the tables that each round's engine reads
        warm_tables(sample, min(max_init, sample.n_source), min(max_init, sample.n_target))
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=(sample, max_init, children)) as pool:
            results = list(pool.map(_worker_round, range(config.rounds)))
    else:
        results = [_round(sample, max_init, child) for child in children]

    best_assign = None
    best_total = np.inf
    logs: list[RoundLog] = []
    for r, (phases, assign, total, seconds) in enumerate(results):
        logs.append(RoundLog(
            round=r,
            seed=config.seed,
            initial_k_source=phases[0].k_source,
            initial_k_target=phases[0].k_target,
            final_k_source=phases[-1].k_source,
            final_k_target=phases[-1].k_target,
            criterion=total,
            seconds=seconds,
            phases=phases,
        ))
        if total < best_total:
            best_total = total
            best_assign = assign
    null = null_model(sample)
    best_model = null if null.criterion().total < best_total else Coclustering(sample, *best_assign)
    return FitResult(
        best_model=best_model,
        best_criterion=best_model.criterion(),
        rounds=logs,
        config=config,
    )
