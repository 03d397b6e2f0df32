"""Independent reference implementations used as test oracles.

Everything here is written in the most direct way possible (exact integer
combinatorics, straight-line formulas, exhaustive enumeration) with no code
shared with the package under test.  The exceptions are the hierarchy and
vertex-move oracles: an exhaustive scan over the package's own fresh merge
deltas, and the direct per-vertex `np.ix_` form of the move deltas, each
written on the engine's counts so that results can be compared float for
float.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# -- exact integer combinatorics -------------------------------------------------


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, exact, by recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def partition_count(n: int, k: int) -> int:
    """Number of partitions of n labeled elements into at most k subsets."""
    return sum(stirling2(n, i) for i in range(1, min(k, n) + 1))


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) from Pascal's triangle."""
    if k < 0 or k > n:
        raise ValueError("k out of range")
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


# -- straight-line criterion evaluator --------------------------------------------


def oracle_criterion(sample, s_assign, t_assign) -> float:
    """The model-selection criterion written out term by term, in nats."""
    s_assign = list(int(a) for a in s_assign)
    t_assign = list(int(a) for a in t_assign)
    n_s, n_t = sample.n_source, sample.n_target
    m = sample.m
    k_s = max(s_assign) + 1
    k_t = max(t_assign) + 1
    k_e = k_s * k_t

    grid = [[0] * k_t for _ in range(k_s)]
    for (i, j), c in sample.edges.items():
        grid[s_assign[i]][t_assign[j]] += c
    s_sizes = [s_assign.count(c) for c in range(k_s)]
    t_sizes = [t_assign.count(c) for c in range(k_t)]
    s_margin = [sum(grid[a]) for a in range(k_s)]
    t_margin = [sum(grid[a][b] for a in range(k_s)) for b in range(k_t)]

    total = math.log(n_s) + math.log(n_t)
    total += math.log(partition_count(n_s, k_s)) + math.log(partition_count(n_t, k_t))
    total += math.log(math.comb(m + k_e - 1, k_e - 1))
    for a in range(k_s):
        total += math.log(math.comb(s_margin[a] + s_sizes[a] - 1, s_sizes[a] - 1))
    for b in range(k_t):
        total += math.log(math.comb(t_margin[b] + t_sizes[b] - 1, t_sizes[b] - 1))
    total += math.lgamma(m + 1)
    for a in range(k_s):
        for b in range(k_t):
            total -= math.lgamma(grid[a][b] + 1)
    for a in range(k_s):
        total += math.lgamma(s_margin[a] + 1)
    for d in sample.out_degrees:
        total -= math.lgamma(int(d) + 1)
    for b in range(k_t):
        total += math.lgamma(t_margin[b] + 1)
    for d in sample.in_degrees:
        total -= math.lgamma(int(d) + 1)
    return total


# -- exhaustive search ---------------------------------------------------------------


def all_partitions(n: int):
    """Every partition of range(n) as an assignment list, via restricted
    growth strings (cluster ids appear in first-use order)."""
    assign = [0] * n

    def rec(i, kmax):
        if i == n:
            yield list(assign)
            return
        for c in range(kmax + 1):
            assign[i] = c
            yield from rec(i + 1, max(kmax, c + 1))

    yield from rec(0, 0)


def brute_force_map(sample):
    """Enumerate every partition pair; return (best criterion, best pair)."""
    best = math.inf
    best_pair = None
    for s_assign in all_partitions(sample.n_source):
        for t_assign in all_partitions(sample.n_target):
            c = oracle_criterion(sample, s_assign, t_assign)
            if c < best:
                best = c
                best_pair = (s_assign, t_assign)
    return best, best_pair


def multinomial_orderings(counts) -> int:
    """Number of distinct orderings of a multiset, counted by enumeration."""
    seq = []
    for idx, c in enumerate(counts):
        seq.extend([idx] * c)
    return len(set(itertools.permutations(seq)))


def random_sample(rng, n_s_max=5, n_t_max=5, m_max=8):
    """Small random multigraph sample for property tests."""
    from modlcc.graph import MultigraphSample

    n_s = int(rng.integers(1, n_s_max + 1))
    n_t = int(rng.integers(1, n_t_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = {}
    for _ in range(m):
        key = (int(rng.integers(0, n_s)), int(rng.integers(0, n_t)))
        edges[key] = edges.get(key, 0) + 1
    labels_s = [f"s{i}" for i in range(n_s)]
    labels_t = [f"t{j}" for j in range(n_t)]
    return MultigraphSample(labels_s, labels_t, edges)


def random_assignment(rng, n: int):
    """Random contiguous cluster assignment of n vertices."""
    k = int(rng.integers(1, n + 1))
    assign = rng.integers(0, k, size=n)
    used = np.unique(assign)
    remap = np.zeros(k, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return remap[assign]


# -- exhaustive hierarchy ----------------------------------------------------------


def exhaustive_dendrogram(model):
    """Merge records of the greedy agglomeration to the root, scoring every
    cluster pair on both sides afresh at every step (first minimum wins)."""
    from modlcc._engine import Engine
    from modlcc.hierarchy import MergeRecord

    eng = Engine(model)
    total = eng.criterion_total()
    merges = []
    while eng.sides["source"].k > 1 or eng.sides["target"].k > 1:
        best = None  # (delta, side, a, b)
        for side in ("source", "target"):
            k = eng.sides[side].k
            if k < 2:
                continue
            g = eng.merge_global(side)
            for a, b in itertools.combinations(range(k), 2):
                d = eng.merge_struct(side, a, b) + g
                if best is None or d < best[0]:
                    best = (d, side, a, b)
        delta, side, a, b = best
        eng.apply_merge(side, a, b)
        total += delta
        merges.append(MergeRecord(side=side, a=a, b=b, delta=float(delta), criterion=float(total)))
    return merges


def replayed_models(model, merges):
    """The model after each prefix of `merges`, replayed with `Coclustering.merge`."""
    states = [model]
    for rec in merges:
        model, _ = model.merge(rec.side, rec.a, rec.b)
        states.append(model)
    return states


# -- vertex moves, per-vertex np.ix_ form -------------------------------------------


def ix_profile(eng, side, v):
    """(cols, cnts) of vertex v of `side`: the other-side clusters it
    touches and its edge counts into them, from a bincount over the sample."""
    sample = eng.sample
    if side == "source":
        own, other, other_assign = sample.src_idx, sample.tgt_idx, eng.sides["target"].assign
    else:
        own, other, other_assign = sample.tgt_idx, sample.src_idx, eng.sides["source"].assign
    mine = own == v
    dense = np.bincount(other_assign[other[mine]], weights=sample.counts[mine]).astype(np.int64)
    cols = np.flatnonzero(dense)
    return cols, dense[cols]


def unique_vertex_profiles(eng, side, cells=slice(None)):
    """`Engine.vertex_profiles` with its (vertex, cluster) keys grouped by
    `np.unique(return_inverse=True)` and summed by an int64 `np.add.at`;
    the gain table comes from the engine's own `_gain_table`."""
    s = eng.sides[side]
    o = eng.sides["target" if side == "source" else "source"]
    cap = o.k
    keys, inverse = np.unique(s.idx[cells] * cap + o.assign[o.idx[cells]], return_inverse=True)
    cnts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(cnts, inverse, eng.sample.counts[cells])
    cols = keys % cap
    gain = eng._gain_table(side, cnts)
    ptr = np.searchsorted(keys, np.arange(s.n + 1, dtype=np.int64) * cap)
    profiles = []
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        entry = None if gain is None else (gain[0], gain[1][lo:hi])
        profiles.append((cols[lo:hi], cnts[lo:hi], entry))
    return profiles


def ix_move_options(eng, side, v):
    """(current cluster, destination clusters, deltas) of moving vertex v of
    `side` to every other cluster, written the direct way: a fresh
    profile per vertex, NumPy-scalar removal terms and an np.ix_ gather of
    the destination block."""
    src, tgt = eng.sides["source"], eng.sides["target"]
    if side == "source":
        assign, sizes, margin, M, n = src.assign, src.sizes, src.margin, eng.M, src.n
        k, k_other = src.k, tgt.k
    else:
        assign, sizes, margin, M, n = tgt.assign, tgt.sizes, tgt.margin, eng.M.T, tgt.n
        k, k_other = tgt.k, src.k
    lf = eng.lf

    def lnC(n_, k_):
        return lf[n_] - lf[k_] - lf[n_ - k_]

    a = assign[v]
    dests = np.arange(k)
    dests = dests[dests != a]
    if len(dests) == 0:
        return a, dests, np.empty(0)
    cols, cnts = ix_profile(eng, side, v)
    # removal of v from its cluster a
    dv = int(cnts.sum())
    na, ma = int(sizes[a]), int(margin[a])
    rowa = M[a, cols]
    base = float((lf[rowa] - lf[rowa - cnts]).sum())
    base += float(lf[ma - dv] - lf[ma])
    base -= float(lnC(ma + na - 1, na - 1))
    if na > 1:
        base += float(lnC(ma - dv + na - 2, na - 2))
    else:
        base += eng.cache.log_partition_count(n, k - 1) - eng.cache.log_partition_count(n, k)
        kE_old, kE_new = k * k_other, (k - 1) * k_other
        base += float(lnC(eng.m + kE_new - 1, kE_new - 1) - lnC(eng.m + kE_old - 1, kE_old - 1))
    # insertion into each destination
    sub = M[np.ix_(dests, cols)]
    d6 = (lf[sub] - lf[sub + cnts]).sum(axis=1)
    mc = margin[dests]
    nc = sizes[dests]
    d7 = lf[mc + dv] - lf[mc]
    d4 = lnC(mc + dv + nc, nc) - lnC(mc + nc - 1, nc - 1)
    return a, dests, base + d6 + d7 + d4


def ix_post_optimize(model, passes=2):
    """Greedy best-move sweeps, source side then target side, with
    `ix_move_options`; returns the (source, target) assignments."""
    from modlcc._engine import Engine

    eng = Engine(model)
    for _ in range(passes):
        moved = False
        for side, n in (("source", model.sample.n_source), ("target", model.sample.n_target)):
            for v in range(n):
                if eng.sides[side].k < 2:
                    break
                _, dests, deltas = ix_move_options(eng, side, v)
                if len(dests) == 0:
                    continue
                best = int(np.argmin(deltas))
                if deltas[best] < 0.0:
                    eng.apply_move(side, v, int(dests[best]), ix_profile(eng, side, v))
                    moved = True
        if not moved:
            break
    return eng.assignments()


# -- the search's incremental caches, recomputed -------------------------------------


def flat_cross_side_correction(eng, D_full, old_a, old_b):
    """The other side's pair-delta correction after a merge, pair by pair.

    For every pair (i, j) of other-side clusters with cells in the merged
    rows x and y, s = x + y, adds u_i + u_j + lf[x_i + x_j] + lf[y_i + y_j]
    - lf[s_i + s_j], u = lf[s] - lf[x] - lf[y], to D_full[i, j] through
    flat indices: the arithmetic that `optimizer._cross_side_correction`
    must reproduce bit for bit.
    """
    lf = eng.lf
    support = np.flatnonzero((old_a != 0) | (old_b != 0))
    if len(support) < 2:
        return
    x, y = old_a[support], old_b[support]
    s = x + y
    u = lf[s] - lf[x] - lf[y]
    corr = u[:, None] + u
    corr += lf.take(x[:, None] + x, mode="clip")
    corr += lf.take(y[:, None] + y, mode="clip")
    corr -= lf.take(s[:, None] + s, mode="clip")
    flat = (support[:, None] * D_full.shape[1] + support).ravel()
    D_full.reshape(-1)[flat] += corr.ravel()


def count_change(eng, side):
    """(partition prior, cocluster prior) deltas of `side` losing one
    cluster, from the engine's current cluster counts."""
    n, k = eng.sides[side].n, eng.sides[side].k
    k_other = eng.sides["target" if side == "source" else "source"].k
    lf = eng.lf

    def lnC(n_, k_):
        return lf[n_] - lf[k_] - lf[n_ - k_]

    kE_old, kE_new = k * k_other, (k - 1) * k_other
    dB = eng.cache.log_partition_count(n, k - 1) - eng.cache.log_partition_count(n, k)
    return dB, float(lnC(eng.m + kE_new - 1, kE_new - 1) - lnC(eng.m + kE_old - 1, kE_old - 1))


# -- dict-based edge-list parser ------------------------------------------------------


class DictEdgeListError(ValueError):
    """Raised by `dict_parse_edge_list` with the message the parser must give."""


class DictSample:
    """The sample fields, built from a `{(i, j): count}` dict."""

    def __init__(self, source_labels, target_labels, edges, unified):
        if not edges:
            raise DictEdgeListError("no edges")
        if sum(edges.values()) > 2**63 - 1:
            raise DictEdgeListError(f"total edge count exceeds {2**63 - 1}")
        self.source_labels = list(source_labels)
        self.target_labels = list(target_labels)
        self.unified = unified
        cells = sorted(edges.items())
        self.src_idx = np.array([i for (i, _), _ in cells], dtype=np.int64)
        self.tgt_idx = np.array([j for (_, j), _ in cells], dtype=np.int64)
        self.counts = np.array([c for _, c in cells], dtype=np.int64)
        self.edges = {(int(i), int(j)): int(c) for (i, j), c in cells}
        self.m = sum(self.edges.values())
        self.out_degrees = np.zeros(len(self.source_labels), dtype=np.int64)
        self.in_degrees = np.zeros(len(self.target_labels), dtype=np.int64)
        for (i, j), c in cells:
            self.out_degrees[i] += c
            self.in_degrees[j] += c


def dict_parse_edge_list(data, unify=False, undirected=False, vocabulary=None,
                         target_vocabulary=None) -> DictSample:
    """The edge-list grammar, one dict update per line: labels interned in
    first-appearance order, cells accumulated in a tuple-keyed dict."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if isinstance(data, str):
        lines = data.splitlines()
    elif hasattr(data, "read"):
        raw = data.read()
        lines = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).splitlines()
    else:
        lines = [str(line).rstrip("\n") for line in data]

    src_index, tgt_index = {}, {}
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

    def intern(table, label):
        if label not in table:
            table[label] = len(table)
        return table[label]

    edges = {}

    def add(s, t, c):
        key = (intern(src_index, s), intern(tgt_index, t))
        edges[key] = edges.get(key, 0) + c

    seen_data = False
    for lineno, line in enumerate(lines, start=1):
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
            raise DictEdgeListError(
                f"line {lineno}: expected 2 or 3 tab-separated columns, got {len(fields)}")
        s, t = fields[0], fields[1]
        if len(fields) == 3:
            try:
                c = int(fields[2])
            except ValueError:
                raise DictEdgeListError(f"line {lineno}: count {fields[2]!r} is not an integer") from None
            if c <= 0:
                raise DictEdgeListError(f"line {lineno}: count must be positive, got {c}")
            if c > 2**63 - 1:
                raise DictEdgeListError(f"line {lineno}: count {c} out of range")
        else:
            c = 1
        seen_data = True
        add(s, t, c)
        if undirected:
            add(t, s, c)

    source_labels = list(src_index)
    target_labels = source_labels if unify else list(tgt_index)
    return DictSample(source_labels, target_labels, edges, unified=unify)
