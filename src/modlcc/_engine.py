"""Internal mutable coclustering state with incremental criterion updates.

The engine keeps a dense cluster-level contingency matrix `M`, source
clusters along axis 0 and target clusters along axis 1.  Cluster ids are
always the compact ids 0..k-1 of the current partition: when a merge or a
move empties a cluster, its row (or column) of `M` and its margin and size
entries are deleted in place, and every cluster above it moves down one
id, in order.  The arrays are views that only shrink.  Each partition is one
`Side` record in `Engine.sides`: assignment, per-cluster sizes and margins
with the criterion's per-cluster terms of them, cluster count k, vertex
count n, vertex degrees and its vertex of each sample cell.  The mutators
keep the terms up to date for the clusters they change, and the move and
merge deltas and the criterion read them.  The sweeps read the sample's
cell arrays directly, with no second copy of the edges.  `Engine.rows(side)` is M for sources and the
view M.T for targets, so every operation reads its own side's clusters
along axis 0 and is written once for both sides.  An engine starts from a
`Coclustering`'s grid, sizes and margins; it never counts the sample
itself.  All criterion deltas are computed from log-factorial table
lookups, so incremental and full evaluations agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import shared_cache

# each side's opposite, whose clusters index the columns of `Engine.rows(side)`
OTHER_SIDE = {"source": "target", "target": "source"}
# entries of the largest per-sweep gain table (2 MB)
_GAIN_TABLE_MAX = 1 << 18


def shift_out(x, i):
    """Delete entry i along axis 0 of `x` in place: the entries above it move
    down one, and the returned view is one shorter."""
    x[i:-1] = x[i + 1 :]
    return x[:-1]


@dataclass(eq=False)
class Side:
    """One partition's state, by cluster id."""

    assign: np.ndarray  # vertex -> cluster
    sizes: np.ndarray  # cluster -> vertex count
    margin: np.ndarray  # cluster -> edge count: the cluster's row sum in `Engine.rows`
    k: int  # clusters
    n: int  # vertices
    degrees: np.ndarray  # vertex -> edge count
    idx: np.ndarray  # this side's vertex of each sample cell
    # set by `Engine`, which keeps them up to date
    lf_margin: np.ndarray = field(init=False)  # cluster -> lf[margin]
    lf_sizes: np.ndarray = field(init=False)  # cluster -> lf[sizes]
    prior: np.ndarray = field(init=False)  # cluster -> lnC(margin + sizes - 1, sizes - 1)
    log_partitions: np.ndarray = field(init=False)  # k - 1 -> ln B(n, k), for k up to the start's k


def warm_tables(sample, k_source, k_target):
    """Size the shared factorial table for an engine on `sample` at these
    cluster counts, and warm the partition-count rows up to them; returns
    the table."""
    kE = k_source * k_target
    lf = shared_cache.factorial_table(sample.m + max(kE, sample.n_source, sample.n_target) + 2)
    shared_cache.log_partition_count(sample.n_source, k_source)
    shared_cache.log_partition_count(sample.n_target, k_target)
    return lf


class Engine:
    def __init__(self, model):
        self.sample = sample = model.sample
        self.cache = shared_cache
        self.m = sample.m
        self.M = model.cocluster_grid.copy()
        self.sides = {
            "source": Side(
                model.source_assignment.copy(), model.source_cluster_sizes.astype(np.int64),
                model.source_cluster_margins.copy(), model.k_source,
                sample.n_source, sample.out_degrees, sample.src_idx,
            ),
            "target": Side(
                model.target_assignment.copy(), model.target_cluster_sizes.astype(np.int64),
                model.target_cluster_margins.copy(), model.k_target,
                sample.n_target, sample.in_degrees, sample.tgt_idx,
            ),
        }
        # cluster counts never grow while the engine lives, so the tables are read once
        lf = self.lf = warm_tables(sample, model.k_source, model.k_target)
        for s in self.sides.values():
            nc1 = s.sizes - 1
            s.lf_margin, s.lf_sizes = lf[s.margin], lf[s.sizes]
            s.prior = lf[s.margin + nc1] - lf[nc1] - s.lf_margin
            s.log_partitions = self.cache._partition_row(s.n, s.k)

    def _refresh(self, s, c):
        """Bring the terms of cluster c of side `s` up to its counts, with the
        IEEE operations of `__init__` on Python floats."""
        at = self.lf.item
        mc, nc = int(s.margin[c]), int(s.sizes[c])
        lf_mc = at(mc)
        s.lf_margin[c], s.lf_sizes[c] = lf_mc, at(nc)
        s.prior[c] = at(mc + nc - 1) - at(nc - 1) - lf_mc

    # -- shared tables ------------------------------------------------------

    def _lnC(self, n, k):
        lf = self.lf
        return lf[n] - lf[k] - lf[n - k]

    # -- views ---------------------------------------------------------------

    def rows(self, side):
        """The contingency with `side`'s clusters along axis 0: M or its transposed view."""
        return self.M if side == "source" else self.M.T

    # -- criterion ------------------------------------------------------------

    def criterion_terms(self):
        """The eight additive terms of the evaluation criterion, in nats."""
        lf = self.lf
        src, tgt = self.sides["source"], self.sides["target"]
        kE = src.k * tgt.k
        t1 = math.log(src.n) + math.log(tgt.n)
        t2 = src.log_partitions.item(src.k - 1) + tgt.log_partitions.item(tgt.k - 1)
        t3 = float(self._lnC(self.m + kE - 1, kE - 1))
        t4 = float(src.prior.sum())
        t5 = float(tgt.prior.sum())
        t6 = float(lf[self.m] - lf[self.M].sum())
        t7 = float(src.lf_margin.sum() - lf[src.degrees].sum())
        t8 = float(tgt.lf_margin.sum() - lf[tgt.degrees].sum())
        return (t1, t2, t3, t4, t5, t6, t7, t8)

    def criterion_total(self):
        return float(sum(self.criterion_terms()))

    # -- merges ----------------------------------------------------------------

    def merge_global(self, side):
        """Criterion delta of the k-dependent terms for one merge on `side`."""
        dB, dC = self._count_change(side)
        return float(dB + dC)

    def merge_struct(self, side, a, b):
        """k-independent part of the merge delta (margin priors + likelihood).

        a and b are two clusters, or two equal-length arrays of clusters; an
        array of pairs comes back as an array of deltas, each scored with
        the arithmetic of a single pair.
        """
        s = self.sides[side]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if not np.all((0 <= lo) & (lo < hi) & (hi < s.k)):
            raise ValueError(f"invalid cluster pair ({a}, {b}) on {side} side")
        lf = self.lf
        M = self.rows(side)
        ra, rb = M[a], M[b]
        d = np.add.reduce(lf[ra] + lf[rb] - lf[ra + rb], axis=-1)
        mab, nab = s.margin[a] + s.margin[b], s.sizes[a] + s.sizes[b]
        lf_ma, lf_mb, lf_mab = s.lf_margin[a], s.lf_margin[b], lf[mab]
        d = d + ((lf[mab + nab - 1] - lf[nab - 1] - lf_mab) - s.prior[a] - s.prior[b])
        d = d + (lf_mab - lf_ma - lf_mb)
        return d if d.ndim else float(d)

    def apply_merge(self, side, a, b):
        """Fuse clusters a and b on `side`; the lower id survives."""
        keep, drop = (a, b) if a < b else (b, a)
        s = self.sides[side]
        for counts in (self.rows(side), s.margin, s.sizes):
            counts[keep] += counts[drop]
        self._refresh(s, keep)
        s.assign[s.assign == drop] = keep
        self._delete(side, drop)
        return keep

    def _delete(self, side, c):
        """Delete the emptied cluster c of `side`; the clusters above it move down one id."""
        s = self.sides[side]
        rows = shift_out(self.rows(side), c)
        self.M = rows if side == "source" else rows.T
        for name in ("margin", "sizes", "lf_margin", "lf_sizes", "prior"):
            setattr(s, name, shift_out(getattr(s, name), c))
        s.assign -= s.assign > c
        s.k -= 1

    # -- vertex moves -------------------------------------------------------------

    def vertex_profiles(self, side, cells=slice(None)):
        """(cols, cnts, gain) profile of every vertex on `side`, in one pass over its edges.

        cols and cnts are the other-side clusters that the vertex
        touches, ascending, and its edge counts into them.  The profiles hold
        while the other side's partition is unchanged, as during a sweep
        over `side`.  gain is None, or (table, offsets) with
        table[offsets[i] + x] == lf[x] - lf[x + cnts[i]] for every count x
        that a destination cell can hold, so that `move_options` reads each
        likelihood term with one lookup in place of two.  The table is built
        when it is smaller than the move blocks it serves.  `cells` selects
        the sample cells to read: all of them, or for example one vertex's
        own cells, whose profile alone is then complete.
        """
        s, o = self.sides[side], self.sides[OTHER_SIDE[side]]
        cap = self.rows(side).shape[1]
        # one key per (vertex, other-side cluster), each run of equal keys summed
        keys = s.idx[cells] * cap + o.assign[o.idx[cells]]
        order = keys.argsort()
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        cnts = np.add.reduceat(self.sample.counts[cells][order], starts)
        keys = keys[starts]
        cols = keys % cap
        gain = self._gain_table(side, cnts)
        ptr = np.searchsorted(keys, np.arange(s.n + 1, dtype=np.int64) * cap).tolist()
        spans = [slice(lo, hi) for lo, hi in zip(ptr[:-1], ptr[1:])]
        if gain is None:
            return [(cols[sp], cnts[sp], None) for sp in spans]
        table, offsets = gain
        return [(cols[sp], cnts[sp], (table, offsets[sp])) for sp in spans]

    def _gain_table(self, side, cnts):
        """Lookup table of lf[x] - lf[x + c] for one sweep over `side`, or None.

        A destination cell plus the moving vertex's count never exceeds the
        other-side cluster's margin, which the sweep leaves unchanged, so
        x + c <= width - 1 below.
        """
        width = int(self.sides[OTHER_SIDE[side]].margin.max()) + 1
        rows = int(cnts.max(initial=0))  # 0 for a selection of no cells
        if rows * width > min(len(cnts) * self.sides[side].k, _GAIN_TABLE_MAX):
            return None
        x = np.arange(width)
        # entries past the factorial table are never read
        table = self.lf[:width] - self.lf.take(x + np.arange(1, rows + 1)[:, None], mode="clip")
        return table.ravel(), (cnts - 1) * width

    def _removal_base(self, side, v, a, base):
        """Delta of taking vertex v out of its cluster a (dest-independent),
        from `base`, the likelihood term of a's cells.

        The scalar terms are Python floats: the same IEEE operations as on
        NumPy scalars, at a fraction of the call overhead.
        """
        s = self.sides[side]
        at = self.lf.item
        dv = int(s.degrees[v])
        na, ma = int(s.sizes[a]), int(s.margin[a])
        lf_rest = at(ma - dv)
        base += lf_rest - s.lf_margin.item(a)
        base -= s.prior.item(a)
        if na > 1:
            base += at(ma - dv + na - 2) - at(na - 2) - lf_rest
        else:
            # cluster a disappears: the cluster-count terms change
            dB, dC = self._count_change(side)
            base += dB
            base += dC
        return dv, base

    def _count_change(self, side):
        """Deltas (partition prior, cocluster prior) of `side` losing one cluster."""
        s = self.sides[side]
        k, k_other = s.k, self.sides[OTHER_SIDE[side]].k
        if k < 2:
            raise ValueError(f"the {side} side has one cluster and cannot lose one")
        at = self.lf.item
        m, kE_old, kE_new = self.m, k * k_other, (k - 1) * k_other
        dB = s.log_partitions.item(k - 2) - s.log_partitions.item(k - 1)
        # lnC(m + kE - 1, kE - 1) = lf[m + kE - 1] - lf[kE - 1] - lf[m]
        dC = (at(m + kE_new - 1) - at(kE_new - 1) - at(m)) - (at(m + kE_old - 1) - at(kE_old - 1) - at(m))
        return dB, dC

    def _move_deltas(self, side, v, profile):
        """Deltas of moving vertex v into each cluster of `side`, by cluster id.

        `profile` is v's (cols, cnts, gain) entry of `vertex_profiles`.  v's
        own cluster a gets +inf.  The block M[:, cols] is gathered into C
        order with one more row, k, that holds row a less v's counts, so
        each row sums in the order of a 1-D sum, and row k's likelihood
        terms, lf[x] - lf[x + cnts] at x = row a - cnts, are the removal's
        terms negated, whose sum negates bit for bit.  With a gain table,
        each term is one lookup.  The own cluster's lookups can run past
        the factorial table, hence the clipped reads; its entry is masked.
        """
        cols, cnts, gain = profile
        s = self.sides[side]
        a, k = int(s.assign[v]), s.k
        lf = self.lf
        M = self.rows(side)
        sub = np.empty((k + 1, len(cols)), dtype=M.dtype)
        sub[:k] = M[:, cols]
        np.subtract(sub[a], cnts, out=sub[k])
        if gain is None:
            d6 = lf.take(sub)
            np.subtract(d6, lf.take(sub + cnts, mode="clip"), out=d6)
        else:
            table, offsets = gain
            sub += offsets
            d6 = table.take(sub)
        d6 = np.add.reduce(d6, axis=1)
        dv, base = self._removal_base(side, v, a, -float(d6[k]))
        mc = s.margin + dv
        lf_mv = lf.take(mc, mode="clip")
        d7 = lf_mv - s.lf_margin
        mc += s.sizes
        d4 = lf.take(mc, mode="clip") - s.lf_sizes - lf_mv - s.prior
        deltas = base + d6[:k] + d7 + d4
        deltas[a] = np.inf
        return deltas

    def move_options(self, side, v, profile):
        """Deltas of moving vertex v to every other cluster on `side`.

        `profile` is v's entry of `vertex_profiles`.  Returns (current
        cluster, destination clusters, delta array).
        """
        s = self.sides[side]
        a = s.assign[v]
        others = np.flatnonzero(np.arange(s.k) != a)
        if len(others) == 0:
            return a, others, np.empty(0)
        deltas = self._move_deltas(side, v, profile)
        return a, others, deltas[others]

    def apply_move(self, side, v, dest, profile):
        """Move vertex v into `dest`, another cluster on `side`.

        `profile` is v's entry of `vertex_profiles`.
        """
        s = self.sides[side]
        cols, cnts = profile[:2]
        dv = int(s.degrees[v])
        a = s.assign[v]
        M = self.rows(side)
        M[a][cols] -= cnts
        M[dest][cols] += cnts
        s.margin[a] -= dv
        s.margin[dest] += dv
        s.sizes[a] -= 1
        s.sizes[dest] += 1
        s.assign[v] = dest
        self._refresh(s, dest)
        if s.sizes[a] == 0:
            self._delete(side, a)
        else:
            self._refresh(s, a)

    # -- export -------------------------------------------------------------------

    def assignments(self):
        """Copies of the (source, target) assignments."""
        return self.sides["source"].assign.copy(), self.sides["target"].assign.copy()
