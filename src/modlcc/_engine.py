"""Internal mutable coclustering state with incremental criterion updates.

The engine keeps a dense cluster-level contingency matrix `M`, source
clusters along axis 0 and target clusters along axis 1.  Cluster ids are
always the compact ids 0..k-1 of the current partition: when a merge or a
move empties a cluster, its row (or column) of `M` and its margin and size
entries are deleted in place, and every cluster above it moves down one
id, in order.  The arrays are views that only shrink.  Each partition is one
`Side` record in `Engine.sides`: assignment, per-cluster sizes and margins,
cluster count k, vertex count n, vertex degrees and its vertex of each
sample cell.  The sweeps read the sample's cell arrays directly, with no
second copy of the edges.  `Engine.rows(side)` is M for sources and the
view M.T for targets, so every operation reads its own side's clusters
along axis 0 and is written once for both sides.  An engine starts from a
`Coclustering`'s grid, sizes and margins; it never counts the sample
itself.  All criterion deltas are computed from log-factorial table
lookups, so incremental and full evaluations agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import shared_cache
from .graph import int_bincount

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


@dataclass(eq=False)
class DestTerms:
    """Per-destination terms of the move deltas into every cluster, from the counts at build time."""

    mc: np.ndarray  # margins
    nc: np.ndarray  # sizes
    lf_mc: np.ndarray  # lf[mc]
    lf_nc: np.ndarray  # lf[nc]
    prior: np.ndarray  # lnC(mc + nc - 1, nc - 1)


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
        # cluster counts never grow while the engine lives, so the table is read once
        self.lf = warm_tables(sample, model.k_source, model.k_target)
        # `_count_change` by (side, k, k_other): n and m never change
        self._count_changes = {}

    # -- shared tables ------------------------------------------------------

    def _logB(self, n, k):
        return self.cache.log_partition_count(n, k)

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
        t2 = self._logB(src.n, src.k) + self._logB(tgt.n, tgt.k)
        t3 = float(self._lnC(self.m + kE - 1, kE - 1))

        def margin_prior(s):
            mar, sz = s.margin, s.sizes
            return float((lf[mar + sz - 1] - lf[sz - 1] - lf[mar]).sum())

        def degree_likelihood(s):
            return float(lf[s.margin].sum() - lf[s.degrees].sum())

        t4 = margin_prior(src)
        t5 = margin_prior(tgt)
        t6 = float(lf[self.m] - lf[self.M].sum())
        t7 = degree_likelihood(src)
        t8 = degree_likelihood(tgt)
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
        ma, mb = s.margin[a], s.margin[b]
        na, nb = s.sizes[a], s.sizes[b]
        # lnC(n, k) = lf[n] - lf[k] - lf[n - k], with lf[n - k] read once for both terms
        lf_ma, lf_mb, lf_mab = lf[ma], lf[mb], lf[ma + mb]
        d = d + (
            (lf[ma + mb + na + nb - 1] - lf[na + nb - 1] - lf_mab)
            - (lf[ma + na - 1] - lf[na - 1] - lf_ma)
            - (lf[mb + nb - 1] - lf[nb - 1] - lf_mb)
        )
        d = d + (lf_mab - lf_ma - lf_mb)
        return d if d.ndim else float(d)

    def apply_merge(self, side, a, b):
        """Fuse clusters a and b on `side`; the lower id survives."""
        keep, drop = (a, b) if a < b else (b, a)
        s = self.sides[side]
        for counts in (self.rows(side), s.margin, s.sizes):
            counts[keep] += counts[drop]
        s.assign[s.assign == drop] = keep
        self._delete(side, drop)
        return keep

    def _delete(self, side, c):
        """Delete the emptied cluster c of `side`; the clusters above it move down one id."""
        s = self.sides[side]
        rows = shift_out(self.rows(side), c)
        self.M = rows if side == "source" else rows.T
        s.margin = shift_out(s.margin, c)
        s.sizes = shift_out(s.sizes, c)
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
        # one key per (vertex, other-side cluster)
        keys, inverse = np.unique(s.idx[cells] * cap + o.assign[o.idx[cells]], return_inverse=True)
        cnts = int_bincount(inverse, self.sample.counts[cells], len(keys))
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
        lf_ma, lf_rest = at(ma), at(ma - dv)
        base += lf_rest - lf_ma
        base -= at(ma + na - 1) - at(na - 1) - lf_ma
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
        change = self._count_changes.get((side, k, k_other))
        if change is None:
            kE_old, kE_new = k * k_other, (k - 1) * k_other
            dB = self._logB(s.n, k - 1) - self._logB(s.n, k)
            dC = self._lnC(self.m + kE_new - 1, kE_new - 1) - self._lnC(self.m + kE_old - 1, kE_old - 1)
            change = self._count_changes[side, k, k_other] = (dB, float(dC))
        return change

    def dest_terms(self, side):
        """The terms of a move delta that depend on the destination only; needs k >= 2."""
        s = self.sides[side]
        lf = self.lf
        mc, nc = s.margin.copy(), s.sizes.copy()
        lf_mc = lf[mc]
        nc1 = nc - 1
        return DestTerms(mc, nc, lf_mc, lf[nc], lf[mc + nc1] - lf[nc1] - lf_mc)

    def refresh_dest_terms(self, side, dests, clusters):
        """Bring the `dests` entries of `clusters` up to the current counts,
        after a move between them that emptied no cluster; each entry gets
        the IEEE operations of `dest_terms`, on Python floats."""
        s = self.sides[side]
        at = self.lf.item
        for c in clusters:
            mc, nc = int(s.margin[c]), int(s.sizes[c])
            lf_mc = at(mc)
            dests.mc[c], dests.nc[c], dests.lf_mc[c], dests.lf_nc[c] = mc, nc, lf_mc, at(nc)
            dests.prior[c] = at(mc + nc - 1) - at(nc - 1) - lf_mc

    def _move_deltas(self, side, v, dests, profile):
        """Deltas of moving vertex v into each cluster of `side`, by cluster id.

        `dests` is a `dest_terms` record, and `profile` is v's (cols, cnts,
        gain) entry of `vertex_profiles`.  v's own cluster a gets +inf.  The
        destination block M[:, cols] is copied into C order, the layout of an
        np.ix_ gather, on both sides, so each row sums in the same order, at a
        fraction of the cost.  With a gain table, each cell's likelihood term
        is one lookup, and so is each term of taking v out of a: row a of the
        block less v's cells reads table[offsets + x] = lf[x] - lf[x + cnts],
        the negated terms lf[row_a] - lf[row_a - cnts], whose sum negates bit
        for bit.  The own cluster's lookups can run past the factorial table,
        hence the clipped reads; its entry is masked.
        """
        cols, cnts, gain = profile
        a = int(self.sides[side].assign[v])
        lf = self.lf
        sub = np.ascontiguousarray(self.rows(side)[:, cols])
        if gain is None:
            rowa = sub[a]
            base = float(np.add.reduce(lf[rowa] - lf[rowa - cnts]))
            d6 = lf.take(sub)
            np.subtract(d6, lf.take(sub + cnts, mode="clip"), out=d6)
        else:
            table, offsets = gain
            sub += offsets
            base = -float(np.add.reduce(table.take(sub[a] - cnts)))
            d6 = table.take(sub)
        dv, base = self._removal_base(side, v, a, base)
        d6 = np.add.reduce(d6, axis=1)
        mc = dests.mc + dv
        lf_mv = lf.take(mc, mode="clip")
        d7 = lf_mv - dests.lf_mc
        mc += dests.nc
        d4 = lf.take(mc, mode="clip") - dests.lf_nc - lf_mv - dests.prior
        deltas = base + d6 + d7 + d4
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
        deltas = self._move_deltas(side, v, self.dest_terms(side), profile)
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
        if s.sizes[a] == 0:
            self._delete(side, a)

    # -- export -------------------------------------------------------------------

    def assignments(self):
        """Copies of the (source, target) assignments."""
        return self.sides["source"].assign.copy(), self.sides["target"].assign.copy()
