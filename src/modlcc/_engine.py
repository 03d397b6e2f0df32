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
`Coclustering`'s counts, hands its own back (`Coclustering._from_engine`)
and never counts the sample itself.  All criterion deltas are computed from
log-factorial table lookups, so incremental and full evaluations agree to rounding.
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
# the largest table need (`table_need`) of an engine that scores moves in
# scalar arithmetic: its list of ln(i!) holds at most this many Python
# floats, about 2 MB
_SCALAR_TABLE_MAX = 1 << 16
# `_move_deltas` takes the scalar body below this many clusters.  Its cost
# grows with k and with the profile's cells, the array body's hardly does:
# microseconds per call, scalar/array (timeit, best of 7, 2-core host),
#   1 cell:  k=4 4.7/10.9, k=8 7.7/12.0, k=12 10.2/12.1, k=16 11.5/11.1
#   4 cells: k=4 5.8/12.3, k=8 8.7/11.6, k=12 12.0/12.0, k=16 14.9/12.2
#   7 cells: k=4 6.1/13.0, k=8 10.7/12.2, k=12 13.8/12.0, k=16 18.5/12.9
_SCALAR_MAX_K = 12


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


def table_need(sample, k_source, k_target):
    """The entries of the factorial table that an engine on `sample` at these
    cluster counts reads."""
    return sample.m + max(k_source * k_target, sample.n_source, sample.n_target) + 2


def warm_tables(sample, k_source, k_target):
    """Size the shared factorial table for an engine on `sample` at these
    cluster counts, and warm the partition-count rows up to them; returns
    the table."""
    lf = shared_cache.factorial_table(table_need(sample, k_source, k_target))
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
        # ln(i!) as Python floats: a list for an engine of a small table need,
        # which the scalar move body requires, else the array's `item`
        need = table_need(sample, model.k_source, model.k_target)
        self.lf_list = self.cache.factorial_list(need) if need <= _SCALAR_TABLE_MAX else None
        self.at = lf.item if self.lf_list is None else self.lf_list.__getitem__
        for s in self.sides.values():
            nc1 = s.sizes - 1
            s.lf_margin, s.lf_sizes = lf[s.margin], lf[s.sizes]
            s.prior = lf[s.margin + nc1] - lf[nc1] - s.lf_margin
            s.log_partitions = self.cache._partition_row(s.n, s.k)

    def _refresh(self, s, c):
        """Bring the terms of cluster c of side `s` up to its counts, with the
        IEEE operations of `__init__` on Python floats."""
        at = self.at
        mc, nc = int(s.margin[c]), int(s.sizes[c])
        lf_mc = at(mc)
        s.lf_margin[c], s.lf_sizes[c] = lf_mc, at(nc)
        s.prior[c] = at(mc + nc - 1) - at(nc - 1) - lf_mc

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
        # lnC(m + kE - 1, kE - 1)
        t3 = float(lf[self.m + kE - 1] - lf[kE - 1] - lf[self.m])
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

        a and b are two distinct clusters of `side`, or two equal-length
        arrays of such pairs; an array of pairs comes back as an array of
        deltas, each scored with the arithmetic of a single pair.  The pairs
        are not checked: `Coclustering.merge` checks its pair, and the merge
        loop's pairs are the finite entries of its pair matrices.
        """
        s = self.sides[side]
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

    def vertex_profiles(self, side):
        """(cols, cnts, gain) profile of every vertex on `side`, in one pass over its edges.

        The pass sorts one (vertex, other-side cluster) key per cell and sums
        each run of equal keys.  The runs start where neighbouring keys
        differ, found by one comparison into a bool mask: on the hundred or
        so cells of a small fit, a third of the time of a `np.diff` with a
        prepended entry, which concatenates a copy of the keys.

        cols and cnts are the other-side clusters that the vertex
        touches, ascending, and its edge counts into them.  The profiles hold
        while the other side's partition is unchanged, as during a sweep
        over `side`.  gain is None, or (table, offsets) with
        table[offsets[i] + x] == lf[x] - lf[x + cnts[i]] for every count x
        that a destination cell can hold, so that `_move_deltas` reads each
        likelihood term with one lookup in place of two.  The table is built
        when it is smaller than the move blocks it serves.
        """
        s, o = self.sides[side], self.sides[OTHER_SIDE[side]]
        cap = self.rows(side).shape[1]
        # one key per (vertex, other-side cluster), each run of equal keys summed
        keys = s.idx * cap + o.assign[o.idx]
        order = keys.argsort()
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)  # where each run of equal keys starts
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        cnts = np.add.reduceat(self.sample.counts[order], starts)
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
        rows = int(cnts.max())
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
        at = self.at
        dv = s.degrees.item(v)
        na, ma = s.sizes.item(a), s.margin.item(a)
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
        at = self.at
        m, kE_old, kE_new = self.m, k * k_other, (k - 1) * k_other
        dB = s.log_partitions.item(k - 2) - s.log_partitions.item(k - 1)
        # lnC(m + kE - 1, kE - 1) = lf[m + kE - 1] - lf[kE - 1] - lf[m]
        dC = (at(m + kE_new - 1) - at(kE_new - 1) - at(m)) - (at(m + kE_old - 1) - at(kE_old - 1) - at(m))
        return dB, dC

    def _move_deltas(self, side, v, profile):
        """Deltas of moving vertex v into each cluster of `side`, by cluster id.

        `profile` is v's (cols, cnts, gain) entry of `vertex_profiles`.  v's
        own cluster gets +inf.  Two bodies compute the same bits: the scalar
        one for few clusters and cells, where NumPy's per-call cost would
        dominate, and the array one otherwise.
        """
        # Below 8 terms NumPy's row reduce is a left fold, which the scalar
        # body repeats on Python floats; from 8 terms on it sums pairwise,
        # so this bound is a condition of bit-equality, not a tuning knob.
        if len(profile[0]) < 8 and self.sides[side].k < _SCALAR_MAX_K and self.lf_list is not None:
            return self._move_deltas_scalar(side, v, profile)
        return self._move_deltas_array(side, v, profile)

    def _move_deltas_scalar(self, side, v, profile):
        """`_move_deltas` on Python floats, for a profile of fewer than 8 cells.

        It runs the array body's IEEE operations in their order: each row's
        likelihood terms summed in a left fold from 0.0 (a row of no cells
        sums to 0.0), the removal row first, then `_removal_base`, then per
        destination ((base + d6) + d7) + d4.  The gain table holds the same
        differences as two lookups, so it is not read.
        """
        cols, cnts, _ = profile
        s = self.sides[side]
        lf = self.lf_list
        a = s.assign.item(v)
        cnts = cnts.tolist()
        rows = self.rows(side).take(cols, axis=1).tolist()
        d = 0.0  # the removal row: lf[y] - lf[y + c] at y = x - c, x in row a
        for x, c in zip(rows[a], cnts):
            d += lf[x - c] - lf[x]
        dv, base = self._removal_base(side, v, a, -d)
        deltas = []
        terms = zip(rows, s.margin.tolist(), s.sizes.tolist(),
                    s.lf_margin.tolist(), s.lf_sizes.tolist(), s.prior.tolist())
        for c, (row, mc, nc, lf_mc, lf_nc, prior) in enumerate(terms):
            if c == a:  # its lookups can run past the list
                deltas.append(math.inf)
                continue
            d6 = 0.0
            for x, n in zip(row, cnts):
                d6 += lf[x] - lf[x + n]
            mc += dv
            lf_mv = lf[mc]
            deltas.append(base + d6 + (lf_mv - lf_mc) + (lf[mc + nc] - lf_nc - lf_mv - prior))
        return np.array(deltas)

    def _move_deltas_array(self, side, v, profile):
        """`_move_deltas` in NumPy array operations.

        The block M[:, cols] is gathered into C order with one more row, k,
        that holds row a less v's counts, so each row sums in the order of a
        1-D sum, and row k's likelihood terms, lf[x] - lf[x + cnts] at
        x = row a - cnts, are the removal's terms negated, whose sum negates
        bit for bit.  With a gain table, each term is one lookup.  The own
        cluster's lookups can run past the factorial table, hence the
        clipped reads; its entry is masked.
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
