"""Internal mutable coclustering state with incremental criterion updates.

The engine keeps a dense cluster-level contingency matrix over slot ids
(slots are never renumbered while the engine lives; deactivated slots keep
zeroed rows/columns).  All criterion deltas are computed from log-factorial
table lookups, so incremental and full evaluations agree to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .combinatorics import CombinatoricsCache, shared_cache

_SIDES = ("source", "target")
# entries of the largest per-sweep gain table (2 MB)
_GAIN_TABLE_MAX = 1 << 18


class Engine:
    def __init__(self, sample, s_assign, t_assign, cache: CombinatoricsCache | None = None):
        self.sample = sample
        self.cache = cache or shared_cache
        self.nS = sample.n_source
        self.nT = sample.n_target
        self.m = sample.m

        self.s_assign = np.asarray(s_assign, dtype=np.int64).copy()
        self.t_assign = np.asarray(t_assign, dtype=np.int64).copy()
        kS = int(self.s_assign.max()) + 1
        kT = int(self.t_assign.max()) + 1

        flat = self.s_assign[sample.src_idx] * kT + self.t_assign[sample.tgt_idx]
        self.M = np.bincount(flat, weights=sample.counts, minlength=kS * kT)
        self.M = self.M.astype(np.int64).reshape(kS, kT)
        self.s_sizes = np.bincount(self.s_assign, minlength=kS).astype(np.int64)
        self.t_sizes = np.bincount(self.t_assign, minlength=kT).astype(np.int64)
        self.s_margin = self.M.sum(axis=1)
        self.t_margin = self.M.sum(axis=0)
        self.s_active = np.ones(kS, dtype=bool)
        self.t_active = np.ones(kT, dtype=bool)
        self.kS = kS
        self.kT = kT

        self._ensure_lf()
        # warm the partition-count rows up to the initial cluster counts
        self.cache.log_partition_count(self.nS, kS)
        self.cache.log_partition_count(self.nT, kT)
        self._csr = {}

    # -- shared tables ------------------------------------------------------

    def _ensure_lf(self):
        top = self.m + max(self.kS * self.kT, self.nS, self.nT) + 2
        self.lf = self.cache.factorial_table(top)

    def _logB(self, n, k):
        return self.cache.log_partition_count(n, k)

    def _lnC(self, n, k):
        lf = self.lf
        return lf[n] - lf[k] - lf[n - k]

    # -- views ---------------------------------------------------------------

    def active_slots(self, side):
        mask = self.s_active if side == "source" else self.t_active
        return np.flatnonzero(mask)

    def _state(self, side):
        if side == "source":
            return (self.s_assign, self.s_sizes, self.s_margin, self.s_active, self.M, self.nS)
        if side == "target":
            return (self.t_assign, self.t_sizes, self.t_margin, self.t_active, self.M.T, self.nT)
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")

    def k(self, side):
        return self.kS if side == "source" else self.kT

    # -- criterion ------------------------------------------------------------

    def criterion_terms(self):
        """The eight additive terms of the evaluation criterion, in nats."""
        self._ensure_lf()
        lf = self.lf
        sidx = self.active_slots("source")
        tidx = self.active_slots("target")
        kE = self.kS * self.kT
        t1 = math.log(self.nS) + math.log(self.nT)
        t2 = self._logB(self.nS, self.kS) + self._logB(self.nT, self.kT)
        t3 = float(self._lnC(self.m + kE - 1, kE - 1))

        def margin_prior(margin, sizes, idx):
            mar, sz = margin[idx], sizes[idx]
            return float((lf[mar + sz - 1] - lf[sz - 1] - lf[mar]).sum())

        t4 = margin_prior(self.s_margin, self.s_sizes, sidx)
        t5 = margin_prior(self.t_margin, self.t_sizes, tidx)
        sub = self.M[np.ix_(sidx, tidx)]
        t6 = float(lf[self.m] - lf[sub].sum())
        t7 = float(lf[self.s_margin[sidx]].sum() - lf[self.sample.out_degrees].sum())
        t8 = float(lf[self.t_margin[tidx]].sum() - lf[self.sample.in_degrees].sum())
        return (t1, t2, t3, t4, t5, t6, t7, t8)

    def criterion_total(self):
        return float(sum(self.criterion_terms()))

    # -- merges ----------------------------------------------------------------

    def merge_global(self, side):
        """Criterion delta of the k-dependent terms for one merge on `side`."""
        dB, dC = self._count_change(side, -1)
        return float(dB + dC)

    def merge_struct(self, side, a, b):
        """k-independent part of the merge delta (margin priors + likelihood)."""
        _, sizes, margin, active, M, _ = self._state(side)
        if a == b or not (active[a] and active[b]):
            raise ValueError(f"invalid cluster pair ({a}, {b}) on {side} side")
        lf = self.lf
        ra, rb = M[a], M[b]
        d = float((lf[ra] + lf[rb] - lf[ra + rb]).sum())
        ma, mb = margin[a], margin[b]
        na, nb = sizes[a], sizes[b]
        d += float(
            self._lnC(ma + mb + na + nb - 1, na + nb - 1)
            - self._lnC(ma + na - 1, na - 1)
            - self._lnC(mb + nb - 1, nb - 1)
        )
        d += float(lf[ma + mb] - lf[ma] - lf[mb])
        return d

    def merge_delta(self, side, a, b):
        return self.merge_struct(side, a, b) + self.merge_global(side)

    def apply_merge(self, side, a, b):
        """Fuse clusters a and b on `side`; the lower slot id survives."""
        keep, drop = (a, b) if a < b else (b, a)
        if side == "source":
            self.M[keep] += self.M[drop]
            self.M[drop] = 0
            self.s_margin[keep] += self.s_margin[drop]
            self.s_margin[drop] = 0
            self.s_sizes[keep] += self.s_sizes[drop]
            self.s_sizes[drop] = 0
            self.s_active[drop] = False
            self.s_assign[self.s_assign == drop] = keep
            self.kS -= 1
        else:
            self.M[:, keep] += self.M[:, drop]
            self.M[:, drop] = 0
            self.t_margin[keep] += self.t_margin[drop]
            self.t_margin[drop] = 0
            self.t_sizes[keep] += self.t_sizes[drop]
            self.t_sizes[drop] = 0
            self.t_active[drop] = False
            self.t_assign[self.t_assign == drop] = keep
            self.kT -= 1
        return keep

    # -- vertex moves -------------------------------------------------------------

    def _vertex_csr(self, side):
        """Per-vertex adjacency (other-side vertex indices and counts)."""
        if side in self._csr:
            return self._csr[side]
        s = self.sample
        if side == "source":
            order = np.argsort(s.src_idx, kind="stable")
            own, other = s.src_idx[order], s.tgt_idx[order]
            n = self.nS
        else:
            order = np.argsort(s.tgt_idx, kind="stable")
            own, other = s.tgt_idx[order], s.src_idx[order]
            n = self.nT
        cnt = s.counts[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, own + 1, 1)
        indptr = np.cumsum(indptr)
        self._csr[side] = (indptr, other, cnt)
        return self._csr[side]

    def vertex_profile(self, side, v):
        """Other-side cluster slots touched by vertex v, with edge counts."""
        indptr, other, cnt = self._vertex_csr(side)
        lo, hi = indptr[v], indptr[v + 1]
        assign = self.t_assign if side == "source" else self.s_assign
        cap = self.M.shape[1] if side == "source" else self.M.shape[0]
        dense = np.bincount(assign[other[lo:hi]], weights=cnt[lo:hi], minlength=cap).astype(np.int64)
        cols = np.flatnonzero(dense)
        return cols, dense[cols]

    def vertex_profiles(self, side):
        """(cols, cnts, gain) profile of every vertex on `side`, in one pass over its edges.

        cols and cnts are the vertex's `vertex_profile`.  The profiles hold
        while the other side's partition is unchanged, as during a sweep
        over `side`.  gain is None, or (table, offsets) with
        table[offsets[i] + x] == lf[x] - lf[x + cnts[i]] for every count x
        that a destination cell can hold, so that `move_options` reads each
        likelihood term with one lookup in place of two.  The table is built
        when it is smaller than the move blocks it serves.
        """
        indptr, other, cnt = self._vertex_csr(side)
        assign = self.t_assign if side == "source" else self.s_assign
        cap = self.M.shape[1] if side == "source" else self.M.shape[0]
        starts = np.arange(len(indptr), dtype=np.int64) * cap
        keys, inverse = np.unique(np.repeat(starts[:-1], np.diff(indptr)) + assign[other], return_inverse=True)
        cnts = np.bincount(inverse, weights=cnt, minlength=len(keys)).astype(np.int64)
        cols = keys % cap
        gain = self._gain_table(side, cnts)
        ptr = np.searchsorted(keys, starts).tolist()
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
        width = int((self.t_margin if side == "source" else self.s_margin).max()) + 1
        rows = int(cnts.max())
        if rows * width > min(len(cnts) * self.k(side), _GAIN_TABLE_MAX):
            return None
        x = np.arange(width)
        # entries past the factorial table are never read
        table = self.lf[:width] - self.lf.take(x + np.arange(1, rows + 1)[:, None], mode="clip")
        return table.ravel(), (cnts - 1) * width

    def _removal_base(self, side, v, cols, cnts):
        """Delta of taking vertex v out of its current cluster (dest-independent).

        The scalar terms are Python floats: the same IEEE operations as on
        NumPy scalars, at a fraction of the call overhead.
        """
        assign, sizes, margin, _, M, _ = self._state(side)
        lf = self.lf
        at = lf.item
        a = int(assign[v])
        dv = int(self._degrees(side)[v])
        na, ma = int(sizes[a]), int(margin[a])
        rowa = M[a, cols]
        base = float((lf[rowa] - lf[rowa - cnts]).sum())
        base += at(ma - dv) - at(ma)
        base -= at(ma + na - 1) - at(na - 1) - at(ma)
        if na > 1:
            base += at(ma - dv + na - 2) - at(na - 2) - at(ma - dv)
        else:
            # cluster a disappears: the cluster-count terms change
            dB, dC = self._count_change(side, -1)
            base += dB
            base += dC
        return dv, base

    def _degrees(self, side):
        return self.sample.out_degrees if side == "source" else self.sample.in_degrees

    def _count_change(self, side, step):
        """Deltas (partition prior, cocluster prior) of `side` gaining `step` (+-1) clusters."""
        n = self.nS if side == "source" else self.nT
        k = self.k(side)
        k_other = self.kT if side == "source" else self.kS
        kE_old, kE_new = k * k_other, (k + step) * k_other
        dB = self._logB(n, k + step) - self._logB(n, k)
        dC = self._lnC(self.m + kE_new - 1, kE_new - 1) - self._lnC(self.m + kE_old - 1, kE_old - 1)
        return dB, float(dC)

    def _move_deltas(self, side, v, dests, profile=None):
        """Deltas of moving vertex v into each of the active slots `dests`.

        `profile` is v's (cols, cnts, gain) from `vertex_profiles`, if known.
        The destination block is gathered as M[:, cols][dests]: two
        single-axis gathers that give the same C-ordered block as np.ix_, on
        both sides, so each row sums in the same order, at a fraction of the
        cost.  With a gain table, each cell's likelihood term is one lookup.
        """
        _, sizes, margin, _, M, _ = self._state(side)
        cols, cnts, gain = profile if profile is not None else (*self.vertex_profile(side, v), None)
        dv, base = self._removal_base(side, v, cols, cnts)
        lf = self.lf
        sub = M[:, cols][dests]
        if gain is None:
            d6 = lf.take(sub)
            np.subtract(d6, lf.take(sub + cnts), out=d6)
        else:
            table, offsets = gain
            sub += offsets
            d6 = table.take(sub)
        d6 = d6.sum(axis=1)
        mc = margin[dests]
        nc = sizes[dests]
        d7 = lf[mc + dv] - lf[mc]
        d4 = self._lnC(mc + dv + nc, nc) - self._lnC(mc + nc - 1, nc - 1)
        return base + d6 + d7 + d4

    def move_options(self, side, v, profile=None):
        """Deltas of moving vertex v to every other active cluster on `side`.

        `profile` is v's entry of `vertex_profiles`, if known.  Returns (current
        cluster, destination slots, delta array).
        """
        assign, _, _, active, _, _ = self._state(side)
        a = assign[v]
        dests = np.flatnonzero(active)
        dests = dests[dests != a]
        if len(dests) == 0:
            return a, dests, np.empty(0)
        return a, dests, self._move_deltas(side, v, dests, profile)

    def move_delta(self, side, v, dest):
        """Delta of moving vertex v to cluster `dest` (None = fresh cluster)."""
        assign, sizes, _, active, _, _ = self._state(side)
        a = assign[v]
        if dest is not None and dest == a:
            return 0.0
        if dest is None and sizes[a] == 1:
            # singleton to fresh cluster: pure relabeling
            return 0.0
        if dest is not None:
            if not active[dest]:
                raise ValueError(f"destination cluster {dest} is not active")
            return float(self._move_deltas(side, v, np.array([dest]))[0])
        cols, cnts = self.vertex_profile(side, v)
        dv, base = self._removal_base(side, v, cols, cnts)
        lf = self.lf
        d6 = float(-lf[cnts].sum())
        d7 = float(lf[dv])
        dB, dC = self._count_change(side, 1)
        return base + d6 + d7 + (dB + dC)

    def apply_move(self, side, v, dest, profile=None):
        """Move vertex v to cluster `dest` (None = fresh slot); returns the slot.

        `profile` is v's entry of `vertex_profiles`, if known.
        """
        cols, cnts = profile[:2] if profile is not None else self.vertex_profile(side, v)
        dv = int(self._degrees(side)[v])
        if side == "source":
            a = self.s_assign[v]
            if dest is None:
                dest = self._grow_slot("source")
            if dest == a:
                return a
            self.M[a, cols] -= cnts
            self.M[dest, cols] += cnts
            self.s_margin[a] -= dv
            self.s_margin[dest] += dv
            self.s_sizes[a] -= 1
            self.s_sizes[dest] += 1
            self.s_assign[v] = dest
            if self.s_sizes[a] == 0:
                self.s_active[a] = False
                self.kS -= 1
        else:
            a = self.t_assign[v]
            if dest is None:
                dest = self._grow_slot("target")
            if dest == a:
                return a
            self.M[cols, a] -= cnts
            self.M[cols, dest] += cnts
            self.t_margin[a] -= dv
            self.t_margin[dest] += dv
            self.t_sizes[a] -= 1
            self.t_sizes[dest] += 1
            self.t_assign[v] = dest
            if self.t_sizes[a] == 0:
                self.t_active[a] = False
                self.kT -= 1
        return dest

    def _grow_slot(self, side):
        """Activate a fresh slot, extending the matrix if needed."""
        if side == "source":
            inactive = np.flatnonzero(~self.s_active)
            if len(inactive):
                slot = int(inactive[-1])  # highest slot => highest compact id
            else:
                slot = self.M.shape[0]
                self.M = np.vstack([self.M, np.zeros((1, self.M.shape[1]), dtype=np.int64)])
                self.s_sizes = np.append(self.s_sizes, 0)
                self.s_margin = np.append(self.s_margin, 0)
                self.s_active = np.append(self.s_active, False)
            self.s_active[slot] = True
            self.kS += 1
            self._ensure_lf()
            return slot
        inactive = np.flatnonzero(~self.t_active)
        if len(inactive):
            slot = int(inactive[-1])
        else:
            slot = self.M.shape[1]
            self.M = np.hstack([self.M, np.zeros((self.M.shape[0], 1), dtype=np.int64)])
            self.t_sizes = np.append(self.t_sizes, 0)
            self.t_margin = np.append(self.t_margin, 0)
            self.t_active = np.append(self.t_active, False)
        self.t_active[slot] = True
        self.kT += 1
        self._ensure_lf()
        return slot

    # -- export -------------------------------------------------------------------

    def compact_assignments(self):
        """Assignments renumbered to 0..k-1, preserving slot order."""
        s_map = -np.ones(len(self.s_active), dtype=np.int64)
        s_map[self.s_active] = np.arange(self.kS)
        t_map = -np.ones(len(self.t_active), dtype=np.int64)
        t_map[self.t_active] = np.arange(self.kT)
        return s_map[self.s_assign], t_map[self.t_assign]

    def public_pair(self, side, a_slot, b_slot):
        """Compact (renumbered) ids of a slot pair, lower id first."""
        active = self.s_active if side == "source" else self.t_active
        ranks = np.cumsum(active) - 1
        pa, pb = int(ranks[a_slot]), int(ranks[b_slot])
        return (pa, pb) if pa < pb else (pb, pa)
