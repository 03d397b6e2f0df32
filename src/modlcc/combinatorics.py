"""Log-space counting quantities: factorials, binomials and partition counts.

Everything is kept in natural logs so that huge counts such as the number
of partitions of 10**4 elements into 10**2 subsets stay representable in
floating point.  All values are in nats.

The table of ln(i!) that every criterion value sums is built by
`_log_factorials`, a step-for-step port of the Cephes `lgam` routine
(S. L. Moshier, *Methods and Programs for Mathematical Functions*, 1989)
on integer arguments, so that it matches `scipy.special.gammaln` bit for
bit without importing SciPy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CombinatoricsCache",
    "log_factorial",
    "log_binomial",
    "log_partition_count",
    "shared_cache",
]


# Cephes lgam: the coefficients of its Stirling-series correction for
# 13 <= x < 1000, highest power first, and log(sqrt(2 pi))
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


# entries per vectorized pass of `_log_factorials`: its temporaries stay
# near 4 MB, so a large table peaks at about its own size plus the old one
_BLOCK = 1 << 16


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """ln(i!) for lo <= i < hi, computed as Cephes `lgam(i + 1)` computes it.

    For x = i + 1 <= 12 lgam takes the log of the exact product i!.  From
    x = 13 on it sums Stirling's series, (x - 1/2) log x - x + log sqrt(2 pi),
    plus a correction in p = 1/x^2: a degree-4 polynomial below x = 1000, a
    three-term one up to x = 1e8 and none beyond.  The arithmetic below is
    lgam's, operation for operation, and log x comes from `math.log`, the C
    library's `log` that lgam calls: `np.log` rounds differently on some
    integers, and so does `math.lgamma` against lgam.
    """
    out = np.empty(hi - lo, dtype=np.float64)
    exact = range(lo, min(hi, 12))
    out[: len(exact)] = [math.log(float(math.factorial(i))) for i in exact]
    for start in range(max(lo, 12), hi, _BLOCK):
        stop = min(hi, start + _BLOCK)
        x = np.arange(start + 1, stop + 1, dtype=np.float64)
        log_x = np.fromiter(map(math.log, range(start + 1, stop + 1)), np.float64, len(x))
        q = (x - 0.5) * log_x - x + _LS2PI
        p = 1.0 / (x * x)
        poly = np.full_like(p, _LGAM_A[0])
        for c in _LGAM_A[1:]:
            poly = poly * p + c
        mid = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
               + 0.0833333333333333333333)
        q += np.where(x > 1.0e8, 0.0, np.where(x < 1000.0, poly, mid) / x)
        out[start - lo: stop - lo] = q
    return out


class CombinatoricsCache:
    """Growable tables of log n! and log B(n, k).

    The factorial table holds ln(i!) for 0 <= i < its length, from
    `_log_factorials`; it starts at 1,025 entries and at least doubles each
    time it grows, computing only the new entries.

    B(n, k) counts the divisions of n labeled elements into at most k
    subsets (empty subsets allowed): the prefix sums over i of the
    Stirling numbers of the second kind S(n, i).  Rows are cached per n
    and recomputed with a wider k range on demand.
    """

    def __init__(self):
        # ln(i!) for i <= 1024 to start; `factorial_table` grows it on demand
        self._lf = _log_factorials(0, 1025)
        self._partition_rows: dict[int, np.ndarray] = {}

    # -- factorials -------------------------------------------------------

    def factorial_table(self, n: int) -> np.ndarray:
        """Return a table t with t[i] = ln(i!) valid for 0 <= i <= n."""
        if n >= len(self._lf):
            size = max(n + 1, 2 * len(self._lf))
            self._lf = np.concatenate((self._lf, _log_factorials(len(self._lf), size)))
        return self._lf

    def log_factorial(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"log_factorial requires n >= 0, got {n}")
        return float(self.factorial_table(n)[n])

    def log_binomial(self, n: int, k: int) -> float:
        if k < 0 or k > n:
            raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
        lf = self.factorial_table(n)
        return float(lf[n] - lf[k] - lf[n - k])

    # -- partition counts B(n, k) ------------------------------------------

    def log_partition_count(self, n: int, k: int) -> float:
        """ln B(n, k), the number of partitions of n elements into at most k subsets.

        Clamps k to n (B(n, k) = B(n, n) for k >= n, the Bell number).
        """
        if n < 1:
            raise ValueError(f"log_partition_count requires n >= 1, got n={n}")
        if k < 1:
            raise ValueError(f"log_partition_count requires k >= 1, got k={k}")
        k = min(k, n)
        row = self._partition_row(n, k)
        return float(row[k - 1])

    def _partition_row(self, n: int, kmax: int) -> np.ndarray:
        """Row of ln B(n, k) for k = 1..kmax (kmax <= n), cached per n."""
        row = self._partition_rows.get(n)
        if row is not None and len(row) >= kmax:
            return row
        # Stirling recurrence S(n, i) = i S(n-1, i) + S(n-1, i-1),
        # carried in log space column-by-column up to kmax.
        logs = np.full(kmax, -np.inf)
        logs[0] = 0.0  # S(1, 1) = 1
        logi = np.log(np.arange(1, kmax + 1, dtype=np.float64))
        for _ in range(2, n + 1):
            shifted = np.concatenate(([-np.inf], logs[:-1]))
            logs = np.logaddexp(logi + logs, shifted)
        row = np.logaddexp.accumulate(logs)
        self._partition_rows[n] = row
        return row


shared_cache = CombinatoricsCache()


def log_factorial(n: int) -> float:
    """ln(n!)."""
    return shared_cache.log_factorial(n)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k), computed from log factorials."""
    return shared_cache.log_binomial(n, k)


def log_partition_count(n: int, k: int) -> float:
    """ln B(n, k): partitions of n labeled elements into at most k subsets."""
    return shared_cache.log_partition_count(n, k)
