"""Log-space counting quantities: factorials, binomials and partition counts.

Everything is kept in natural logs so that huge counts such as the number
of partitions of 10**4 elements into 10**2 subsets stay representable in
floating point.  All values are in nats.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = [
    "CombinatoricsCache",
    "log_factorial",
    "log_binomial",
    "log_partition_count",
    "shared_cache",
]


class CombinatoricsCache:
    """Growable tables of log n! and log B(n, k).

    B(n, k) counts the divisions of n labeled elements into at most k
    subsets (empty subsets allowed): the prefix sums over i of the
    Stirling numbers of the second kind S(n, i).  Rows are cached per n
    and recomputed with a wider k range on demand.
    """

    def __init__(self):
        # ln(i!) for i <= 1024 to start; `factorial_table` grows it on demand
        self._lf = gammaln(np.arange(1025, dtype=np.float64) + 1.0)
        self._partition_rows: dict[int, np.ndarray] = {}

    # -- factorials -------------------------------------------------------

    def factorial_table(self, n: int) -> np.ndarray:
        """Return a table t with t[i] = ln(i!) valid for 0 <= i <= n."""
        if n >= len(self._lf):
            size = max(n + 1, 2 * len(self._lf))
            self._lf = gammaln(np.arange(size, dtype=np.float64) + 1.0)
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
