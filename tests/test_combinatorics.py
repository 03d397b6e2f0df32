import math

import numpy as np
import pytest

from modlcc.combinatorics import (
    CombinatoricsCache,
    log_binomial,
    log_factorial,
    log_partition_count,
)

from oracles import partition_count, pascal_binomial


def test_log_factorial_small_exact():
    for n in range(0, 21):
        assert log_factorial(n) == pytest.approx(math.log(math.factorial(n)), rel=1e-12)


def test_log_factorial_13():
    assert log_factorial(13) == pytest.approx(math.log(6227020800), rel=1e-12)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_binomial_matches_pascal():
    for n in range(0, 15):
        for k in range(0, n + 1):
            assert log_binomial(n, k) == pytest.approx(
                math.log(pascal_binomial(n, k)), rel=1e-12, abs=1e-12
            )


def test_log_binomial_symmetry():
    for n in range(1, 30):
        for k in range(n + 1):
            assert log_binomial(n, k) == pytest.approx(log_binomial(n, n - k), abs=1e-10)


def test_log_binomial_rejects_out_of_range():
    with pytest.raises(ValueError):
        log_binomial(3, 4)
    with pytest.raises(ValueError):
        log_binomial(3, -1)


def test_partition_count_enumeration_to_12():
    for n in range(1, 13):
        for k in range(1, n + 1):
            expected = math.log(partition_count(n, k))
            assert log_partition_count(n, k) == pytest.approx(expected, rel=1e-9)


def test_partition_count_known_values():
    # divisions of 4 elements into at most 2 / exactly all subsets
    assert log_partition_count(4, 2) == pytest.approx(math.log(8), rel=1e-12)
    assert log_partition_count(4, 4) == pytest.approx(math.log(15), rel=1e-12)


def test_partition_count_clamps_k_to_n():
    assert log_partition_count(5, 50) == log_partition_count(5, 5)


def test_partition_count_monotone_in_k():
    for n in (6, 9, 12):
        vals = [log_partition_count(n, k) for k in range(1, n + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_partition_count_monotone_in_n():
    for k in (2, 3, 5):
        vals = [log_partition_count(n, k) for n in range(k, 20)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_partition_count_rejects_bad_args():
    with pytest.raises(ValueError):
        log_partition_count(0, 1)
    with pytest.raises(ValueError):
        log_partition_count(3, 0)


def test_large_arguments_finite():
    assert np.isfinite(log_partition_count(10000, 100))
    assert np.isfinite(log_factorial(2_000_000))


def test_cache_growth_preserves_values():
    cache = CombinatoricsCache()
    before = cache.log_factorial(3)
    cache.factorial_table(5000)
    assert cache.log_factorial(3) == before
    assert cache.log_factorial(100) == pytest.approx(math.log(math.factorial(100)), rel=1e-12)


def test_partition_row_extension():
    cache = CombinatoricsCache()
    first = cache.log_partition_count(10, 3)
    full = cache.log_partition_count(10, 10)
    assert cache.log_partition_count(10, 3) == first
    assert full == pytest.approx(math.log(partition_count(10, 10)), rel=1e-9)
