import math

import numpy as np
import pytest

from modlcc.combinatorics import (
    CombinatoricsCache,
    _log_factorials,
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
    lengths = [len(cache.factorial_table(0))]
    for n in (3, 1024, 1025, 2100, 9000, 9001):
        lengths.append(len(cache.factorial_table(n)))
    # each growth takes max(n + 1, 2 * length) entries
    assert lengths == [1025, 1025, 1025, 2050, 4100, 9001, 18002]
    assert cache.factorial_table(0).tobytes() == _log_factorials(0, 18002).tobytes()
    assert cache.log_factorial(100) == pytest.approx(math.log(math.factorial(100)), rel=1e-12)


def test_factorial_list_is_a_prefix_of_the_table_as_python_floats():
    cache = CombinatoricsCache()
    lst = cache.factorial_list(10)
    assert len(lst) == 11
    # extended in place as far as asked, growing the table when it must
    lengths = []
    for n in (5, 700, 3000):
        assert cache.factorial_list(n) is lst
        lengths.append(len(lst))
    assert lengths == [11, 701, 3001]
    assert len(cache.factorial_table(0)) == 3001  # max(n + 1, 2 * 1025)
    assert all(type(x) is float for x in lst)
    assert np.array(lst).tobytes() == cache.factorial_table(0)[:3001].tobytes()


# ln(i!) as scipy.special.gammaln(i + 1) gives it (SciPy 1.17.1), at
# x = i + 1 on both sides of lgam's bound at x = 13 and around x = 1000,
# and at x = 40, the largest x where its two Stirling corrections round
# differently: from x = 41 on they agree, and from x = 1e8 on either is
# below half an ulp of the sum, so the bits cannot show those two bounds
PINNED_LOG_FACTORIALS = {
    0: "0x0.0p+0",
    1: "0x0.0p+0",
    11: "0x1.180973f3a8d74p+4",
    12: "0x1.3fcba16d50143p+4",
    13: "0x1.68d5a9c3b32cdp+4",
    39: "0x1.aa86ec2969811p+6",
    998: "0x1.70a504c9302eep+12",
    999: "0x1.711386da7cab6p+12",
    1000: "0x1.71820d04e2eb7p+12",
    123456: "0x1.433807e136b0dp+20",
}


@pytest.mark.parametrize("i", sorted(PINNED_LOG_FACTORIALS))
def test_log_factorials_match_pinned_gammaln_values(i):
    assert float(_log_factorials(i, i + 1)[0]).hex() == PINNED_LOG_FACTORIALS[i]
    assert float(_log_factorials(0, i + 2)[i]).hex() == PINNED_LOG_FACTORIALS[i]


def _gammaln_table(lo, hi):
    special = pytest.importorskip("scipy.special")
    return special.gammaln(np.arange(lo, hi, dtype=np.float64) + 1.0)


def test_log_factorials_equal_gammaln_bit_for_bit():
    expected = _gammaln_table(0, 2**22)
    assert np.array_equal(_log_factorials(0, 2**22).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("lo, hi", [(9, 16), (995, 1006), (10**8 - 500, 10**8 + 501)])
def test_log_factorials_equal_gammaln_across_branches(lo, hi):
    expected = _gammaln_table(lo, hi)
    assert np.array_equal(_log_factorials(lo, hi).view(np.int64), expected.view(np.int64))


def test_grown_factorial_table_equals_gammaln():
    expected = _gammaln_table(0, 70_000)
    cache = CombinatoricsCache()
    for n in (5, 2000, 2050, 30_000, 69_999):
        table = cache.factorial_table(n)
    assert len(table) == 70_000
    assert np.array_equal(table.view(np.int64), expected.view(np.int64))


def test_partition_row_extension():
    cache = CombinatoricsCache()
    first = cache.log_partition_count(10, 3)
    full = cache.log_partition_count(10, 10)
    assert cache.log_partition_count(10, 3) == first
    assert full == pytest.approx(math.log(partition_count(10, 10)), rel=1e-9)
