import numpy as np
import pytest

from modlcc.synthgen import (
    GeneratorError,
    GeneratorSpec,
    TABLE_BLOCKMODEL_MATRIX,
    TABLE_BLOCKMODEL_SIZES,
    _sample_from_cells,
    circular_probability_table,
    gen_block_diagonal,
    gen_blockmodel,
    gen_circular,
    gen_undirected_pattern,
    generate,
)


def test_circular_probability_table_properties():
    for n in (4, 10, 100):
        p = circular_probability_table(n)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p, p.T)
        # self-loop distance 2/n versus diameter 2: probability ratio n
        assert p.max() / p.min() == pytest.approx(n, rel=1e-9)
        # circular symmetry: probability depends only on index distance
        assert p[0, 1] == pytest.approx(p[2, 3], rel=1e-9)


def test_circular_sample_counts():
    sample, p = gen_circular(50, 2000, seed=5)
    assert sample.m == 2000
    assert sample.n_source == sample.n_target == 50
    assert sample.unified
    assert p.shape == (50, 50)


@pytest.mark.parametrize("n, m, seed", [(2, 1, 0), (7, 40, 1), (30, 5000, 2), (120, 3000, 3)])
def test_circular_sample_equals_its_edge_expansion(n, m, seed):
    """The multinomial's cells, passed to the sample as they are, give the
    sample of the m edges they expand to."""
    sample, p = gen_circular(n, m, seed)
    counts = np.random.default_rng(seed).multinomial(m, p.ravel()).reshape(n, n)
    src, tgt = np.nonzero(counts)
    reps = counts[src, tgt]
    want = _sample_from_cells(n, np.repeat(src, reps), np.repeat(tgt, reps))
    for name in ("src_idx", "tgt_idx", "counts", "out_degrees", "in_degrees"):
        got, expected = getattr(sample, name), getattr(want, name)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert sample.source_labels == want.source_labels and sample.target_labels == want.target_labels
    assert sample.m == want.m == m and sample.unified and want.unified


def test_circular_empirical_frequencies_track_table():
    n, m = 10, 200000
    sample, p = gen_circular(n, m, seed=6)
    grid = np.zeros((n, n))
    grid[sample.src_idx, sample.tgt_idx] = sample.counts
    # multinomial cell std is sqrt(m p (1-p)); allow 5 sigma
    err = np.abs(grid / m - p)
    tol = 5 * np.sqrt(p * (1 - p) / m) + 1e-9
    assert np.all(err <= tol)


def test_block_diagonal_pure_stays_in_blocks():
    sample, blocks = gen_block_diagonal(10, 2, 0.0, 500, seed=1)
    assert sample.m == 500
    assert blocks.tolist() == [0] * 5 + [1] * 5
    for (i, j), c in sample.edges.items():
        assert blocks[i] == blocks[j]


def test_block_diagonal_near_equal_split():
    _, blocks = gen_block_diagonal(11, 3, 0.0, 10, seed=2)
    sizes = np.bincount(blocks)
    assert sizes.tolist() == [4, 4, 3]


def test_block_diagonal_full_noise_is_uniform():
    n, m = 10, 100000
    sample, _ = gen_block_diagonal(n, 2, 1.0, m, seed=3)
    grid = np.zeros((n, n))
    grid[sample.src_idx, sample.tgt_idx] = sample.counts
    p = 1.0 / (n * n)
    assert np.all(np.abs(grid / m - p) <= 5 * np.sqrt(p * (1 - p) / m))


def test_block_diagonal_validation():
    with pytest.raises(GeneratorError):
        gen_block_diagonal(5, 6, 0.0, 10, seed=0)
    with pytest.raises(GeneratorError):
        gen_block_diagonal(5, 2, 1.5, 10, seed=0)
    with pytest.raises(GeneratorError):
        gen_block_diagonal(5, 2, 0.0, 0, seed=0)


def test_blockmodel_default_table():
    sample, (labels, _) = gen_blockmodel(m=50000, seed=4)
    assert sample.n_source == sum(TABLE_BLOCKMODEL_SIZES)
    assert np.bincount(labels).tolist() == list(TABLE_BLOCKMODEL_SIZES)
    matrix = np.asarray(TABLE_BLOCKMODEL_MATRIX)
    observed = np.zeros_like(matrix)
    for (i, j), c in sample.edges.items():
        observed[labels[i], labels[j]] += c
    observed /= sample.m
    # zero cells stay exactly empty; nonzero cells within 5 sigma
    assert np.all(observed[matrix == 0] == 0)
    tol = 5 * np.sqrt(matrix * (1 - matrix) / sample.m)
    assert np.all(np.abs(observed - matrix) <= tol + 1e-12)


def test_blockmodel_single_edge():
    sample, _ = gen_blockmodel(m=1, seed=0)
    assert sample.m == 1


def test_blockmodel_validation():
    with pytest.raises(GeneratorError):
        gen_blockmodel(matrix=[[0.5, 0.1], [0.1, 0.1]], cluster_sizes=[2, 2], m=5)
    with pytest.raises(GeneratorError):
        gen_blockmodel(matrix=[[1.0]], cluster_sizes=[2, 2], m=5)


def test_undirected_pattern_symmetric_no_loops():
    sample, labels = gen_undirected_pattern(4, 10, 0.8, 0.1, seed=7)
    assert sample.m % 2 == 0
    for (i, j), c in sample.edges.items():
        assert i != j
        assert sample.edges[(j, i)] == c
    assert np.bincount(labels).tolist() == [10, 10, 10, 10]


def test_undirected_pattern_coclique_has_empty_diagonal_blocks():
    sample, labels = gen_undirected_pattern(4, 10, 0.0, 0.5, seed=8)
    for (i, j), _ in sample.edges.items():
        assert labels[i] != labels[j]


def test_undirected_pattern_no_edges_error():
    with pytest.raises(GeneratorError, match="no edges"):
        gen_undirected_pattern(2, 3, 0.0, 0.0, seed=0)


def test_determinism_byte_identical():
    cases = [
        lambda s: gen_circular(20, 500, s)[0],
        lambda s: gen_block_diagonal(10, 2, 0.3, 400, s)[0],
        lambda s: gen_blockmodel(m=300, seed=s)[0],
        lambda s: gen_undirected_pattern(3, 5, 0.7, 0.2, s)[0],
    ]
    for make in cases:
        assert make(123).serialize() == make(123).serialize()
        assert make(123).serialize() != make(124).serialize()


def test_generate_dispatch():
    spec = GeneratorSpec("block_diagonal", m=100, seed=1, params={"n": 10, "blocks": 2})
    sample, blocks = generate(spec)
    assert sample.m == 100
    with pytest.raises(GeneratorError, match="unknown family"):
        generate(GeneratorSpec("nope", m=1))
