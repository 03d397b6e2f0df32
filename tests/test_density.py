import math
from unittest import mock

import numpy as np
import pytest

from modlcc.density import (
    DensityEstimate,
    baseline_estimator,
    estimate_density,
    information_metrics,
    modl_mi_estimate,
    modularity,
    sparse_information_metrics,
)
from modlcc.graph import MultigraphSample, parse_edge_list
from modlcc.model import Coclustering, maximal_model, null_model

from oracles import random_assignment, random_sample
from test_graph import multigraph_sample
from test_model import clustered_example


def test_null_model_density_is_degree_product():
    sample = multigraph_sample()
    est = estimate_density(null_model(sample))
    m = sample.m
    for i in range(sample.n_source):
        for j in range(sample.n_target):
            expected = (sample.out_degrees[i] / m) * (sample.in_degrees[j] / m)
            assert est.p(i, j) == pytest.approx(expected, abs=1e-12)


def test_maximal_model_density_is_empirical():
    sample = multigraph_sample()
    est = estimate_density(maximal_model(sample))
    emp = baseline_estimator(sample, "empirical")
    for (i, j), c in sample.edges.items():
        assert est.p(i, j) == pytest.approx(c / sample.m, abs=1e-12)
        assert emp.p(i, j) == pytest.approx(c / sample.m, abs=1e-12)


def test_density_matrix_normalizes():
    rng = np.random.default_rng(20)
    for _ in range(10):
        sample = random_sample(rng)
        model = Coclustering(
            sample,
            random_assignment(rng, sample.n_source),
            random_assignment(rng, sample.n_target),
        )
        est = estimate_density(model)
        grid = est.matrix()
        assert grid.sum() == pytest.approx(1.0, abs=1e-9)
        assert grid.min() >= 0
        i = int(rng.integers(0, sample.n_source))
        j = int(rng.integers(0, sample.n_target))
        assert est.p(i, j) == pytest.approx(grid[i, j], abs=1e-12)


def test_density_factors_per_cocluster():
    model = clustered_example()
    est = estimate_density(model)
    sample = model.sample
    # within a cocluster, p(i, j) is the cell mass shared by endpoint weight
    i, j = 5, 4  # F (source cluster 0), E (target cluster 1), count 2 of 5
    cell = model.cocluster_grid[0, 1] / sample.m
    expected = cell * (sample.out_degrees[i] / 5) * (sample.in_degrees[j] / 5)
    assert est.p(i, j) == pytest.approx(expected, abs=1e-12)


def test_laplace_estimator_form():
    sample = parse_edge_list("a\tb\n", unify=True, vocabulary=list("abcdefghij"))
    lap = baseline_estimator(sample, "laplace")
    # m=1, 10x10 grid: occupied cell (1+1)/101, empty cells 1/101
    assert lap.p(0, 1) == pytest.approx(2 / 101, abs=1e-12)
    assert lap.p(3, 3) == pytest.approx(1 / 101, abs=1e-12)
    assert lap.matrix().sum() == pytest.approx(1.0, abs=1e-9)


def test_baseline_estimator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        baseline_estimator(multigraph_sample(), "other")


def test_information_metrics_product_distribution_zero_mi():
    ps = np.array([0.2, 0.3, 0.5])
    pt = np.array([0.6, 0.4])
    report = information_metrics(np.outer(ps, pt))
    assert report.mutual_information == pytest.approx(0.0, abs=1e-12)
    assert report.entropy_source == pytest.approx(-(ps * np.log(ps)).sum(), abs=1e-12)


def test_information_metrics_diagonal_mi_is_log_k():
    for k in (2, 3, 5):
        report = information_metrics(np.eye(k) / k)
        assert report.mutual_information == pytest.approx(math.log(k), abs=1e-12)
        assert report.joint_entropy == pytest.approx(math.log(k), abs=1e-12)


def test_information_metrics_validates_input():
    with pytest.raises(ValueError):
        information_metrics(np.array([[0.5, -0.1], [0.3, 0.3]]))
    with pytest.raises(ValueError):
        information_metrics(np.array([[0.5, 0.1]]))  # sums to 0.6


def test_sparse_metrics_match_dense():
    sample = multigraph_sample()
    dense = information_metrics(baseline_estimator(sample, "empirical"))
    sparse = sparse_information_metrics(sample)
    assert sparse.mutual_information == pytest.approx(dense.mutual_information, abs=1e-12)
    assert sparse.joint_entropy == pytest.approx(dense.joint_entropy, abs=1e-12)


def test_modularity_two_disjoint_triangles():
    # each undirected triangle edge appears in both directions: m = 12
    edges = {}
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        edges[(a, b)] = 1
        edges[(b, a)] = 1
    labels = [f"v{i}" for i in range(6)]
    sample = MultigraphSample(labels, labels, edges, unified=True)
    q = modularity(sample, [0, 0, 0, 1, 1, 1])
    # within = 1, expected = 2 * (6/12)^2 = 0.5
    assert q == pytest.approx(0.5, abs=1e-12)


def test_modularity_single_cluster_is_zero():
    from modlcc.synthgen import gen_undirected_pattern

    sample, _ = gen_undirected_pattern(2, 5, 0.8, 0.2, seed=1)
    assert modularity(sample, [0] * 10) == pytest.approx(0.0, abs=1e-12)


def test_modularity_requires_unified_sample():
    sample = parse_edge_list("a\tb\n")
    with pytest.raises(ValueError):
        modularity(sample, [0])


def test_modl_mi_estimate_null_fit_is_zero():
    sample = multigraph_sample()
    full, lh = modl_mi_estimate(null_model(sample), sample)
    assert full == pytest.approx(0.0, abs=1e-12)
    assert lh == pytest.approx(0.0, abs=1e-12)


def test_dpi_merge_never_increases_mi():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        sample = random_sample(rng)
        model = Coclustering(
            sample,
            random_assignment(rng, sample.n_source),
            random_assignment(rng, sample.n_target),
        )
        side = "source" if rng.random() < 0.5 else "target"
        k = model.k_source if side == "source" else model.k_target
        if k < 2:
            continue
        a, b = rng.choice(k, size=2, replace=False)
        merged, _ = model.merge(side, int(a), int(b))
        mi_fine = information_metrics(estimate_density(model)).mutual_information
        mi_coarse = information_metrics(estimate_density(merged)).mutual_information
        assert mi_coarse <= mi_fine + 1e-9
        checked += 1


def test_closed_form_metrics_match_dense_grid():
    # zero-degree vertices come from the declared vocabularies
    rng = np.random.default_rng(23)
    for _ in range(60):
        n_s, n_t = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        vocab_s = [f"s{i}" for i in range(n_s)]
        vocab_t = [f"t{j}" for j in range(n_t)]
        m = int(rng.integers(1, 40))
        lines = "".join(f"s{rng.integers(0, n_s)}\tt{rng.integers(0, n_t)}\t{rng.integers(1, 4)}\n"
                        for _ in range(m))
        sample = parse_edge_list(lines, vocabulary=vocab_s, target_vocabulary=vocab_t)
        model = Coclustering(
            sample,
            random_assignment(rng, sample.n_source),
            random_assignment(rng, sample.n_target),
        )
        est = estimate_density(model)
        dense = information_metrics(est.matrix())
        with mock.patch.object(DensityEstimate, "matrix", side_effect=AssertionError("dense grid")):
            closed = information_metrics(est)
        for name in ("entropy_source", "entropy_target", "joint_entropy", "mutual_information"):
            assert getattr(closed, name) == pytest.approx(getattr(dense, name), rel=1e-12, abs=1e-12)
        assert closed.mutual_information == (
            closed.entropy_source + closed.entropy_target - closed.joint_entropy
        )
