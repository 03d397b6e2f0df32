import math

import numpy as np
import pytest

from modlcc import _engine
from modlcc.combinatorics import CombinatoricsCache
from modlcc.graph import MultigraphSample, parse_edge_list
from modlcc.model import (
    AuditError,
    Coclustering,
    ModelError,
    NEW_CLUSTER,
    from_partitions,
    maximal_model,
    null_model,
)
from modlcc.synthgen import gen_block_diagonal

from oracles import (
    oracle_criterion,
    pascal_binomial,
    multinomial_orderings,
    random_assignment,
    random_sample,
)
from test_graph import multigraph_sample, MULTI_TSV, VOCAB


def clustered_example():
    """Two source clusters x three target clusters on the 13-edge multigraph."""
    sample = multigraph_sample()
    source = [["A", "D", "F"], ["B", "E", "C", "G"]]
    target = [["A", "D", "F"], ["B", "E"], ["C", "G"]]
    return from_partitions(sample, source, target)


def grid_cells(grid):
    """Nonzero cells of a cocluster grid as {(i, j): count}."""
    i, j = np.nonzero(grid)
    return dict(zip(zip(i.tolist(), j.tolist()), grid[i, j].tolist()))


def test_clustered_example_counts():
    model = clustered_example()
    assert model.cocluster_grid.tolist() == [[0, 5, 0], [0, 0, 8]]
    assert grid_cells(model.cocluster_grid) == {(0, 1): 5, (1, 2): 8}
    assert model.to_dict()["cocluster_counts"] == [[0, 1, 5], [1, 2, 8]]
    assert model.source_cluster_sizes.tolist() == [3, 4]
    assert model.target_cluster_sizes.tolist() == [3, 2, 2]
    assert model.source_cluster_margins.tolist() == [5, 8]
    assert model.target_cluster_margins.tolist() == [0, 5, 8]


def test_clustered_example_cocluster_prior_term():
    model = clustered_example()
    # m=13, six coclusters: the edge-distribution prior counts C(18, 5) layouts
    expected = math.log(pascal_binomial(18, 5))
    assert pascal_binomial(18, 5) == 8568
    assert model.criterion().cocluster_prior == pytest.approx(expected, rel=1e-12)


def test_null_model_matches_oracle():
    sample = multigraph_sample()
    model = null_model(sample)
    expected = oracle_criterion(sample, [0] * 7, [0] * 7)
    assert model.criterion().total == pytest.approx(expected, rel=1e-9)


def test_maximal_model_counts_are_adjacency():
    sample = multigraph_sample()
    model = maximal_model(sample)
    assert model.k_source == 7 and model.k_target == 7
    assert grid_cells(model.cocluster_grid) == sample.edges
    expected = oracle_criterion(sample, range(7), range(7))
    assert model.criterion().total == pytest.approx(expected, rel=1e-9)


def test_one_vertex_one_edge_total_zero():
    sample = parse_edge_list("x\ty\n")
    assert null_model(sample).criterion().total == pytest.approx(0.0, abs=1e-12)


def test_criterion_terms_nonnegative_and_sum():
    model = clustered_example()
    br = model.criterion()
    terms = [
        br.cluster_number_prior, br.partition_prior, br.cocluster_prior,
        br.source_margin_prior, br.target_margin_prior, br.cocluster_likelihood,
        br.source_degree_likelihood, br.target_degree_likelihood,
    ]
    assert all(t >= 0 for t in terms)
    assert br.total == pytest.approx(sum(terms), rel=1e-9)


def test_criterion_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        sample = random_sample(rng)
        s = random_assignment(rng, sample.n_source)
        t = random_assignment(rng, sample.n_target)
        model = Coclustering(sample, s, t)
        expected = oracle_criterion(sample, s, t)
        assert model.criterion().total == pytest.approx(expected, rel=1e-9)


def test_cocluster_likelihood_matches_permutation_enumeration():
    # ln m! - sum ln m_ij! is the log number of distinct edge orderings
    sample = parse_edge_list("A\tD\nA\tF\nB\tA\nB\tC\nB\tD\nD\tG\nF\tG\nG\tE\n")
    model = Coclustering(sample, [0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2])
    counts = [c for row in model.cocluster_grid for c in row]
    expected = math.log(multinomial_orderings(counts))
    assert model.criterion().cocluster_likelihood == pytest.approx(expected, rel=1e-9)


def test_label_invariance():
    rng = np.random.default_rng(7)
    sample = random_sample(rng, m_max=8)
    s = random_assignment(rng, sample.n_source)
    t = random_assignment(rng, sample.n_target)
    base = Coclustering(sample, s, t).criterion().total
    # relabel clusters arbitrarily; criterion must not change
    ks, kt = int(s.max()) + 1, int(t.max()) + 1
    sp = rng.permutation(ks)[s]
    tp = rng.permutation(kt)[t]
    assert Coclustering(sample, sp, tp).criterion().total == pytest.approx(base, rel=1e-12)


def test_merge_incremental_equals_recompute():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        sample = random_sample(rng)
        s = random_assignment(rng, sample.n_source)
        t = random_assignment(rng, sample.n_target)
        model = Coclustering(sample, s, t)
        side = "source" if rng.random() < 0.5 else "target"
        k = model.k_source if side == "source" else model.k_target
        if k < 2:
            continue
        a, b = rng.choice(k, size=2, replace=False)
        merged, delta = model.merge(side, int(a), int(b))
        full = merged.criterion().total - model.criterion().total
        assert delta == pytest.approx(full, abs=1e-9)
        checked += 1


def test_move_incremental_equals_recompute():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        sample = random_sample(rng)
        s = random_assignment(rng, sample.n_source)
        t = random_assignment(rng, sample.n_target)
        model = Coclustering(sample, s, t)
        side = "source" if rng.random() < 0.5 else "target"
        n = sample.n_source if side == "source" else sample.n_target
        k = model.k_source if side == "source" else model.k_target
        v = int(rng.integers(0, n))
        dest = NEW_CLUSTER if rng.random() < 0.25 else int(rng.integers(0, k))
        moved, delta = model.move(side, v, dest)
        full = moved.criterion().total - model.criterion().total
        assert delta == pytest.approx(full, abs=1e-9)
        checked += 1


@pytest.mark.parametrize("side", ["source", "target"])
def test_move_to_new_cluster_on_a_fresh_table(monkeypatch, side):
    # the fresh cluster raises kS*kT past the table that the model's own
    # cluster counts size
    monkeypatch.setattr(_engine, "shared_cache", CombinatoricsCache())
    sample = gen_block_diagonal(60, 3, 0.5, m=3000, seed=0)[0]
    rng = np.random.default_rng(0)
    model = Coclustering(sample, rng.permutation(np.arange(60) % 10), rng.permutation(np.arange(60) % 10))
    moved, delta = model.move(side, 0, NEW_CLUSTER)
    assert (moved.k_source, moved.k_target) == ((11, 10) if side == "source" else (10, 11))
    assert delta == pytest.approx(moved.criterion().total - model.criterion().total, abs=1e-9)


def test_move_to_own_cluster_is_noop():
    model = clustered_example()
    same, delta = model.move("source", 0, model.source_assignment[0])
    assert delta == 0.0
    assert same is model


def test_merge_rejects_bad_ids():
    model = clustered_example()
    with pytest.raises(ModelError):
        model.merge("source", 0, 0)
    with pytest.raises(ModelError):
        model.merge("target", 0, 5)


def test_side_names_are_checked():
    model = clustered_example()
    for call in (lambda: model.merge("sources", 0, 1), lambda: model.move("Target", 0, 1),
                 lambda: model.clusters("bogus")):
        with pytest.raises(ModelError, match="side must be"):
            call()


def test_partition_validation():
    sample = multigraph_sample()
    with pytest.raises(ModelError):
        Coclustering(sample, [0] * 6, [0] * 7)  # does not cover every vertex
    with pytest.raises(ModelError):
        Coclustering(sample, [0, 0, 0, 0, 0, 0, 2], [0] * 7)  # empty cluster 1
    with pytest.raises(ModelError):
        from_partitions(sample, [["A", "B"], ["A", "C", "D", "E", "F", "G"]], [VOCAB])


def test_serialization_round_trip():
    model = clustered_example()
    doc = model.to_dict(seed=9)
    again = Coclustering.from_dict(doc, model.sample)
    assert np.array_equal(again.source_assignment, model.source_assignment)
    assert np.array_equal(again.target_assignment, model.target_assignment)
    assert doc["criterion"]["total"] == pytest.approx(model.criterion().total)
    assert doc["seed"] == 9
    assert doc["source_clusters"][0] == ["A", "D", "F"]


def test_from_dict_audits_counts():
    model = clustered_example()
    doc = model.to_dict()
    doc["cocluster_counts"][0][2] += 1  # tamper with a stored count
    with pytest.raises(ModelError, match="consistency audit failed"):
        Coclustering.from_dict(doc, model.sample)


@pytest.mark.parametrize("cell", [[0, 3, 1], [2, 0, 1], [-1, 1, 5], [0, 0, 0]])
def test_from_dict_audits_cells_off_the_grid(cell):
    model = clustered_example()
    doc = model.to_dict()
    doc["cocluster_counts"].append(cell)
    with pytest.raises(ModelError, match="consistency audit failed"):
        Coclustering.from_dict(doc, model.sample)


def test_from_dict_audits_repeated_cells():
    # the last of repeated cells would match the grid; the file is still not the model's
    model = clustered_example()
    doc = model.to_dict()
    (i, j, c), rest = doc["cocluster_counts"][0], doc["cocluster_counts"][1:]
    for cells in ([[i, j, 99], [i, j, c]], [[i, j, c], [i, j, c]]):
        doc["cocluster_counts"] = cells + rest
        with pytest.raises(AuditError, match="stored cocluster counts differ"):
            Coclustering.from_dict(doc, model.sample)


def test_from_dict_audits_counts_whenever_the_key_is_present():
    model = clustered_example()
    doc = model.to_dict()
    for value in ([], None, 0, False, ""):
        doc["cocluster_counts"] = value
        with pytest.raises(ModelError, match="cocluster_counts must list"):
            Coclustering.from_dict(doc, model.sample)
    del doc["cocluster_counts"]
    assert np.array_equal(Coclustering.from_dict(doc, model.sample).cocluster_grid, model.cocluster_grid)


def test_grid_sums_exactly_in_int64():
    sample = MultigraphSample(["a", "b"], ["c"], {(0, 0): 2**53 + 1, (1, 0): 1})
    grid = Coclustering(sample, [0, 0], [0]).cocluster_grid
    assert grid.dtype == np.int64 and grid.tolist() == [[2**53 + 2]]


def test_from_dict_rejects_malformed_cells():
    model = clustered_example()
    doc = model.to_dict()
    doc["cocluster_counts"] = [[0, 1], [1, 2], [0, 5]]
    with pytest.raises(ModelError, match=r"\[i, j, count\]"):
        Coclustering.from_dict(doc, model.sample)


def test_verify_consistent_detects_moved_edges():
    # same vertices and degrees, different cells
    labels_s, labels_t = ["s0", "s1"], ["t0", "t1"]
    fitted = MultigraphSample(labels_s, labels_t, {(0, 0): 2, (1, 1): 3})
    moved = MultigraphSample(labels_s, labels_t, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2})
    assert np.array_equal(fitted.out_degrees, moved.out_degrees)
    assert np.array_equal(fitted.in_degrees, moved.in_degrees)
    model = from_partitions(fitted, [0, 1], [0, 1])
    with pytest.raises(ModelError, match="cocluster counts differ"):
        model.verify_consistent(moved)


def test_verify_consistent_detects_mismatched_sample():
    model = clustered_example()
    other = parse_edge_list("A\tB\t13\n", unify=True, vocabulary=VOCAB)
    with pytest.raises(ModelError, match="consistency audit failed"):
        model.verify_consistent(other)


def test_audit_failures_raise_audit_error():
    model = clustered_example()
    universe = parse_edge_list("A\tB\t13\n", unify=True, vocabulary=VOCAB[:-1])
    cells = parse_edge_list(MULTI_TSV.replace("A\tB", "A\tC"), unify=True, vocabulary=VOCAB)
    # one cocluster of 5 edges in both, over other degrees
    labels = list("AB")
    fitted = null_model(MultigraphSample(labels, labels, {(0, 0): 2, (1, 1): 3}))
    degrees = MultigraphSample(labels, labels, {(0, 0): 3, (1, 1): 2})
    for call, message in (
        (lambda: model.verify_consistent(universe), "vertex universes differ"),
        (lambda: model.verify_consistent(cells), "cocluster counts differ"),
        (lambda: fitted.verify_consistent(degrees), "vertex degrees differ"),
    ):
        with pytest.raises(AuditError, match=f"consistency audit failed: {message}"):
            call()
    doc = model.to_dict()
    doc["cocluster_counts"][0][2] += 1
    with pytest.raises(AuditError, match="stored cocluster counts differ"):
        Coclustering.from_dict(doc, model.sample)
