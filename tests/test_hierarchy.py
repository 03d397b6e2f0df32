import numpy as np
import pytest

from modlcc.hierarchy import build_dendrogram, cut
from modlcc.model import Coclustering, from_partitions, maximal_model, null_model
from modlcc.optimizer import gbum
from modlcc.synthgen import gen_block_diagonal, gen_blockmodel

from oracles import exhaustive_dendrogram, random_assignment, random_sample, replayed_models
from test_graph import multigraph_sample
from test_model import clustered_example


def test_null_model_dendrogram_is_empty():
    dend = build_dendrogram(null_model(multigraph_sample()))
    assert dend.merges == []


def test_merge_path_reaches_root():
    model = clustered_example()
    dend = build_dendrogram(model)
    # k_S + k_T - 2 merges to reach one cluster per side
    assert len(dend.merges) == model.k_source + model.k_target - 2
    assert dend.merges[-1].criterion == pytest.approx(
        null_model(model.sample).criterion().total, abs=1e-9
    )


def test_recorded_deltas_and_criteria_consistent():
    rng = np.random.default_rng(30)
    sample = random_sample(rng, m_max=8)
    model = maximal_model(sample)
    dend = build_dendrogram(model)
    total = model.criterion().total
    replay = model
    for rec in dend.merges:
        replay, delta = replay.merge(rec.side, rec.a, rec.b)
        total += rec.delta
        assert delta == pytest.approx(rec.delta, abs=1e-9)
        assert rec.criterion == pytest.approx(total, abs=1e-9)
        assert replay.criterion().total == pytest.approx(total, abs=1e-9)


def test_converged_model_first_merge_not_improving():
    rng = np.random.default_rng(31)
    sample = random_sample(rng, m_max=8)
    model = gbum(maximal_model(sample))
    dend = build_dendrogram(model)
    if dend.merges:
        assert dend.merges[0].delta >= -1e-9


def test_greedy_order_is_minimal_delta():
    model = clustered_example()
    dend = build_dendrogram(model)
    # the first recorded merge is the best available one
    first = dend.merges[0]
    best = min(
        delta
        for side, k in (("source", model.k_source), ("target", model.k_target))
        for a in range(k)
        for b in range(a + 1, k)
        for _, delta in [model.merge(side, a, b)]
    )
    assert first.delta == pytest.approx(best, abs=1e-9)


def test_cut_to_root_and_to_self():
    model = clustered_example()
    dend = build_dendrogram(model)
    root = cut(dend, 1, 1)
    assert root.k_source == 1 and root.k_target == 1
    same = cut(dend, model.k_source, model.k_target)
    assert np.array_equal(same.source_assignment, model.source_assignment)
    assert np.array_equal(same.target_assignment, model.target_assignment)


def test_cuts_are_nested():
    rng = np.random.default_rng(32)
    sample = random_sample(rng, n_s_max=5, n_t_max=5, m_max=8)
    model = maximal_model(sample)
    dend = build_dendrogram(model)
    fine = cut(dend, min(3, model.k_source), min(3, model.k_target))
    coarse = cut(dend, min(2, model.k_source), min(2, model.k_target))
    # every fine cluster maps into exactly one coarse cluster
    for f_assign, c_assign in (
        (fine.source_assignment, coarse.source_assignment),
        (fine.target_assignment, coarse.target_assignment),
    ):
        seen = {}
        for fc, cc in zip(f_assign, c_assign):
            seen.setdefault(int(fc), set()).add(int(cc))
        assert all(len(s) == 1 for s in seen.values())


def test_cut_validates_targets():
    dend = build_dendrogram(clustered_example())
    with pytest.raises(ValueError):
        cut(dend, 0, 1)
    with pytest.raises(ValueError):
        cut(dend, 1, 99)


def test_dendrogram_to_dict():
    model = clustered_example()
    doc = build_dendrogram(model).to_dict()
    assert doc["initial_k_source"] == 2 and doc["initial_k_target"] == 3
    assert len(doc["merges"]) == 3
    assert {"side", "a", "b", "delta", "criterion"} <= set(doc["merges"][0])


def assert_matches_exhaustive(model):
    dend = build_dendrogram(model)
    assert dend.merges == exhaustive_dendrogram(model)
    states = replayed_models(model, dend.merges)
    # each recorded delta is the public merge's delta on the state it merged
    for state, rec in zip(states, dend.merges):
        assert state.merge(rec.side, rec.a, rec.b)[1] == rec.delta
    # every state on the path is the cut at its own cluster counts
    for state in states:
        got = cut(dend, state.k_source, state.k_target)
        assert np.array_equal(got.source_assignment, state.source_assignment)
        assert np.array_equal(got.target_assignment, state.target_assignment)


@pytest.mark.parametrize("seed", range(1000, 1060))
def test_dendrogram_matches_exhaustive_scan_on_maximal_models(seed):
    # seeds 1006 and 1047 hold exact ties that the incremental deltas alone
    # would break differently from a scan
    sample = random_sample(np.random.default_rng(seed), n_s_max=10, n_t_max=10, m_max=40)
    assert_matches_exhaustive(maximal_model(sample))


def test_dendrogram_matches_exhaustive_scan_on_planted_model():
    sample, blocks = gen_block_diagonal(160, 12, 0.3, 6000, seed=4)
    index = [int(label[1:]) for label in sample.source_labels]
    planted = np.unique(np.asarray(blocks)[index], return_inverse=True)[1]
    model = from_partitions(sample, planted, planted)
    assert (model.k_source, model.k_target) == (12, 12)
    assert_matches_exhaustive(model)


@pytest.mark.parametrize("seed", range(4))
def test_dendrogram_matches_exhaustive_scan_on_tied_singletons(seed):
    # equal-degree target singletons tie: about half of the merges have
    # several pairs within the near-tie band, up to 66
    sample, _ = gen_blockmodel(np.ones((1, 1)), [40], 120, seed=seed)
    source = np.random.default_rng(seed).integers(0, 3, sample.n_source)
    source[:3] = np.arange(3)
    assert_matches_exhaustive(Coclustering(sample, source, np.arange(sample.n_target)))
