import hashlib
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlcc import _engine, cli, optimizer
from modlcc._engine import OTHER_SIDE, Engine
from modlcc.combinatorics import CombinatoricsCache
from modlcc.graph import MultigraphSample
from modlcc.model import Coclustering, maximal_model, null_model
from modlcc.optimizer import FitConfig, _merges, _post_opt, _sweep, gbum, initial_solution, post_optimize, vns_fit
from modlcc.synthgen import gen_block_diagonal, gen_undirected_pattern

from oracles import ix_move_options, ix_post_optimize, random_assignment, random_sample
from test_graph import multigraph_sample


def test_initial_solution_respects_cap_and_seed():
    sample = multigraph_sample()
    a = initial_solution(sample, 3, seed=5)
    b = initial_solution(sample, 3, seed=5)
    assert np.array_equal(a.source_assignment, b.source_assignment)
    assert np.array_equal(a.target_assignment, b.target_assignment)
    assert a.k_source <= 3 and a.k_target <= 3
    c = initial_solution(sample, 3, seed=6)
    assert not (
        np.array_equal(a.source_assignment, c.source_assignment)
        and np.array_equal(a.target_assignment, c.target_assignment)
    )


def test_gbum_never_increases_criterion():
    rng = np.random.default_rng(11)
    for _ in range(25):
        sample = random_sample(rng, n_s_max=5, n_t_max=5, m_max=8)
        model = Coclustering(
            sample,
            random_assignment(rng, sample.n_source),
            random_assignment(rng, sample.n_target),
        )
        merged = gbum(model)
        assert merged.criterion().total <= model.criterion().total + 1e-9


def test_gbum_reaches_merge_local_optimum():
    rng = np.random.default_rng(12)
    sample = random_sample(rng, m_max=8)
    merged = gbum(maximal_model(sample))
    # no remaining merge improves the criterion
    for side, k in (("source", merged.k_source), ("target", merged.k_target)):
        for a in range(k):
            for b in range(a + 1, k):
                _, delta = merged.merge(side, a, b)
                assert delta >= -1e-9


def test_post_optimize_is_a_fixed_point():
    rng = np.random.default_rng(13)
    sample = random_sample(rng, m_max=8)
    model = Coclustering(
        sample,
        random_assignment(rng, sample.n_source),
        random_assignment(rng, sample.n_target),
    )
    once = post_optimize(model, passes=10)
    twice = post_optimize(once, passes=10)
    assert once.criterion().total <= model.criterion().total + 1e-9
    assert twice.criterion().total == pytest.approx(once.criterion().total, abs=1e-9)


def test_vns_fit_deterministic():
    sample, _ = gen_undirected_pattern(2, 5, 0.8, 0.1, seed=3)
    a = vns_fit(sample, FitConfig(rounds=4, seed=21))
    b = vns_fit(sample, FitConfig(rounds=4, seed=21))
    assert np.array_equal(a.best_model.source_assignment, b.best_model.source_assignment)
    assert np.array_equal(a.best_model.target_assignment, b.best_model.target_assignment)
    assert a.best_criterion.total == b.best_criterion.total


def test_vns_fit_never_worse_than_null():
    rng = np.random.default_rng(14)
    for _ in range(10):
        sample = random_sample(rng, m_max=8)
        fit = vns_fit(sample, FitConfig(rounds=2, seed=1))
        assert fit.best_criterion.total <= null_model(sample).criterion().total + 1e-9


def test_vns_fit_round_log():
    sample, _ = gen_undirected_pattern(2, 5, 0.8, 0.1, seed=3)
    fit = vns_fit(sample, FitConfig(rounds=3, seed=2))
    assert len(fit.rounds) == 3
    assert [r.round for r in fit.rounds] == [0, 1, 2]
    best = min(r.criterion for r in fit.rounds)
    assert fit.best_criterion.total <= best + 1e-9  # null guard can only improve


def test_recovers_four_cocliques():
    # four empty diagonal blocks, dense off-diagonal: 4 + 4 clusters
    sample, labels = gen_undirected_pattern(4, 10, 0.0, 0.5, seed=8)
    fit = vns_fit(sample, FitConfig(rounds=10, seed=0))
    model = fit.best_model
    assert model.k_source == 4 and model.k_target == 4
    # fitted clusters coincide with the planted ones (up to relabeling)
    for assign in (model.source_assignment, model.target_assignment):
        mapping = {}
        for v, cid in enumerate(assign):
            mapping.setdefault(int(labels[v]), set()).add(int(cid))
        assert all(len(s) == 1 for s in mapping.values())


def test_random_graph_collapses_to_single_cluster():
    rng = np.random.default_rng(15)
    n, m = 50, 400
    src = rng.integers(0, n, size=m)
    tgt = rng.integers(0, n, size=m)
    edges = {}
    for i, j in zip(src, tgt):
        edges[(int(i), int(j))] = edges.get((int(i), int(j)), 0) + 1
    labels = [f"v{i}" for i in range(n)]
    sample = MultigraphSample(labels, labels, edges, unified=True)
    fit = vns_fit(sample, FitConfig(rounds=5, seed=0))
    assert fit.best_model.k_source == 1 and fit.best_model.k_target == 1


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(rounds=0)


def skewed_sample(rng, n_s, n_t, dense, stray):
    """n_s x n_t vertices; `dense` edges on the first half of the rows and
    columns plus `stray` uniform edges, so merged cells grow large."""
    counts = np.zeros((n_s, n_t), dtype=np.int64)
    h_s, h_t = max(1, n_s // 2), max(1, n_t // 2)
    np.add.at(counts, (rng.integers(0, h_s, dense), rng.integers(0, h_t, dense)), 1)
    np.add.at(counts, (rng.integers(0, n_s, stray), rng.integers(0, n_t, stray)), 1)
    edges = {(int(i), int(j)): int(counts[i, j]) for i, j in zip(*np.nonzero(counts))}
    return MultigraphSample([f"s{i}" for i in range(n_s)], [f"t{j}" for j in range(n_t)], edges)


@st.composite
def skewed_samples(draw):
    """`skewed_sample` with 2-11 vertices per side."""
    n_s, n_t = draw(st.integers(2, 11)), draw(st.integers(2, 11))
    dense, stray = draw(st.integers(300, 3000)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return skewed_sample(rng, n_s, n_t, dense, stray)


def assert_caches_match_recomputation(eng, D):
    for side in ("source", "target"):
        k = eng.sides[side].k
        assert D[side].shape == (k, k)
        pairs = [tuple(p) for p in np.argwhere(np.isfinite(D[side])).tolist()]
        assert pairs == list(combinations(range(k), 2))
        for a, b in pairs:
            assert D[side][a, b] == pytest.approx(eng.merge_struct(side, a, b), rel=1e-9, abs=1e-9)
    rebuilt = Engine(Coclustering(eng.sample, *eng.assignments()))
    assert np.array_equal(eng.M, rebuilt.M)
    for side in ("source", "target"):
        assert np.array_equal(eng.sides[side].margin, rebuilt.sides[side].margin)
        assert np.array_equal(eng.sides[side].sizes, rebuilt.sides[side].sizes)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples())
def test_merge_caches_match_recomputation_to_the_root(sample):
    # a fresh table per example: a shared one only grows, which hides overflows
    with mock.patch.object(_engine, "shared_cache", CombinatoricsCache()):
        eng = Engine(maximal_model(sample))
        merges = _merges(eng)
        for _ in merges:
            # the generator's pair-delta matrices, updated at each merge
            D = merges.gi_frame.f_locals["D"]
            assert_caches_match_recomputation(eng, D)
        assert eng.sides["source"].k == 1 and eng.sides["target"].k == 1
        assert_caches_match_recomputation(eng, D)
    with mock.patch.object(_engine, "shared_cache", CombinatoricsCache()):
        gbum(maximal_model(sample))
        post_optimize(maximal_model(sample))
        vns_fit(sample, FitConfig(rounds=3, seed=0))


# -- vertex-move deltas against the per-vertex np.ix_ form ------------------------


def assert_move_options_match_oracle(eng):
    for side in ("source", "target"):
        for v, profile in enumerate(eng.vertex_profiles(side)):
            a, dests, deltas = ix_move_options(eng, side, v)
            got = eng.move_options(side, v, profile)
            assert got[0] == a
            assert np.array_equal(got[1], dests)
            assert np.array_equal(got[2], deltas)


@pytest.fixture(scope="module")
def block_sample():
    return gen_block_diagonal(80, 4, 0.4, m=4000, seed=1)[0]


@pytest.mark.parametrize("table", [True, False])
def test_move_options_match_oracle_on_a_fresh_engine(block_sample, monkeypatch, table):
    if not table:
        monkeypatch.setattr(_engine, "_GAIN_TABLE_MAX", 0)
    eng = Engine(initial_solution(block_sample, 64, seed=3))
    assert eng.sides["source"].k == eng.sides["target"].k == 64
    for side in ("source", "target"):
        assert all((gain is not None) == table for _, _, gain in eng.vertex_profiles(side))
    assert_move_options_match_oracle(eng)


def test_public_move_scores_existing_clusters_as_move_options(block_sample):
    model = initial_solution(block_sample, 64, seed=3)
    eng = Engine(model)
    for side in ("source", "target"):
        for v, profile in enumerate(eng.vertex_profiles(side)):
            _, dests, deltas = eng.move_options(side, v, profile)
            for dest, delta in list(zip(dests.tolist(), deltas))[:3]:
                assert model.move(side, v, dest)[1] == delta


def test_move_options_match_oracle_on_singletons():
    rng = np.random.default_rng(11)
    for _ in range(60):
        sample = random_sample(rng, n_s_max=9, n_t_max=9, m_max=300)
        assert_move_options_match_oracle(Engine(maximal_model(sample)))


def test_move_options_match_oracle_after_post_opt(block_sample):
    eng = Engine(initial_solution(block_sample, 64, seed=4))
    _post_opt(eng, 2)
    assert_move_options_match_oracle(eng)


def test_move_options_match_oracle_during_merges(block_sample):
    eng = Engine(initial_solution(block_sample, 64, seed=5))
    _post_opt(eng, 2)
    merges = _merges(eng)
    for _ in range(40):
        next(merges)  # applies the merge yielded before it
    assert eng.sides["source"].k < 64 and eng.sides["target"].k < 64
    assert_move_options_match_oracle(eng)


@pytest.mark.parametrize("seed", range(4))
def test_post_optimize_matches_oracle_sweeps(block_sample, seed):
    rng = np.random.default_rng(seed)
    models = [
        initial_solution(block_sample, 64, seed=seed),
        initial_solution(block_sample, 6, seed=seed),
        maximal_model(random_sample(rng, n_s_max=9, n_t_max=9, m_max=60)),
    ]
    for model in models:
        got = post_optimize(model, passes=3)
        s, t = ix_post_optimize(model, passes=3)
        assert np.array_equal(got.source_assignment, s)
        assert np.array_equal(got.target_assignment, t)


def emptying_models():
    """Random starts on the small skewed and cluster-recovery graphs, one
    vertex per cluster and 3 clusters per side: sweeps empty clusters."""
    rng = np.random.default_rng(5)
    for i in range(8):
        n_s, n_t = (int(n) for n in rng.integers(2, 12, size=2))
        skewed = skewed_sample(rng, n_s, n_t, int(rng.integers(300, 3001)), int(rng.integers(1, 61)))
        recovery = gen_block_diagonal(10, 2, 0.0, int(rng.choice([50, 100, 200, 400, 800])), seed=i)[0]
        for sample in (skewed, recovery):
            for k0 in (11, 3):
                yield initial_solution(sample, k0, seed=i)


@pytest.mark.parametrize("table", [True, False])
def test_post_optimize_matches_oracle_sweeps_as_clusters_empty(monkeypatch, table):
    # a sweep keeps its destination terms from vertex to vertex; the oracle
    # scores every vertex afresh
    if not table:
        monkeypatch.setattr(_engine, "_GAIN_TABLE_MAX", 0)
    tables = emptied = 0
    for model in emptying_models():
        profiles = [gain for side in ("source", "target") for _, _, gain in Engine(model).vertex_profiles(side)]
        tables += any(gain is not None for gain in profiles)
        got = post_optimize(model, passes=3)
        s, t = ix_post_optimize(model, passes=3)
        assert np.array_equal(got.source_assignment, s)
        assert np.array_equal(got.target_assignment, t)
        # clusters emptied with two or more left, so the sweeps rebuilt their terms
        k0, k1 = (model.k_source, model.k_target), (got.k_source, got.k_target)
        emptied += min(k1) > 1 and k1 != k0
    assert (tables > 0) == table
    assert emptied >= 20


# -- source/target mirror symmetry ---------------------------------------------------


def assert_mirrored(eng, mirror):
    """`mirror` is `eng` with sources and targets swapped."""
    assert np.array_equal(eng.M, mirror.M.T)
    for side in ("source", "target"):
        other = OTHER_SIDE[side]
        profiles = zip(eng.vertex_profiles(side), mirror.vertex_profiles(other))
        for v, (p, q) in enumerate(profiles):
            got, want = eng.move_options(side, v, p), mirror.move_options(other, v, q)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])
        k = eng.sides[side].k
        assert k == mirror.sides[other].k
        for a, b in combinations(range(k), 2):
            assert eng.merge_struct(side, a, b) == mirror.merge_struct(other, a, b)
    # t6 sums the grid in the other order
    assert eng.criterion_total() == pytest.approx(mirror.criterion_total(), rel=1e-12, abs=0)


@pytest.mark.parametrize("table", [True, False])
def test_engine_is_symmetric_under_transposition(monkeypatch, table):
    if not table:
        monkeypatch.setattr(_engine, "_GAIN_TABLE_MAX", 0)
    rng = np.random.default_rng(7)
    counts = rng.poisson(0.5, size=(40, 25))
    counts[:20, :8] += rng.poisson(2.0, size=(20, 8))
    cells = {(int(i), int(j)): int(counts[i, j]) for i, j in zip(*np.nonzero(counts))}
    sample = MultigraphSample([f"s{i}" for i in range(40)], [f"t{j}" for j in range(25)], cells)
    swapped = {(j, i): c for (i, j), c in cells.items()}
    sample_t = MultigraphSample(sample.target_labels, sample.source_labels, swapped)
    model = initial_solution(sample, 12, seed=1)
    eng = Engine(model)
    mirror = Engine(Coclustering(sample_t, model.target_assignment, model.source_assignment))
    for side in ("source", "target"):
        assert all((gain is not None) == table for _, _, gain in eng.vertex_profiles(side))
    assert_mirrored(eng, mirror)
    moved = False
    for side in ("source", "target", "source", "target"):
        step = _sweep(eng, side)
        assert step == _sweep(mirror, OTHER_SIDE[side])
        moved |= step
        assert_mirrored(eng, mirror)
    assert moved
    for side in ("source", "target"):
        assert eng.apply_merge(side, 0, 1) == mirror.apply_merge(OTHER_SIDE[side], 0, 1)
        assert_mirrored(eng, mirror)


# -- golden fits ------------------------------------------------------------------

# SHA-256 of `vns_fit(sample, FitConfig(rounds=2, seed=1)).to_dict()` as JSON
# with sorted keys and without `tool_version`, for
# `gen_block_diagonal(300, 4, 0.5, m, seed=3)`.  Any change to the search
# path (a different move, merge or tie-break) changes these bytes.  Recorded
# on x86-64 Linux with NumPy 2.4 and SciPy 1.17; another libm may change the
# last bits of the criterion and so the hash.
GOLDEN_FITS = {
    20_000: "cf499594025b0259cf94d8c2482b7b90bbba3b2054353003a48c8358f349258f",  # rounds stall, null model wins
    40_000: "48b49e22d074e9b8d724aef9030a1937bb03d832c0e92082a448800c351f8261",  # planted 4x4
}


@pytest.mark.parametrize("m", sorted(GOLDEN_FITS))
def test_vns_fit_golden_model(m):
    sample, _ = gen_block_diagonal(300, 4, 0.5, m=m, seed=3)
    doc = vns_fit(sample, FitConfig(rounds=2, seed=1)).to_dict()
    doc.pop("tool_version")
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_FITS[m], doc["fit_log"]


# -- rounds on worker processes ---------------------------------------------------


@pytest.fixture
def pool_count(monkeypatch):
    """Count the worker pools that `vns_fit` starts."""
    pools = []

    class CountedPool(optimizer.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(optimizer, "ProcessPoolExecutor", CountedPool)
    return pools


def force_pool(monkeypatch, pool):
    """Force `vns_fit`'s rounds on two workers, or in process, whatever the sample and host."""
    monkeypatch.setattr(optimizer, "POOL_MIN_CELLS", 0 if pool else 2**63)
    monkeypatch.setattr(optimizer.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def fit_with_pool(monkeypatch, sample, config, pool):
    force_pool(monkeypatch, pool)
    return vns_fit(sample, config)


def test_pool_gate_counts_distinct_cells():
    small, _ = gen_block_diagonal(100, 10, 0.1, m=1500, seed=0)
    large, _ = gen_block_diagonal(100, 10, 0.1, m=3000, seed=0)
    assert len(small.counts) < optimizer.POOL_MIN_CELLS <= len(large.counts)
    assert optimizer._pool_workers(small, 4) == 0
    assert optimizer._pool_workers(large, 1) == 0
    assert "edges" not in vars(large)  # the gate builds no dict of the cells


@pytest.mark.parametrize("family, m", [("golden", m) for m in sorted(GOLDEN_FITS)] + [("block", 3000)])
def test_pool_and_in_process_rounds_give_the_same_fit(monkeypatch, pool_count, family, m):
    if family == "golden":
        sample, _ = gen_block_diagonal(300, 4, 0.5, m=m, seed=3)
        config = FitConfig(rounds=2, seed=1)
    else:
        sample, _ = gen_block_diagonal(100, 10, 0.1, m=m, seed=0)
        config = FitConfig(rounds=4, seed=0)
        assert len(sample.counts) >= 1000
    pooled = fit_with_pool(monkeypatch, sample, config, pool=True)
    assert len(pool_count) == 1
    alone = fit_with_pool(monkeypatch, sample, config, pool=False)
    assert len(pool_count) == 1
    assert pooled.to_dict() == alone.to_dict()
    assert [r.criterion for r in pooled.rounds] == [r.criterion for r in alone.rounds]
    assert multiprocessing.active_children() == []


def round_failing_in_worker(sample, max_init, child):
    raise ValueError(f"round failed in process {os.getpid()}")


def test_worker_value_error_reaches_the_caller(monkeypatch, pool_count):
    sample, _ = gen_block_diagonal(100, 10, 0.1, m=3000, seed=0)
    monkeypatch.setattr(optimizer, "_round", round_failing_in_worker)  # before the fork
    with pytest.raises(ValueError, match="round failed in process") as err:
        fit_with_pool(monkeypatch, sample, FitConfig(rounds=2), pool=True)
    assert len(pool_count) == 1
    assert str(err.value) != f"round failed in process {os.getpid()}"
    assert multiprocessing.active_children() == []


def test_worker_value_error_exits_2(monkeypatch, pool_count, tmp_path, capsys):
    sample, _ = gen_block_diagonal(100, 10, 0.1, m=3000, seed=0)
    edges = tmp_path / "e.tsv"
    edges.write_text(sample.serialize())
    monkeypatch.setattr(optimizer, "_round", round_failing_in_worker)
    force_pool(monkeypatch, True)
    code = cli.main(["fit", str(edges), "-o", str(tmp_path / "m.json"), "--rounds", "2"])
    assert code == 2
    assert "round failed in process" in capsys.readouterr().err
    assert len(pool_count) == 1
    assert multiprocessing.active_children() == []


def test_killed_worker_breaks_the_pool(monkeypatch):
    sample, _ = gen_block_diagonal(100, 10, 0.1, m=3000, seed=0)
    monkeypatch.setattr(optimizer, "_round", lambda *args: os._exit(1))
    with pytest.raises(BrokenProcessPool):
        fit_with_pool(monkeypatch, sample, FitConfig(rounds=2), pool=True)
    assert multiprocessing.active_children() == []
