import contextlib
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import operator
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
from modlcc.hierarchy import build_dendrogram, cut
from modlcc.model import NEW_CLUSTER, Coclustering, maximal_model, null_model
from modlcc.optimizer import FitConfig, _merges, _post_opt, _sweep, gbum, initial_solution, post_optimize, vns_fit
from modlcc.synthgen import gen_block_diagonal, gen_undirected_pattern

from oracles import (
    count_change,
    flat_cross_side_correction,
    ix_move_options,
    ix_post_optimize,
    random_assignment,
    random_sample,
    unique_vertex_profiles,
)
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


def test_vns_fit_keeps_the_best_round_engines_criterion(monkeypatch):
    # the best model carries its round's criterion terms, which equal a fresh
    # scoring bit for bit: one engine per round and one for the null model
    engines = []
    init = Engine.__init__

    def counted(eng, model):
        engines.append(model)
        init(eng, model)

    monkeypatch.setattr(Engine, "__init__", counted)
    rng = np.random.default_rng(7)
    samples = [gen_block_diagonal(10, 2, 0.0, m, seed=i)[0] for i, m in enumerate((50, 200, 800))]
    samples += [skewed_sample(rng, 9, 7, 1500, 40), gen_undirected_pattern(2, 5, 0.8, 0.1, seed=3)[0]]
    for sample in samples:
        engines.clear()
        fit = vns_fit(sample, FitConfig(rounds=3, seed=2))
        assert len(engines) == 3 + 1
        fresh = Coclustering(sample, fit.best_model.source_assignment, fit.best_model.target_assignment)
        got, want = fit.best_criterion.to_dict(), fresh.criterion().to_dict()
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        assert fit.best_model.criterion() is fit.best_criterion


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


def assert_side_terms_fresh(eng):
    """Each side's per-cluster criterion terms equal, bit for bit, a fresh
    computation from its margins and sizes."""
    lf = eng.lf
    for side in ("source", "target"):
        s = eng.sides[side]
        fresh = {
            "lf_margin": lf[s.margin],
            "lf_sizes": lf[s.sizes],
            "prior": lf[s.margin + s.sizes - 1] - lf[s.sizes - 1] - lf[s.margin],
        }
        for name, want in fresh.items():
            got = getattr(s, name)
            assert got.dtype == want.dtype and got.shape == (s.k,), (side, name)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (side, name)


def assert_caches_match_recomputation(eng, D):
    assert_side_terms_fresh(eng)
    for side in ("source", "target"):
        k = eng.sides[side].k
        assert D[side].shape == (k, k)
        pairs = [tuple(p) for p in np.argwhere(np.isfinite(D[side])).tolist()]
        assert pairs == list(combinations(range(k), 2))
        for a, b in pairs:
            assert D[side][a, b] == pytest.approx(eng.merge_struct(side, a, b), rel=1e-9, abs=1e-9)
    rebuilt = Engine(Coclustering(eng.sample, eng.sides["source"].assign, eng.sides["target"].assign))
    assert np.array_equal(eng.M, rebuilt.M)
    for side in ("source", "target"):
        assert np.array_equal(eng.sides[side].margin, rebuilt.sides[side].margin)
        assert np.array_equal(eng.sides[side].sizes, rebuilt.sides[side].sizes)


def assert_equals_its_recount(model):
    """`model` equals `Coclustering(sample, *its assignments)` in its counts,
    their dtypes and layout, its cells, its file and its criterion, bit for bit."""
    fresh = Coclustering(model.sample, model.source_assignment, model.target_assignment)
    assert (model.k_source, model.k_target) == (fresh.k_source, fresh.k_target)
    for name in ("source_assignment", "target_assignment", "source_cluster_sizes", "target_cluster_sizes",
                 "source_cluster_margins", "target_cluster_margins", "cocluster_grid"):
        got, want = getattr(model, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert model.cocluster_grid.flags.c_contiguous
    assert model._cells() == fresh._cells()
    assert json.dumps(model.to_dict()) == json.dumps(fresh.to_dict())
    bits = [np.array(dataclasses.astuple(m.criterion())).view(np.uint64) for m in (model, fresh)]
    assert np.array_equal(*bits)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples(), seed=st.integers(0, 2**32 - 1))
def test_models_handed_back_by_the_engine_equal_a_recount(sample, seed):
    rng = np.random.default_rng(seed)
    start = initial_solution(sample, int(rng.integers(2, 12)), seed)
    handed = [gbum(start), post_optimize(start)]
    for side in ("source", "target"):
        k, assign = getattr(start, f"k_{side}"), getattr(start, f"{side}_assignment")
        v = int(rng.integers(len(assign)))
        if k > 1:
            a, b = rng.choice(k, 2, replace=False)
            handed.append(start.merge(side, int(a), int(b))[0])
            others = [c for c in range(k) if c != assign[v]]
            handed.append(start.move(side, v, int(rng.choice(others)))[0])
        handed.append(start.move(side, v, NEW_CLUSTER)[0])
        # a singleton's move empties its cluster, and the ids above it move down
        handed.append(maximal_model(sample).move(side, v, 0 if v else 1)[0])
    dend = build_dendrogram(start)
    handed.append(cut(dend, int(rng.integers(1, start.k_source + 1)), int(rng.integers(1, start.k_target + 1))))
    handed.append(cut(dend, start.k_source, start.k_target))
    # the hand-off copies: the engine's later edits leave the model as it was
    eng = Engine(start)
    handed.append(Coclustering._from_engine(eng))
    for side in ("source", "target"):
        if eng.sides[side].k > 1:
            eng.apply_merge(side, 0, 1)
    for model in handed:
        assert_equals_its_recount(model)
    assert np.array_equal(handed[-1].cocluster_grid, start.cocluster_grid)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples())
def test_merge_caches_match_recomputation_to_the_root(sample):
    # a fresh table per example: a shared one only grows, which hides overflows;
    # the pair matrices are forced, as starts of under 8 clusters scan without them
    with mock.patch.object(_engine, "shared_cache", CombinatoricsCache()), \
            mock.patch.object(_engine, "_SCALAR_MAX_K", 0):
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


def fresh_pair_delta(eng, side, cost, a, i):
    """The pair delta of survivor a with cluster i, scored alone from the
    current counts and the merge loop's `cost`, in the loop's operation order."""
    s, M, lf = eng.sides[side], eng.rows(side), eng.lf
    m = s.margin[a] + s.margin[i]
    n = s.sizes[a] + s.sizes[i]
    merged = lf[m] + (lf[m + n - 1] - lf[n - 1] - lf[m]) - np.add.reduce(lf[M[a] + M[i]])
    return merged - cost[a] - cost[i]


def survivor_refreshes(eng):
    """Run `_merges` to the root; after each merge, check that the survivor's
    pair deltas, down its column and along its row, equal a fresh per-pair
    computation bit for bit.  Returns (survivor, k after the merge) of each
    merge checked: all but the last, which leaves one cluster per side."""
    merges = _merges(eng)
    checked, last = [], None
    for best in merges:
        if last is not None:
            _, side, a, _ = last
            D, cost = (merges.gi_frame.f_locals[name][side] for name in ("D", "cost"))
            k = eng.sides[side].k
            got = np.concatenate([D[:a, a], D[a, a + 1 :]])
            want = np.array([fresh_pair_delta(eng, side, cost, a, i) for i in range(k) if i != a], dtype=float)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (side, a, k)
            checked.append((a, k))
        last = best
    assert eng.sides["source"].k == eng.sides["target"].k == 1
    return checked


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples())
def test_refreshed_survivor_pairs_are_bit_exact(sample):
    with mock.patch.object(_engine, "shared_cache", CombinatoricsCache()), \
            mock.patch.object(_engine, "_SCALAR_MAX_K", 0):
        checked = survivor_refreshes(Engine(maximal_model(sample)))
    assert len(checked) == sample.n_source + sample.n_target - 3


def test_refreshed_survivor_pairs_are_bit_exact_at_k64(block_sample):
    eng = Engine(initial_solution(block_sample, 64, seed=5))
    assert eng.sides["source"].k == eng.sides["target"].k == 64
    checked = survivor_refreshes(eng)
    assert len(checked) == 2 * 63 - 1
    # survivors at either end: an empty column range, and an empty row range
    assert any(a == 0 and k > 1 for a, k in checked)
    assert any(a == k - 1 and k > 1 for a, k in checked)


# -- vertex-move deltas against the per-vertex np.ix_ form ------------------------


MOVE_BODIES = ("scalar", "array")


def assert_move_options_match_oracle(eng):
    """Every vertex's `Engine._move_deltas`, its own cluster masked, equal the
    oracle's deltas into the other clusters."""
    for side in ("source", "target"):
        for v, profile in enumerate(eng.vertex_profiles(side)):
            a, dests, deltas = ix_move_options(eng, side, v)
            if len(dests) == 0:  # one cluster: no move to score
                continue
            got = eng._move_deltas(side, v, profile)
            assert len(got) == eng.sides[side].k and got[a] == np.inf
            assert np.array_equal(np.delete(got, a), deltas)


@contextlib.contextmanager
def forced_move_body(body):
    """Force one body of `Engine._move_deltas` by its gate: the scalar one at
    any k (where its table and cell conditions hold), or the array one
    always.  Asserts on exit that the forced body ran, and for the array
    one that the scalar one did not."""
    calls = {"scalar": 0, "array": 0}

    def counted(name):
        method = getattr(Engine, f"_move_deltas_{name}")

        def run(eng, side, v, profile):
            calls[name] += 1
            return method(eng, side, v, profile)

        return mock.patch.object(Engine, f"_move_deltas_{name}", run)

    with mock.patch.object(_engine, "_SCALAR_MAX_K", 2**63 if body == "scalar" else 0), \
            counted("scalar"), counted("array"):
        yield
    assert calls[body] > 0
    assert body == "scalar" or calls["scalar"] == 0


@pytest.fixture(scope="module")
def block_sample():
    return gen_block_diagonal(80, 4, 0.4, m=4000, seed=1)[0]


@pytest.mark.parametrize("table", [True, False])
def test_move_options_match_oracle_on_a_fresh_engine(block_sample, monkeypatch, table):
    if not table:
        monkeypatch.setattr(_engine, "_GAIN_TABLE_MAX", 0)
    for body in MOVE_BODIES:
        with forced_move_body(body):
            eng = Engine(initial_solution(block_sample, 64, seed=3))
            assert eng.sides["source"].k == eng.sides["target"].k == 64
            for side in ("source", "target"):
                assert all((gain is not None) == table for _, _, gain in eng.vertex_profiles(side))
            assert_move_options_match_oracle(eng)
            # every profile of the k = 64 start has 8 cells or more, all of this one's fewer
            assert_move_options_match_oracle(Engine(initial_solution(block_sample, 6, seed=3)))


def test_public_move_scores_existing_clusters_as_move_options(block_sample):
    # the k = 64 start's moves score in the array body, the k = 6 start's in
    # the scalar one; "c" is a vocabulary vertex with no edges
    vocabulary = MultigraphSample(["a", "b", "c"], ["x", "y"], {(0, 0): 2, (0, 1): 1, (1, 1): 3})
    models = [initial_solution(block_sample, k, seed=3) for k in (64, 6)]
    for model in [*models, Coclustering(vocabulary, [0, 1, 1], [0, 1])]:
        eng = Engine(model)
        for side in ("source", "target"):
            for v in range(eng.sides[side].n):
                _, dests, deltas = ix_move_options(eng, side, v)
                for dest, delta in list(zip(dests.tolist(), deltas))[:3]:
                    assert model.move(side, v, dest)[1] == delta


def test_move_options_match_oracle_on_singletons():
    for body in MOVE_BODIES:
        rng = np.random.default_rng(11)
        with forced_move_body(body):
            for _ in range(60):
                sample = random_sample(rng, n_s_max=9, n_t_max=9, m_max=300)
                assert_move_options_match_oracle(Engine(maximal_model(sample)))


def test_move_options_match_oracle_after_post_opt(block_sample):
    for body in MOVE_BODIES:
        with forced_move_body(body):
            for k in (64, 6):
                eng = Engine(initial_solution(block_sample, k, seed=4))
                _post_opt(eng, 2)
                assert_move_options_match_oracle(eng)


def test_move_options_match_oracle_during_merges(block_sample):
    for body in MOVE_BODIES:
        with forced_move_body(body):
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


def assert_profiles_match_oracle(eng, side):
    got, want = eng.vertex_profiles(side), unique_vertex_profiles(eng, side)
    assert len(got) == len(want) == eng.sides[side].n
    for (cols, cnts, gain), (cols_w, cnts_w, gain_w) in zip(got, want):
        for x, y in ((cols, cols_w), (cnts, cnts_w)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert (gain is None) == (gain_w is None)
        if gain is not None:
            assert np.array_equal(gain[0], gain_w[0]) and np.array_equal(gain[1], gain_w[1])
    return got


@pytest.mark.parametrize("table", [True, False])
def test_vertex_profiles_match_the_unique_oracle(block_sample, monkeypatch, table):
    if not table:
        monkeypatch.setattr(_engine, "_GAIN_TABLE_MAX", 0)
    for model in [initial_solution(block_sample, 64, seed=3), *emptying_models()]:
        for side in ("source", "target"):
            assert_profiles_match_oracle(Engine(model), side)
    # "c" is a vocabulary vertex with no edges: its profile is empty
    sample = MultigraphSample(["a", "b", "c"], ["x", "y"], {(0, 0): 2, (0, 1): 1, (1, 1): 3})
    eng = Engine(Coclustering(sample, [0, 1, 1], [0, 1]))
    cols, cnts, _ = assert_profiles_match_oracle(eng, "source")[2]
    assert len(cols) == len(cnts) == 0


@st.composite
def move_cases(draw):
    """A sample of 2-8 vertices with edges per side and 1-2 with none, edge
    counts of at most 1, 2 or 3 (small ones leave room for gain tables),
    and a start in which each side's vertex 0 is a singleton cluster."""
    n_s, n_t = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    idle_s, idle_t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    m, top = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.zeros((n_s, n_t), dtype=np.int64)
    np.add.at(counts, (rng.integers(0, n_s, m), rng.integers(0, n_t, m)), rng.integers(1, top + 1, m))
    edges = {(int(i), int(j)): int(counts[i, j]) for i, j in zip(*np.nonzero(counts))}
    sample = MultigraphSample([f"s{i}" for i in range(n_s + idle_s)], [f"t{j}" for j in range(n_t + idle_t)], edges)
    assigns = []
    for n in (sample.n_source, sample.n_target):
        assign = np.concatenate(([0], rng.integers(1, int(rng.integers(2, n + 1)), n - 1)))
        assigns.append(np.unique(assign, return_inverse=True)[1])
    return sample, *assigns


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=move_cases(), table=st.booleans())
def test_scalar_and_array_move_bodies_agree_bit_for_bit(case, table):
    # every move scoring of two post-opt passes, as the sweeps move vertices
    # and empty clusters; a zero-degree vertex has a profile of no cells,
    # and moving a singleton out scores the lost cluster (`_count_change`)
    sample, source, target = case
    move_deltas = Engine._move_deltas
    scored = []

    def compared(eng, side, v, profile):
        want = eng._move_deltas_array(side, v, profile)
        if len(profile[0]) < 8:
            got = eng._move_deltas_scalar(side, v, profile)
            assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))
            scored.append(v)
        return move_deltas(eng, side, v, profile)

    with mock.patch.object(_engine, "_GAIN_TABLE_MAX", _engine._GAIN_TABLE_MAX if table else 0), \
            mock.patch.object(Engine, "_move_deltas", compared):
        eng = Engine(Coclustering(sample, source, target))
        assert eng.lf_list is not None
        _post_opt(eng, 2)
    assert scored


@pytest.mark.parametrize("n", range(1, 8))
def test_numpy_row_sums_of_fewer_than_8_terms_are_left_folds(n):
    # `Engine._move_deltas_scalar` repeats the array body's row sums as left
    # folds on Python floats; a NumPy whose row reduce sums 1-7 terms in
    # another order breaks its bit-equality, and fails here
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((2000, n)) * 10.0 ** rng.integers(-8, 17, size=(2000, n))
    got = np.add.reduce(rows, axis=1)
    want = np.array([functools.reduce(operator.add, row, 0.0) for row in rows.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if n >= 3:
        # the data tells the orders apart: a right fold differs on some row
        right = np.array([functools.reduce(lambda acc, x: x + acc, row[::-1], 0.0) for row in rows.tolist()])
        assert not np.array_equal(right, want)


# -- incremental caches against fresh computation ------------------------------------


def test_side_terms_equal_fresh_ones_after_every_move_and_merge(block_sample, monkeypatch):
    # moves refresh the two clusters they change, or delete an emptied one,
    # and merges refresh the survivor; the 40 hypothesis samples of
    # `test_merge_caches_match_recomputation_to_the_root` check merges too
    moves, emptying, checks = [], [], []
    move_deltas, apply_move = Engine._move_deltas, Engine.apply_move

    def checked_move_deltas(eng, side, v, profile):
        assert_side_terms_fresh(eng)
        checks.append(v)
        return move_deltas(eng, side, v, profile)

    def counted_apply_move(eng, side, v, dest, profile):
        k = eng.sides[side].k
        apply_move(eng, side, v, dest, profile)
        moves.append(v)
        if eng.sides[side].k < k:
            emptying.append(v)

    monkeypatch.setattr(Engine, "_move_deltas", checked_move_deltas)
    monkeypatch.setattr(Engine, "apply_move", counted_apply_move)
    for model in [initial_solution(block_sample, 64, seed=2), *emptying_models()]:
        _post_opt(Engine(model), 3)
    assert len(moves) - len(emptying) > 200 and len(emptying) > 100
    assert len(checks) > 1000
    eng = Engine(initial_solution(block_sample, 64, seed=2))
    merges = 0
    for _ in _merges(eng):
        assert_side_terms_fresh(eng)
        merges += 1
    assert_side_terms_fresh(eng)
    assert merges == 2 * 63 and eng.sides["source"].k == eng.sides["target"].k == 1


def checked_correction(calls):
    """`_cross_side_correction`, asserting its D bit-equal to the per-pair formula's;
    appends each call's (support size, other-side k) to `calls`."""
    correct = optimizer._cross_side_correction

    def checked(eng, D_full, old_a, old_b):
        want = D_full.copy()
        flat_cross_side_correction(eng, want, old_a, old_b)
        correct(eng, D_full, old_a, old_b)
        assert np.array_equal(D_full.view(np.uint64), want.view(np.uint64))
        calls.append((np.count_nonzero(old_a | old_b), len(old_a)))

    return checked


def assert_corrections_cover(calls):
    """Corrections over a support of several clusters, with and without clusters outside it."""
    assert any(s >= 3 and s == k for s, k in calls)
    assert any(2 <= s < k for s, k in calls)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples())
def test_class_grouped_correction_equals_the_per_pair_formula(sample):
    calls = []
    with mock.patch.object(_engine, "shared_cache", CombinatoricsCache()), \
            mock.patch.object(_engine, "_SCALAR_MAX_K", 0), \
            mock.patch.object(optimizer, "_cross_side_correction", checked_correction(calls)):
        eng = Engine(maximal_model(sample))
        for _ in _merges(eng):
            pass
    assert eng.sides["source"].k == eng.sides["target"].k == 1
    assert len(calls) == sample.n_source + sample.n_target - 2


def test_class_grouped_correction_equals_the_per_pair_formula_at_k64(block_sample):
    calls = []
    with mock.patch.object(optimizer, "_cross_side_correction", checked_correction(calls)):
        eng = Engine(initial_solution(block_sample, 64, seed=5))
        assert eng.sides["source"].k == eng.sides["target"].k == 64
        for _ in _merges(eng):
            pass
    assert len(calls) == 2 * 63
    assert_corrections_cover(calls)


# -- the scanned merge path against the pair matrices ------------------------------


def exhaustive_merges(model):
    """Merge path of `model` to the root by an exhaustive scan: all pairs of a
    side scored in one `Engine.merge_struct` call, plus `merge_global`, and
    the first minimum of (delta, side, a, b) applied."""
    eng = Engine(model)
    path = []
    while eng.sides["source"].k > 1 or eng.sides["target"].k > 1:
        steps = []
        for side in ("source", "target"):
            k = eng.sides[side].k
            if k > 1:
                a, b = np.triu_indices(k, 1)
                deltas = eng.merge_struct(side, a, b) + eng.merge_global(side)
                assert deltas.shape == (len(a),)
                steps += zip(deltas.tolist(), [side] * len(a), a.tolist(), b.tolist())
        path.append(min(steps))
        eng.apply_merge(*path[-1][1:])
    return path


def delta_bits(path):
    return [(np.float64(d).view(np.uint64), side, a, b) for d, side, a, b in path]


@contextlib.contextmanager
def merge_body(scan):
    """Leave the merge loop's gate at its default (`scan`), or force the pair
    matrices by patching `_SCALAR_MAX_K` to 0; yields the list of engines
    that `_scanned_merges` ran on."""
    scanned, engines = optimizer._scanned_merges, []

    def counted(eng):
        engines.append(eng)
        return scanned(eng)

    with mock.patch.object(_engine, "_SCALAR_MAX_K", _engine._SCALAR_MAX_K if scan else 0), \
            mock.patch.object(optimizer, "_scanned_merges", counted):
        yield engines
    assert scan or not engines


def assert_merge_paths_agree(model):
    """The scanned and pair-matrix merge loops yield the exhaustive scan's
    (delta, side, a, b) sequence bit for bit, and give the same dendrogram
    and `gbum` model; returns whether the scan ran, and the path."""
    runs = {}
    for scan in (True, False):
        with merge_body(scan) as engines:
            path = list(_merges(Engine(model)))
            dend = json.dumps(build_dendrogram(model).to_dict(), sort_keys=True)
            merged = gbum(model)
        runs[scan] = (delta_bits(path), dend, merged.source_assignment.tolist(), merged.target_assignment.tolist())
        if scan:
            scanned = len(engines) == 3
            assert len(engines) in (0, 3)
    assert runs[True] == runs[False]
    want = exhaustive_merges(model)
    assert runs[True][0] == delta_bits(want)
    assert len(want) == model.k_source + model.k_target - 2
    return scanned, want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(sample=skewed_samples(), seed=st.integers(0, 2**32 - 1))
def test_scanned_and_matrix_merge_paths_agree_bit_for_bit(sample, seed):
    # the scan takes every start of fewer than 8 clusters per side
    for model in (maximal_model(sample), initial_solution(sample, 7, seed)):
        scanned, _ = assert_merge_paths_agree(model)
        assert scanned == (max(model.k_source, model.k_target) < 8)


def test_scanned_and_matrix_merge_paths_agree_at_k7(block_sample):
    for seed in range(3):
        model = initial_solution(block_sample, 7, seed=seed)
        assert model.k_source == model.k_target == 7
        assert assert_merge_paths_agree(model)[0]


def test_scanned_merges_break_exact_ties_in_side_a_b_order():
    # every cell 3 on a 4x4 sample: all 12 pairs of the maximal model, on
    # both sides, tie exactly, and the first in (side, a, b) order wins
    cells = {(i, j): 3 for i in range(4) for j in range(4)}
    sample = MultigraphSample([f"s{i}" for i in range(4)], [f"t{j}" for j in range(4)], cells)
    model = maximal_model(sample)
    eng = Engine(model)
    a, b = np.triu_indices(4, 1)
    first = {side: eng.merge_struct(side, a, b) + eng.merge_global(side) for side in ("source", "target")}
    assert len(set(np.concatenate(list(first.values())).view(np.uint64).tolist())) == 1
    scanned, path = assert_merge_paths_agree(model)
    assert scanned
    assert path[0][1:] == ("source", 0, 1)


def test_count_change_equals_a_fresh_computation(block_sample, monkeypatch):
    visits = set()
    count = Engine._count_change

    def checked(eng, side):
        got = count(eng, side)
        assert got == count_change(eng, side)
        visits.add((side, eng.sides[side].k, eng.sides[OTHER_SIDE[side]].k))
        return got

    monkeypatch.setattr(Engine, "_count_change", checked)
    monkeypatch.setattr(optimizer, "POOL_MIN_CELLS", 2**63)  # the rounds run in this process
    vns_fit(block_sample, FitConfig(rounds=2, seed=0))
    for model in emptying_models():
        vns_fit(model.sample, FitConfig(rounds=2, seed=1))
    assert len(visits) > 100
    # a side with one cluster has no cluster to lose
    eng = Engine(null_model(block_sample))
    for side in ("source", "target"):
        with pytest.raises(ValueError):
            eng.merge_global(side)


# -- source/target mirror symmetry ---------------------------------------------------


def assert_mirrored(eng, mirror):
    """`mirror` is `eng` with sources and targets swapped."""
    assert np.array_equal(eng.M, mirror.M.T)
    for side in ("source", "target"):
        other = OTHER_SIDE[side]
        profiles = zip(eng.vertex_profiles(side), mirror.vertex_profiles(other))
        for v, (p, q) in enumerate(profiles):
            # equal arrays: each has +inf at v's own cluster
            assert np.array_equal(eng._move_deltas(side, v, p), mirror._move_deltas(other, v, q))
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


# -- phase records ----------------------------------------------------------------


def test_post_opt_counts_the_passes_and_moves_of_its_sweeps(block_sample):
    model = initial_solution(block_sample, 64, seed=2)
    mirror = Engine(model)
    sweeps = []
    while not sweeps or sum(sweeps[-1]):
        sweeps.append((_sweep(mirror, "source"), _sweep(mirror, "target")))
    assert len(sweeps) > 2
    moves = sum(map(sum, sweeps))
    # converged: the last pass moved nothing, whatever the cap above it
    assert _post_opt(Engine(model), len(sweeps)) == (len(sweeps), moves, True)
    assert _post_opt(Engine(model), len(sweeps) + 5) == (len(sweeps), moves, True)
    # stopped at its cap while vertices still moved
    assert _post_opt(Engine(model), len(sweeps) - 1) == (len(sweeps) - 1, moves, False)
    assert _post_opt(Engine(model), 1) == (1, sum(sweeps[0]), False)


@pytest.mark.parametrize("family, m", [("golden", m) for m in sorted(GOLDEN_FITS)] + [("block", 3000)])
def test_phase_records_account_for_each_round(family, m):
    if family == "golden":
        sample, _ = gen_block_diagonal(300, 4, 0.5, m=m, seed=3)
        config = FitConfig(rounds=2, seed=1)
    else:
        sample, _ = gen_block_diagonal(100, 10, 0.1, m=m, seed=0)
        config = FitConfig(rounds=4, seed=0)
    cap = FitConfig.post_opt_passes
    for r in vns_fit(sample, config).rounds:
        start, pre, merges, post = r.phases
        assert [p.phase for p in r.phases] == ["start", "pre-opt", "merges", "post-opt"]
        for before, after in zip(r.phases, r.phases[1:]):
            assert after.k_source <= before.k_source and after.k_target <= before.k_target
        assert (start.k_source, start.k_target) == (r.initial_k_source, r.initial_k_target)
        assert (post.k_source, post.k_target) == (r.final_k_source, r.final_k_target)
        assert (start.passes, start.moves, start.merges, start.converged) == (0, 0, 0, True)
        assert (merges.passes, merges.moves, merges.converged) == (0, 0, True)
        assert merges.merges == pre.k_source + pre.k_target - merges.k_source - merges.k_target
        for p in (pre, post):
            assert 1 <= p.passes <= cap and p.merges == 0
            assert p.converged or p.passes == cap
        assert all(p.seconds >= 0.0 for p in r.phases)
        assert sum(p.seconds for p in r.phases) <= r.seconds + 1e-9
        # the records leave `to_dict` as plain, JSON-ready dicts
        assert json.loads(json.dumps(r.to_dict()))["phases"] == [dataclasses.asdict(p) for p in r.phases]


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
    assert phase_records(pooled) == phase_records(alone)
    assert multiprocessing.active_children() == []


def phase_records(fit):
    """Each round's phase records, seconds aside."""
    return [[dataclasses.replace(p, seconds=0.0) for p in r.phases] for r in fit.rounds]


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
