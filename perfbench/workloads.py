"""The three workloads, each run untraced (end-to-end metrics) or traced
(per-layer metrics).

Untraced ops go through the program's public entry points only:
`modlcc.cli.main([...])` for fit-large and explore, `parse_edge_list` plus
`vns_fit` for fit-batch.  Traced ops split the same work into the public
calls of each layer, with a span around each call.  A traced run also runs
every op once untraced, as the reference that the traced op must
reproduce exactly and against which the tracing overhead is measured.
There, `attempted` and `failed` count the reference ops, and a replay that
raises or differs counts in `trace.replay_mismatches`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import modlcc
from modlcc import (
    Coclustering,
    FitConfig,
    FitResult,
    build_dendrogram,
    cut,
    estimate_density,
    gbum,
    information_metrics,
    initial_solution,
    modl_mi_estimate,
    modularity,
    null_model,
    parse_edge_list,
    post_optimize,
    vns_fit,
)
from modlcc.cli import main as cli_main
from modlcc.combinatorics import shared_cache
from modlcc.optimizer import RoundLog

import inputs
from checks import CheckFailed, check_coarsen_doc, check_evaluate_doc, check_fit_doc
from hostspeed import PROBE
from spans import Tracer

SETUP_REPS = 5
# fit-batch fits a fixed list whose length scales with the run length, so
# that one cold pass takes about --seconds at the baseline commit.
BATCH_GRAPHS_PER_SECOND = 128

# per-layer time metric -> the span whose self time it reports
LAYER_TIMES = {
    "graph.parse_s": "graph.parse",
    "model.load_s": "model.load",
    "model.save_s": "model.save",
    "model.criterion_s": "model.criterion",
    "optimizer.init_s": "optimizer.init",
    "optimizer.preopt_s": "optimizer.preopt",
    "optimizer.merge_s": "optimizer.merge",
    "optimizer.postopt_s": "optimizer.postopt",
    "hierarchy.dendrogram_s": "hierarchy.dendrogram",
    "hierarchy.cut_s": "hierarchy.cut",
    "density.metrics_s": "density.metrics",
    "density.mi_s": "density.mi",
    "density.modularity_s": "density.modularity",
}
LAYERS = ("graph", "model", "optimizer", "hierarchy", "density")
PER_LAYER = (
    [(name, "s") for name in LAYER_TIMES]
    + [
        ("graph.lines", "count"),
        ("graph.cells", "count"),
        ("optimizer.rounds", "count"),
        ("optimizer.k_initial", "count"),
        ("optimizer.k_after_preopt", "count"),
        ("optimizer.merges", "count"),
        ("optimizer.k_final", "count"),
        ("optimizer.round_hit_ratio", "ratio"),
        ("optimizer.gap_after_preopt_nats", "nats"),
        ("optimizer.gap_after_merge_nats", "nats"),
        ("optimizer.gap_after_postopt_nats", "nats"),
        ("hierarchy.merges", "count"),
        ("density.grid_mb", "MB-computed"),
        ("combinatorics.lf_entries", "count"),
        ("synthgen.generate_s", "s"),
    ]
    + [(f"{layer}.failed", "count") for layer in LAYERS]
    + [
        ("trace.op_s", "s"),
        ("trace.ref_op_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.coverage_min", "ratio"),
        ("trace.replay_mismatches", "count"),
    ]
)


@dataclass
class Result:
    """What one workload run measured."""

    workload: str
    import_span: tuple[float, float] = (0.0, 0.0)  # process start to the first input build
    build_spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per build
    synthgen_s: float = 0.0
    attempted: int = 0
    op_spans: list[tuple[float, float]] = field(default_factory=list)  # successful ops, in order
    busy_spans: list[tuple[float, float]] = field(default_factory=list)  # every attempted op
    op_mean: bool = False  # op_s is the mean, not the median, of the ops' times
    failures: Counter = field(default_factory=Counter)  # "<type> from <call>"
    check_failures: list[str] = field(default_factory=list)
    gap_nats: float = math.nan
    gain_share: float = math.nan  # see gain_share()
    report: dict = field(default_factory=dict)  # workload-specific figures
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced run)

    @property
    def op_times(self) -> list[float]:
        return [b - a for a, b in self.op_spans]

    @property
    def busy_s(self) -> float:
        """Wall time of all attempted ops."""
        return sum(b - a for a, b in self.busy_spans)

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + len(self.check_failures)

    def fail(self, exc: Exception, call: str):
        self.failures[f"{type(exc).__name__} from {call}"] += 1

    def check(self, fn, *args) -> bool:
        """Run an output check; a failure is recorded and returns False."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.check_failures.append(str(exc))
            return False
        return True


class CliExit(Exception):
    """`modlcc` returned a non-zero exit code."""


def cli(argv: list[str]) -> str:
    """Run `modlcc <argv>` in process; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def setup(res: Result, build, t_start: float):
    """Build the inputs SETUP_REPS times, recording the time from t_start
    to the first build and the span of each build."""
    res.import_span = (t_start, time.perf_counter())
    gens = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        value, gen_s = build()
        res.build_spans.append((t, time.perf_counter()))
        gens.append(gen_s)
    res.synthgen_s = statistics.median(gens)
    return value


def repeat_for(seconds: float, op):
    """Run op() until `seconds` have passed; always at least once."""
    start = time.perf_counter()
    while True:
        op()
        if time.perf_counter() - start >= seconds:
            return


def median(values, default=0.0):
    return statistics.median(values) if values else default


def gain_share(null, reached, planted) -> float:
    """(null - reached) / (null - planted): the share of the planted
    model's gain over the null model that the returned model keeps.  1 when
    a fit reaches the planted partition; lower is a worse model.  Unlike a
    ratio of criteria, it is far from 1 whenever the model is."""
    return (null - reached) / (null - planted)


# -- replaying vns_fit through public calls -------------------------------------


@dataclass
class Round:
    k_initial: tuple[int, int]
    k_after_preopt: int
    k_after_merge: int
    k_final: tuple[int, int]
    after_preopt: float
    after_merge: float
    total: float
    model: Coclustering


def initial_clusters(sample) -> int:
    """vns_fit's start: ceil(sqrt(m)) clusters, the maximal model on tiny samples."""
    r = math.isqrt(sample.m)
    k = r if r * r == sample.m else r + 1
    return k if k >= 2 else max(sample.n_source, sample.n_target)


def replay_rounds(tracer: Tracer, sample, rounds: int, seed: int) -> list[Round]:
    """The rounds of vns_fit(sample, FitConfig(rounds, seed)), one public call per phase."""
    passes = FitConfig().post_opt_passes
    k0 = initial_clusters(sample)
    out = []
    for child in np.random.SeedSequence(seed).spawn(rounds):
        with tracer.span("optimizer.init"):
            model = initial_solution(sample, k0, child)
        k_init = (model.k_source, model.k_target)
        with tracer.span("optimizer.preopt"):
            model = post_optimize(model, passes=passes)
        with tracer.span("model.criterion"):
            after_preopt = model.criterion().total
        k_pre = model.k_source + model.k_target
        with tracer.span("optimizer.merge"):
            model = gbum(model)
        with tracer.span("model.criterion"):
            after_merge = model.criterion().total
        k_merge = model.k_source + model.k_target
        with tracer.span("optimizer.postopt"):
            model = post_optimize(model, passes=passes)
        with tracer.span("model.criterion"):
            total = model.criterion().total
        out.append(Round(k_init, k_pre, k_merge, (model.k_source, model.k_target),
                         after_preopt, after_merge, total, model))
    return out


def select(tracer: Tracer, sample, rounds: list[Round]) -> Coclustering:
    """vns_fit's choice: the first best round, unless the null model beats it."""
    best = None
    for r in rounds:
        if best is None or r.total < best.total:
            best = r
    with tracer.span("model.criterion"):
        null = null_model(sample)
        null_total = null.criterion().total
    return null if null_total < best.total else best.model


@dataclass
class RoundStats:
    """Rounds of successful traced ops, each with the criterion its op returned."""

    rounds: list[tuple[Round, float]] = field(default_factory=list)
    ops: int = 0

    def add(self, rounds: list[Round], returned: float):
        self.ops += 1
        self.rounds.extend((r, returned) for r in rounds)

    def metrics(self, planted) -> dict:
        """`planted(i)` is the planted criterion of the i-th round's sample."""
        rs = [(r, ret, planted(i)) for i, (r, ret) in enumerate(self.rounds)]
        if not rs:
            return {}
        return {
            "optimizer.rounds": len(rs) / self.ops,
            "optimizer.k_initial": median([sum(r.k_initial) for r, _, _ in rs]),
            "optimizer.k_after_preopt": median([r.k_after_preopt for r, _, _ in rs]),
            "optimizer.merges": median([r.k_after_preopt - r.k_after_merge for r, _, _ in rs]),
            "optimizer.k_final": median([sum(r.k_final) for r, _, _ in rs]),
            "optimizer.round_hit_ratio": sum(r.total == ret for r, ret, _ in rs) / len(rs),
            "optimizer.gap_after_preopt_nats": median([r.after_preopt - p for r, _, p in rs]),
            "optimizer.gap_after_merge_nats": median([r.after_merge - p for r, _, p in rs]),
            "optimizer.gap_after_postopt_nats": median([r.total - p for r, _, p in rs]),
        }


def layer_metrics(res: Result, tracer: Tracer, ref_spans: list[tuple[float, float]],
                  mismatches: int, extra: dict) -> dict:
    """Per-layer metrics.  Layer times are wall self times; trace.op_s and
    trace.ref_op_s are at the host speed probe's reference speed, so that
    their ratio, the tracing overhead, does not move with the host."""
    ops = tracer.ops()
    n = max(1, len(ops))
    self_times = tracer.self_times()
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, span in LAYER_TIMES.items():
        out[name] = self_times.get(span, 0.0) / n
    failed = Counter(o["failed_layer"] for o in ops if o["failed_layer"])
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed[layer]
    ok_ops = [PROBE.normalized(o["start"], o["end"]) for o in ops if not o["failed_layer"]]
    out["trace.op_s"] = median(ok_ops)
    out["trace.ref_op_s"] = median([PROBE.normalized(*s) for s in ref_spans])
    if ok_ops and ref_spans:
        out["trace.overhead"] = out["trace.op_s"] / out["trace.ref_op_s"] - 1.0
    out["trace.coverage_min"] = min((o["coverage"] for o in ops), default=0.0)
    out["trace.replay_mismatches"] = mismatches
    out["combinatorics.lf_entries"] = len(shared_cache.factorial_table(0))
    out["synthgen.generate_s"] = res.synthgen_s
    out.update(extra)
    return out


# -- fit-large --------------------------------------------------------------------


def fit_large(seed: int, seconds: float, traced: bool, workdir: str, t_start: float) -> Result:
    res = Result("fit-large")
    edges, groups = setup(res, lambda: inputs.fit_large_input(seed, workdir), t_start)
    model_path = os.path.join(workdir, "large.json")
    rounds = inputs.FIT_LARGE_ROUNDS
    argv = ["fit", edges, "-o", model_path, "--unify-vertices", "--rounds", str(rounds), "--seed", "0"]
    ref: dict = {}

    def reference():
        # parsed after the first fit, so that fit starts as cold as `modlcc fit`
        if not ref:
            sample = parse_edge_list(read(edges), unify=True)
            ref["sample"] = sample
            ref["null"] = null_model(sample).criterion().total
            ref["planted"] = inputs.planted_model(sample, groups, groups).criterion().total
        return ref

    totals = []

    def cli_fit() -> float | None:
        res.attempted += 1
        t = time.perf_counter()
        try:
            cli(argv)
        except Exception as exc:
            res.busy_spans.append((t, time.perf_counter()))
            res.fail(exc, "modlcc fit")
            return None
        span = (t, time.perf_counter())
        res.busy_spans.append(span)
        r = reference()
        doc = json.loads(read(model_path))
        if res.check(check_fit_doc, doc, r["sample"], r["null"]):
            res.op_spans.append(span)
            totals.append(doc["criterion"]["total"])
        return span

    if not traced:
        repeat_for(seconds, cli_fit)
    else:
        tracer, stats = Tracer(), RoundStats()
        ref_spans, mismatches = [], 0
        replay_path = os.path.join(workdir, "replay.json")

        def traced_pair():
            """One untraced `modlcc fit`, then its traced replay."""
            nonlocal mismatches
            ref_span = cli_fit()
            if ref_span is None:
                return
            ref_spans.append(ref_span)
            expect = read(model_path)
            try:
                with tracer.op():
                    rs, returned = fit_replay(tracer, edges, replay_path, rounds)
            except Exception:
                mismatches += 1
                return
            stats.add(rs, returned)
            expect_rounds = [r["criterion"] for r in json.loads(expect)["fit_log"]]
            if [x.total for x in rs] != expect_rounds or read(replay_path) != expect:
                mismatches += 1

        repeat_for(seconds, traced_pair)
        planted = reference()["planted"]
        sample = reference()["sample"]
        res.layers = layer_metrics(res, tracer, ref_spans, mismatches, {
            **stats.metrics(lambda i: planted),
            "graph.lines": read(edges).count("\n"),
            "graph.cells": len(sample.edges),
        })
        tracer.dump(os.path.join(workdir, "spans.json"))
    r = reference()
    fitted = median(totals, r["null"])
    res.gap_nats = fitted - r["planted"]
    res.gain_share = gain_share(r["null"], fitted, r["planted"])
    return res


def fit_replay(tracer: Tracer, edges: str, out_path: str, rounds: int):
    """`modlcc fit EDGES -o OUT --unify-vertices --rounds R --seed 0`, one
    public call per span; returns the rounds and the returned criterion."""
    with tracer.span("graph.parse"):
        sample = parse_edge_list(read(edges), unify=True)
    rs = replay_rounds(tracer, sample, rounds, seed=0)
    best = select(tracer, sample, rs)
    logs = [
        RoundLog(round=i, seed=0, initial_k_source=r.k_initial[0], initial_k_target=r.k_initial[1],
                 final_k_source=r.k_final[0], final_k_target=r.k_final[1], criterion=r.total,
                 seconds=0.0)
        for i, r in enumerate(rs)
    ]
    fit = FitResult(best, best.criterion(), rounds=logs, config=FitConfig(rounds=rounds, seed=0))
    with tracer.span("model.save"):
        write(out_path, json.dumps(fit.to_dict(seed=0), indent=2) + "\n")
    with tracer.span("density.mi"):
        modl_mi_estimate(fit, sample)
    return rs, fit.best_criterion.total


# -- fit-batch ---------------------------------------------------------------------


def batch_pass(res: Result, graphs: list[inputs.BatchGraph], rounds: int = inputs.BATCH_ROUNDS,
               tracer: Tracer | None = None):
    """One cold pass: parse and fit every graph; a raising op is recorded
    and the pass goes on.  With a tracer, each graph is fitted untraced and
    then replayed traced.  Returns (samples, fits, op spans, replays, mismatches)."""
    n = len(graphs)
    samples, fits, spans, replays = [None] * n, [None] * n, [None] * n, [None] * n
    mismatches = 0
    for i, g in enumerate(graphs):
        res.attempted += 1
        t = time.perf_counter()
        call = "parse_edge_list"
        error = None
        try:
            samples[i] = parse_edge_list(g.text, unify=g.unify)
            call = "vns_fit"
            fits[i] = vns_fit(samples[i], FitConfig(rounds=rounds, seed=0))
            spans[i] = (t, time.perf_counter())
            res.busy_spans.append(spans[i])
        except Exception as exc:
            res.busy_spans.append((t, time.perf_counter()))
            res.fail(exc, call)
            error = type(exc).__name__
        if tracer is None:
            continue
        try:
            with tracer.op():
                with tracer.span("graph.parse"):
                    sample = parse_edge_list(g.text, unify=g.unify)
                rs = replay_rounds(tracer, sample, rounds, seed=0)
                best = select(tracer, sample, rs)
        except Exception as exc:
            mismatches += type(exc).__name__ != error
            continue
        replays[i] = (rs, best.criterion().total)
        if error or [r.total for r in rs] != [r.criterion for r in fits[i].rounds]:
            mismatches += 1
    return samples, fits, spans, replays, mismatches


def fit_batch(seed: int, seconds: float, traced: bool, workdir: str, t_start: float) -> Result:
    # The graphs are fitted in ascending size, so any quantile of the
    # per-fit times is set by the few seconds of the pass in which its fits
    # ran; the mean fit time takes in the whole pass.
    res = Result("fit-batch", op_mean=True)
    count = max(2, round(BATCH_GRAPHS_PER_SECOND * seconds))
    graphs = setup(res, lambda: inputs.batch_graphs(seed, count), t_start)
    tracer = Tracer() if traced else None
    samples, fits, spans, replays, mismatches = batch_pass(res, graphs, tracer=tracer)
    lf_entries = len(shared_cache.factorial_table(0))
    # Scoring and checks come after the pass: any criterion computed between
    # fits would grow the shared log-factorial table and change what fails.
    planted = [None] * len(graphs)
    scores = {"recovery": [], "skewed": []}  # (null, reached, planted) per parsed graph
    for i, (g, sample, fit, span) in enumerate(zip(graphs, samples, fits, spans)):
        if sample is None:
            continue  # did not parse: counted as failed, nothing to score
        null_total = null_model(sample).criterion().total
        planted[i] = inputs.planted_model(sample, g.source_groups, g.target_groups).criterion().total
        # a failed fit scores the null model, which vns_fit never does worse than
        total = null_total
        if fit is not None:
            doc = json.loads(json.dumps(fit.to_dict(seed=0)))
            if res.check(check_fit_doc, doc, sample, null_total):
                res.op_spans.append(span)
                total = doc["criterion"]["total"]
        scores[g.family].append((null_total, total, planted[i]))
    every = scores["recovery"] + scores["skewed"]
    res.gap_nats = statistics.fmean(t - p for _, t, p in every)
    # Sums over graphs: tiny graphs can have a planted model no better than
    # the null model.  The metric takes the cluster-recovery half only: its
    # planted partition is the model to find, and its fits do not fail.  On
    # the skewed half the planted split is only a reference, and a third of
    # the fits fail, each taking its graph's whole gain, so a share over that
    # half moves by about 3% from seed to seed; it is reported, not a metric.
    shares = {fam: gain_share(*(sum(col) for col in zip(*rows))) if rows else math.nan
              for fam, rows in scores.items()}
    res.gain_share = shares["recovery"]
    res.report["graphs"] = (count, "count", "one cold pass, half cluster-recovery, half skewed")
    res.report["skewed_gain_share"] = (shares["skewed"], "ratio",
                                       "gain_share over the skewed half, failed fits as null")
    if tracer is not None:
        stats, round_planted = RoundStats(), []
        for rp, p in zip(replays, planted):
            if rp is not None:
                stats.add(*rp)
                round_planted += [p] * len(rp[0])
        res.layers = layer_metrics(res, tracer, list(filter(None, spans)), mismatches, {
            **stats.metrics(lambda i: round_planted[i]),
            "graph.lines": statistics.fmean(g.text.count("\n") for g in graphs),
            "graph.cells": statistics.fmean(len(s.edges) for s in samples if s is not None),
            "combinatorics.lf_entries": lf_entries,
        })
        tracer.dump(os.path.join(workdir, "spans.json"))
    return res


# -- explore -----------------------------------------------------------------------


def explore(seed: int, seconds: float, traced: bool, workdir: str, t_start: float) -> Result:
    res = Result("explore")
    edges, model_path = setup(res, lambda: inputs.explore_input(seed, workdir), t_start)
    cut_path = os.path.join(workdir, "cut.json")
    requested = inputs.EXPLORE_CLUSTERS
    coarsen_argv = ["coarsen", model_path, edges, "--clusters", "%d,%d" % requested, "-o", cut_path]
    evaluate_argv = ["evaluate", model_path, edges, "--modularity"]
    ref: dict = {}

    def reference():
        if not ref:
            data = json.loads(read(model_path))
            sample = parse_edge_list(read(edges), unify=True, vocabulary=data["source_labels"])
            ref["sample"] = sample
            ref["null"] = null_model(sample).criterion().total
            ref["planted"] = Coclustering.from_dict(data, sample).criterion().total
        return ref

    coarsen_spans, evaluate_spans, cut_totals = [], [], []

    def cli_pair():
        """One `coarsen` then one `evaluate`; returns (cut doc, evaluate doc) or None."""
        res.attempted += 1
        t0 = time.perf_counter()
        call = "modlcc coarsen"
        try:
            cli(coarsen_argv)
            t1 = time.perf_counter()
            call = "modlcc evaluate"
            out = cli(evaluate_argv)
        except Exception as exc:
            res.busy_spans.append((t0, time.perf_counter()))
            res.fail(exc, call)
            return None
        t2 = time.perf_counter()
        res.busy_spans.append((t0, t2))
        cut_doc, eval_doc = json.loads(read(cut_path)), json.loads(out)
        if (res.check(check_coarsen_doc, cut_doc, requested, reference()["null"])
                and res.check(check_evaluate_doc, eval_doc)):
            res.op_spans.append((t0, t2))
            coarsen_spans.append((t0, t1))
            evaluate_spans.append((t1, t2))
            cut_totals.append(cut_doc["criterion"]["total"])
        return cut_doc, eval_doc

    if not traced:
        repeat_for(seconds, cli_pair)
    else:
        tracer = Tracer()
        ref_spans, mismatches, merges = [], 0, []

        def traced_pair():
            nonlocal mismatches
            expect = cli_pair()
            if expect is None:
                return
            ref_spans.append(res.busy_spans[-1])
            try:
                with tracer.op():
                    got = explore_replay(tracer, model_path, edges, cut_path, requested)
            except Exception:
                mismatches += 1
                return
            merges.append(len(got[0]["merge_path"]))
            mismatches += got[0] != expect[0] or got[1] != expect[1]

        repeat_for(seconds, traced_pair)
        data = json.loads(read(model_path))
        n_s, n_t = len(data["source_labels"]), len(data["target_labels"])
        res.layers = layer_metrics(res, tracer, ref_spans, mismatches, {
            "graph.lines": read(edges).count("\n") * 2,  # coarsen and evaluate each parse
            "graph.cells": len(reference()["sample"].edges) * 2,
            "hierarchy.merges": median(merges),
            "density.grid_mb": n_s * n_t * 8 / 1e6,
        })
        tracer.dump(os.path.join(workdir, "spans.json"))
    r = reference()
    cut_total = median(cut_totals, r["null"])
    res.gap_nats = cut_total - r["planted"]
    res.gain_share = gain_share(r["null"], cut_total, r["planted"])
    n = len(coarsen_spans)
    for name, spans in (("coarsen", coarsen_spans), ("evaluate", evaluate_spans)):
        res.report[f"{name}_s"] = (median([PROBE.normalized(*s) for s in spans]), "s",
                                   f"median of {n} `modlcc {name}`, at the probe's reference speed")
    return res


def explore_replay(tracer: Tracer, model_path: str, edges: str, cut_path: str, requested):
    """`modlcc coarsen` then `modlcc evaluate --modularity`, one public call
    per span; returns (cut doc, evaluate doc) as the commands write them."""

    def load():
        with tracer.span("model.load"):
            data = json.loads(read(model_path))
        with tracer.span("graph.parse"):
            sample = parse_edge_list(read(edges), unify=data["unified"],
                                     vocabulary=data["source_labels"],
                                     target_vocabulary=data["target_labels"])
        with tracer.span("model.load"):
            model = Coclustering.from_dict(data, sample)
            model.verify_consistent(sample)
        return model, sample

    model, _ = load()
    with tracer.span("hierarchy.dendrogram"):
        dend = build_dendrogram(model)
    with tracer.span("hierarchy.cut"):
        cut_model = cut(dend, *requested)
    with tracer.span("model.save"):
        cut_doc = cut_model.to_dict(seed=0)
        cut_doc["requested_clusters"] = list(requested)
        cut_doc["merge_path"] = dend.to_dict()["merges"]
        write(cut_path, json.dumps(cut_doc, indent=2) + "\n")

    model, sample = load()
    with tracer.span("density.metrics"):
        report = information_metrics(estimate_density(model))
    with tracer.span("density.mi"):
        report.modl_mi, report.modl_mi_likelihood = modl_mi_estimate(model, sample)
    with tracer.span("density.modularity"):
        report.modularity = modularity(sample, model.source_assignment)
    eval_doc = report.to_dict()
    eval_doc["units"] = "nats"
    eval_doc["tool_version"] = modlcc.__version__
    return json.loads(json.dumps(cut_doc)), json.loads(json.dumps(eval_doc))


WORKLOADS = {"fit-large": fit_large, "fit-batch": fit_batch, "explore": explore}
