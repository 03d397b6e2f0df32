"""Benchmark harness: estimation-convergence and cluster-recovery experiments.

Experiments write one CSV row per (sample size, repetition) plus aggregate
`mean` / `std` rows per size.  Runs are restartable: rows already present in
the output file are kept and only the missing (size, rep) cells are computed,
with per-cell seeds derived from the experiment seed so reruns are identical.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from statistics import mean, stdev

import numpy as np

from .density import (
    baseline_estimator,
    information_metrics,
    modl_mi_estimate,
    sparse_information_metrics,
)
from .optimizer import FitConfig, vns_fit
from .synthgen import GeneratorSpec, generate

__all__ = [
    "ExperimentSpec",
    "run_convergence_experiment",
    "run_cluster_curve",
    "recovery_fractions",
    "DESK_CONVERGENCE",
    "PAPER_CONVERGENCE",
    "DESK_CLUSTER_CURVE",
]


@dataclass
class ExperimentSpec:
    """One experiment: a generator family swept over sample sizes."""

    family: str
    sizes: list[int]
    reps: int = 5
    seed: int = 0
    rounds: int = 10
    params: dict = field(default_factory=dict)


DESK_CONVERGENCE = ExperimentSpec(
    family="circular", sizes=[100, 1000, 10000], reps=3, params={"n": 100}
)
PAPER_CONVERGENCE = ExperimentSpec(
    family="circular", sizes=[100, 1000, 10000, 100000, 1000000], reps=10, params={"n": 100}
)
DESK_CLUSTER_CURVE = ExperimentSpec(
    family="block_diagonal",
    sizes=[50, 100, 200, 400, 800],
    reps=5,
    params={"n": 10, "blocks": 2, "noise_rate": 0.0},
)


def _cell_seed(base_seed: int, size: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([base_seed, size, rep])


def _load_existing(path: str, columns: list[str]) -> dict[tuple[int, int], dict]:
    """Data rows of an earlier run, keyed by (size, rep); aggregates dropped."""
    done: dict[tuple[int, int], dict] = {}
    if not path or not os.path.exists(path):
        return done
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != columns:
            return done
        for row in reader:
            try:
                key = (int(row["size"]), int(row["rep"]))
            except (ValueError, KeyError):
                continue  # aggregate or malformed row
            done[key] = row
    return done


def _write_csv(path: str | None, columns: list[str], rows: list[dict]):
    if not path:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _aggregates(rows: list[dict], columns: list[str], sizes: list[int]) -> list[dict]:
    out = []
    numeric = [c for c in columns if c not in ("size", "rep")]
    for size in sizes:
        group = [r for r in rows if int(r["size"]) == size]
        if not group:
            continue
        for name, fn in (("mean", mean), ("std", lambda v: stdev(v) if len(v) > 1 else 0.0)):
            agg = {"size": size, "rep": name}
            for c in numeric:
                agg[c] = fn([float(r[c]) for r in group])
            out.append(agg)
    return out


def _run_grid(spec: ExperimentSpec, output, progress, columns: list[str], measure) -> list[dict]:
    """Fit every (size, rep) cell of `spec` that `output` does not hold yet.

    Each row holds the size, the rep, the fitted cluster counts, then
    `columns`, filled by `measure(sample, truth, fit)`, then the fit's wall
    time.  The CSV gets every row plus the per-size aggregates.
    """
    columns = ["size", "rep", "k_source", "k_target", *columns, "seconds"]
    done = _load_existing(output, columns)
    rows: list[dict] = []
    for size in spec.sizes:
        for rep in range(spec.reps):
            key = (size, rep)
            if key in done:
                rows.append(done[key])
                continue
            gspec = GeneratorSpec(spec.family, m=size, seed=_cell_seed(spec.seed, size, rep), params=spec.params)
            sample, truth = generate(gspec)
            t0 = time.perf_counter()
            fit = vns_fit(sample, FitConfig(rounds=spec.rounds, seed=spec.seed))
            elapsed = time.perf_counter() - t0
            row = {
                "size": size,
                "rep": rep,
                "k_source": fit.best_model.k_source,
                "k_target": fit.best_model.k_target,
                **measure(sample, truth, fit),
                "seconds": elapsed,
            }
            rows.append(row)
            if progress is not None:
                progress(row)
    _write_csv(output, columns, rows + _aggregates(rows, columns, spec.sizes))
    return rows


def run_convergence_experiment(
    spec: ExperimentSpec | None = None, output: str | None = None, progress=None
) -> list[dict]:
    """Compare density estimators against the generator's exact cell table.

    Per (size, rep): fit the generated sample and record the fitted grid
    shape, the criterion-gap dependence estimates (full and likelihood-only),
    the plug-in and additive-smoothing baselines, the exact dependence of the
    generating table, and the wall time.
    """

    def measure(sample, truth, fit):
        mi_full, mi_lh = modl_mi_estimate(fit, sample)
        return {
            "mi_modl": mi_full,
            "mi_modl_lh": mi_lh,
            "mi_empirical": sparse_information_metrics(sample).mutual_information,
            "mi_laplace": information_metrics(baseline_estimator(sample, "laplace")).mutual_information,
            "mi_true": information_metrics(np.asarray(truth)).mutual_information,
        }

    columns = ["mi_modl", "mi_modl_lh", "mi_empirical", "mi_laplace", "mi_true"]
    return _run_grid(spec or DESK_CONVERGENCE, output, progress, columns, measure)


def run_cluster_curve(
    spec: ExperimentSpec | None = None, output: str | None = None, progress=None
) -> list[dict]:
    """Cluster-count recovery as a function of sample size.

    Per (size, rep): generate, fit, record the fitted cluster counts and the
    wall time.  The `recovered` column is 1 when both counts equal the
    planted block count of the generator.
    """
    spec = spec or DESK_CLUSTER_CURVE
    true_k = spec.params.get("blocks") or spec.params.get("cluster_count")

    def measure(sample, truth, fit):
        ks, kt = fit.best_model.k_source, fit.best_model.k_target
        return {"recovered": int(true_k is not None and ks == true_k and kt == true_k)}

    return _run_grid(spec, output, progress, ["recovered"], measure)


def recovery_fractions(rows: list[dict]) -> dict[int, float]:
    """Per-size fraction of repetitions whose fit recovered the planted counts."""
    by_size: dict[int, list[int]] = {}
    for r in rows:
        by_size.setdefault(int(r["size"]), []).append(int(r["recovered"]))
    return {size: sum(v) / len(v) for size, v in sorted(by_size.items())}
