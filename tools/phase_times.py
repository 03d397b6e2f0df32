"""Print what each phase of each `vns_fit` round did on the fit-large input (or the fit-batch pass), and its wall seconds.

    python3 tools/phase_times.py [--seeds 1 2 3] [--rounds 4] [--fit-seed 0]
    python3 tools/phase_times.py --batch SEED [--graphs 640]

For each input seed, the benchmark's fit-large edge file is written by
`perfbench/inputs.py` and parsed as `modlcc fit --unify-vertices` parses
it.  Then one `vns_fit(sample, FitConfig(rounds, fit_seed))` call fits it,
as `modlcc fit` does: with 2 or more rounds on this sample, the rounds run
on forked worker processes.  The table prints the `RoundLog.phases` of
each round: for each phase (the start, pre-opt, the merges, post-opt) its
wall seconds inside the process that ran the round, its passes, moves and
merges, and whether it converged ("no": a move phase that stopped at its
pass cap).  Each row is one round, with its wall seconds, final cluster
counts and criterion; the `median` row holds the median of each numeric
column, and the last line counts the rounds in which each phase did not
converge.  Times are wall-clock `perf_counter` seconds only.

With --batch SEED, the tool profiles the fit-batch pass in place of the
fit-large rounds: the --graphs graphs of `perfbench/inputs.batch_graphs`
are parsed and fitted in order, as the benchmark's fit-batch workload does
(`parse_edge_list`, then `vns_fit` with `inputs.BATCH_ROUNDS` rounds and
seed 0, in process, a raising graph counted and skipped).  It prints the
mean seconds per successful fit of the parse, of each phase summed over
the fit's rounds, and of the fit's time outside its rounds.  A second,
untimed pass fits the same graphs with the two bodies of
`Engine._move_deltas` wrapped to count their calls, and prints the mean
move scorings per successful fit and the share that took the scalar body.
"""

import argparse
import collections
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import FitConfig, parse_edge_list, vns_fit  # noqa: E402
from modlcc._engine import Engine  # noqa: E402

FIELDS = f"{'wall s':>8} {'passes':>6} {'moves':>6} {'merges':>6} {'conv':>4}"


def phase_cells(p) -> str:
    return f"{p.seconds:>8.3f} {p.passes:>6} {p.moves:>6} {p.merges:>6} {'yes' if p.converged else 'no':>4}"


def batch_phases(seed: int, count: int):
    graphs, _ = inputs.batch_graphs(seed, count)
    totals, fits, failed = collections.defaultdict(float), 0, 0
    for g in graphs:
        t = time.perf_counter()
        try:
            sample = parse_edge_list(g.text, unify=g.unify)
            t_parse = time.perf_counter()
            fit = vns_fit(sample, FitConfig(rounds=inputs.BATCH_ROUNDS, seed=0))
        except Exception:
            failed += 1
            continue
        t_fit = time.perf_counter() - t_parse
        fits += 1
        totals["parse"] += t_parse - t
        for r in fit.rounds:
            for p in r.phases:
                totals[p.phase] += p.seconds
        totals["outside rounds"] += t_fit - sum(r.seconds for r in fit.rounds)
    print(f"fit-batch seed {seed}: {len(graphs)} graphs, {fits} fitted, {failed} raised")
    print("mean seconds per fit:")
    for name, total in totals.items():
        print(f"{name:>15} {total / max(fits, 1):.6f}")
    scalar, total = move_scorings(graphs)
    share = f"{scalar / total:.2%}" if total else "-"
    print(f"mean move scorings per fit: {total / max(fits, 1):.1f}, scalar body {share}")


def move_scorings(graphs):
    """(scalar body calls, all calls) of `Engine._move_deltas` over the
    successful fits of `graphs`, counted by wrapping its two bodies."""
    calls = collections.Counter()
    bodies = {body: getattr(Engine, f"_move_deltas_{body}") for body in ("scalar", "array")}

    def counted(body):
        def run(eng, side, v, profile):
            calls[body] += 1
            return bodies[body](eng, side, v, profile)
        return run

    scalar = total = 0
    try:
        for body in bodies:
            setattr(Engine, f"_move_deltas_{body}", counted(body))
        for g in graphs:
            calls.clear()
            try:
                vns_fit(parse_edge_list(g.text, unify=g.unify), FitConfig(rounds=inputs.BATCH_ROUNDS, seed=0))
            except Exception:
                continue
            scalar += calls["scalar"]
            total += calls["scalar"] + calls["array"]
    finally:
        for body, method in bodies.items():
            setattr(Engine, f"_move_deltas_{body}", method)
    return scalar, total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="fit-large input seeds")
    parser.add_argument("--rounds", type=int, default=inputs.FIT_LARGE_ROUNDS, help="rounds per input")
    parser.add_argument("--fit-seed", type=int, default=0, help="the FitConfig seed of the rounds")
    parser.add_argument("--batch", type=int, metavar="SEED", help="profile the fit-batch pass of this seed")
    parser.add_argument("--graphs", type=int, default=640, help="fit-batch graphs (with --batch)")
    args = parser.parse_args()
    if args.batch is not None:
        batch_phases(args.batch, args.graphs)
        return
    logs = []
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            (edges, _), _ = inputs.fit_large_input(seed, work)
            with open(edges, "rb") as fh:
                sample = parse_edge_list(fh.read(), unify=True)
            fit = vns_fit(sample, FitConfig(rounds=args.rounds, seed=args.fit_seed))
            if not logs:
                names = [p.phase for p in fit.rounds[0].phases]
                print(f"{'':>10} {'':>8} " + " ".join(f"{name:^34}" for name in names))
                print(f"{'seed':>4} {'round':>5} {'round s':>8} " + " ".join(FIELDS for _ in names)
                      + f" {'k':>7} criterion")
            for r in fit.rounds:
                cells = " ".join(phase_cells(p) for p in r.phases)
                k = f"{r.final_k_source}x{r.final_k_target}"
                print(f"{seed:>4} {r.round:>5} {r.seconds:>8.3f} {cells} {k:>7} {r.criterion:.3f}", flush=True)
            logs += fit.rounds
    cells = []
    for phase in zip(*(r.phases for r in logs)):
        med = [statistics.median(getattr(p, f) for p in phase) for f in ("seconds", "passes", "moves", "merges")]
        cells.append(f"{med[0]:>8.3f} {med[1]:>6g} {med[2]:>6g} {med[3]:>6g} {'':>4}")
    print(f"{'median':>10} {statistics.median(r.seconds for r in logs):>8.3f} " + " ".join(cells))
    capped = ", ".join(f"{phase[0].phase} {sum(not p.converged for p in phase)}"
                       for phase in zip(*(r.phases for r in logs)))
    print(f"rounds not converged, of {len(logs)}: {capped}")


if __name__ == "__main__":
    main()
