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
`Engine._move_deltas`, the merge loop `optimizer._merges` and its scan
`optimizer._scanned_merges` wrapped to count their calls.  It prints the
mean move scorings per successful fit and the share that took the scalar
body, then the mean merge phases per successful fit and the share that
took the scan.
"""

import argparse
import collections
import contextlib
import os
import statistics
import sys
import tempfile
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import FitConfig, optimizer, parse_edge_list, vns_fit  # noqa: E402
from modlcc._engine import Engine  # noqa: E402

# what the counting pass wraps: kind -> (owner, attribute)
COUNTED = {
    "scalar": (Engine, "_move_deltas_scalar"),
    "array": (Engine, "_move_deltas_array"),
    "merges": (optimizer, "_merges"),
    "scan": (optimizer, "_scanned_merges"),
}

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
    calls = counted_calls(graphs)
    moves = calls["scalar"] + calls["array"]
    for what, total, part, name in (("move scorings", moves, calls["scalar"], "scalar body"),
                                    ("merge phases", calls["merges"], calls["scan"], "scan")):
        share = f"{part / total:.2%}" if total else "-"
        print(f"mean {what} per fit: {total / max(fits, 1):.1f}, {name} {share}")


def counted_calls(graphs):
    """Calls of each `COUNTED` kind over the successful fits of `graphs`."""
    calls, total = collections.Counter(), collections.Counter()

    def counted(kind, fn):
        def run(*args):
            calls[kind] += 1
            return fn(*args)
        return run

    with contextlib.ExitStack() as stack:
        for kind, (owner, name) in COUNTED.items():
            stack.enter_context(mock.patch.object(owner, name, counted(kind, getattr(owner, name))))
        for g in graphs:
            calls.clear()
            try:
                vns_fit(parse_edge_list(g.text, unify=g.unify), FitConfig(rounds=inputs.BATCH_ROUNDS, seed=0))
            except Exception:
                continue
            total.update(calls)
    return total


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
