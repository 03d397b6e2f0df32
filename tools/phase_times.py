"""Print what each phase of each `vns_fit` round did on the fit-large input, and its wall seconds.

    python3 tools/phase_times.py [--seeds 1 2 3] [--rounds 4] [--fit-seed 0]

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
"""

import argparse
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import FitConfig, parse_edge_list, vns_fit  # noqa: E402

FIELDS = f"{'wall s':>8} {'passes':>6} {'moves':>6} {'merges':>6} {'conv':>4}"


def phase_cells(p) -> str:
    return f"{p.seconds:>8.3f} {p.passes:>6} {p.moves:>6} {p.merges:>6} {'yes' if p.converged else 'no':>4}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="fit-large input seeds")
    parser.add_argument("--rounds", type=int, default=inputs.FIT_LARGE_ROUNDS, help="rounds per input")
    parser.add_argument("--fit-seed", type=int, default=0, help="the FitConfig seed of the rounds")
    args = parser.parse_args()
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
