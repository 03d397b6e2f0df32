"""Print the wall and CPU seconds of each phase of `vns_fit` rounds on the fit-large input.

    python3 tools/phase_times.py [--seeds 1 2 3] [--rounds 4] [--fit-seed 0]

For each input seed, the benchmark's fit-large edge file is written by
`perfbench/inputs.py` and parsed as `modlcc fit --unify-vertices` parses
it.  Then the `--rounds` rounds of `vns_fit(sample, FitConfig(rounds,
fit_seed))` run one after another in this process, each split as
`optimizer._round` runs it into five phases:

- `Engine()`: the start's engine, on its random initial solution;
- pre-opt: the vertex-move passes before the merges;
- merge start: the pair-delta matrices, up to the first merge offered;
- merge loop: the merges, until one does not improve;
- post-opt: the vertex-move passes after the merges.

A sixth pair of columns gives the time spent inside
`optimizer._cross_side_correction`, a part of the merge loop, and the
number of its calls.  Each row is one round, with its final cluster counts
and criterion; the last row is the median of each column.  Times are
wall-clock `perf_counter` and this process's `process_time`; no worker
processes run.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import optimizer, parse_edge_list  # noqa: E402
from modlcc._engine import Engine  # noqa: E402
from modlcc.optimizer import FitConfig  # noqa: E402

PHASES = ("Engine()", "pre-opt", "merge start", "merge loop", "post-opt", "correction")


class Clock:
    """Wall and CPU seconds per phase of one round."""

    def __init__(self):
        self.times = {}
        self.last = (time.perf_counter(), time.process_time())

    def lap(self, phase):
        now = (time.perf_counter(), time.process_time())
        self.times[phase] = (now[0] - self.last[0], now[1] - self.last[1])
        self.last = now


def timed_round(sample, max_init, child):
    """One round as `optimizer._round` runs it, timed by phase; returns (times, calls, engine)."""
    model = optimizer.initial_solution(sample, max_init, child)
    spent = [0.0, 0.0, 0]
    correct = optimizer._cross_side_correction

    def timed_correction(*args):
        t = (time.perf_counter(), time.process_time())
        correct(*args)
        spent[0] += time.perf_counter() - t[0]
        spent[1] += time.process_time() - t[1]
        spent[2] += 1

    clock = Clock()
    eng = Engine(model)
    clock.lap("Engine()")
    optimizer._post_opt(eng, FitConfig.post_opt_passes)
    clock.lap("pre-opt")
    with mock.patch.object(optimizer, "_cross_side_correction", timed_correction):
        merges = optimizer._merges(eng)
        total = next(merges)[0]
        clock.lap("merge start")
        # `optimizer._gbum`: apply merges until the one offered does not improve
        while total < 0.0:
            total = next(merges, (0.0,))[0]
        clock.lap("merge loop")
    optimizer._post_opt(eng, FitConfig.post_opt_passes)
    clock.lap("post-opt")
    clock.times["correction"] = tuple(spent[:2])
    return clock.times, spent[2], eng


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="fit-large input seeds")
    parser.add_argument("--rounds", type=int, default=inputs.FIT_LARGE_ROUNDS, help="rounds per input")
    parser.add_argument("--fit-seed", type=int, default=0, help="the FitConfig seed of the rounds")
    args = parser.parse_args()
    print("seed round " + " ".join(f"{p + ' wall/cpu s':>26}" for p in PHASES) + "  calls    k    criterion")
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            (edges, _), _ = inputs.fit_large_input(seed, work)
            with open(edges, "rb") as fh:
                sample = parse_edge_list(fh.read(), unify=True)
            max_init = optimizer._initial_clusters(sample)
            for r, child in enumerate(np.random.SeedSequence(args.fit_seed).spawn(args.rounds)):
                times, calls, eng = timed_round(sample, max_init, child)
                rows.append([x for p in PHASES for x in times[p]] + [calls])
                cells = " ".join(f"{times[p][0]:>12.3f} {times[p][1]:>13.3f}" for p in PHASES)
                k = f"{eng.sides['source'].k}x{eng.sides['target'].k}"
                print(f"{seed:>4} {r:>5} {cells} {calls:>6} {k:>6} {eng.criterion_total():.3f}", flush=True)
    medians = [statistics.median(col) for col in zip(*rows)]
    cells = " ".join(f"{w:>12.3f} {c:>13.3f}" for w, c in zip(medians[0:-1:2], medians[1:-1:2]))
    print(f"{'median':>10} {cells} {medians[-1]:>6.0f}")


if __name__ == "__main__":
    main()
