"""modlcc benchmark: fit-large, fit-batch and explore.

    python3 perfbench/run.py --workload fit-large --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  Each workload makes its inputs from --seed, measures for
about --seconds, checks every op's output and prints a report followed by
one JSON line: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  `--workload all` runs each workload in its own fresh process.
The exit code is non-zero when an output check or a replay fails.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("fit-large", "fit-batch", "explore")

# name -> unit.  op_s is the median time of one successful op: one
# `modlcc fit` (fit-large), one `modlcc coarsen` plus one `modlcc evaluate`
# (explore); on fit-batch, the mean time of one parse_edge_list + vns_fit.
# Every time is scaled to the host speed probe's reference speed
# (hostspeed.py).
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "ops_per_s": "1/s",
    "gain_share": "ratio",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


def import_program():
    """Import modlcc from this checkout's src directory, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "modlcc", "__init__.py")):
        sys.exit(f"error: no program source at {src}")
    sys.path.insert(0, src)
    import modlcc

    if os.path.dirname(os.path.dirname(os.path.abspath(modlcc.__file__))) != src:
        sys.exit(f"error: modlcc imported from {modlcc.__file__}, not {src}")
    return modlcc


def tail(times):
    """The highest percentile of `times` that has at least ten samples
    beyond it, with that percentile; (max, 100.0) below 11 samples."""
    n = len(times)
    if n < 11:
        return (max(times) if times else 0.0), 100.0
    pct = 100.0 * (n - 10) / n
    return sorted(times)[n - 11], pct


def end_to_end(res, probe) -> dict:
    ok = res.attempted - res.failed
    builds = [probe.normalized(*s) for s in res.build_spans]
    ops = [probe.normalized(*s) for s in res.op_spans]
    busy = sum(probe.normalized(*s) for s in res.busy_spans)
    if not ops:
        op_s = busy
    else:
        op_s = statistics.fmean(ops) if res.op_mean else statistics.median(ops)
    return {
        "setup_s": probe.normalized(*res.import_span) + statistics.median(builds),
        "op_s": op_s,
        "ops_per_s": ok / busy,
        "gain_share": res.gain_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": ok / res.attempted,
    }


def report(res, metrics, args, modlcc, probe) -> list[str]:
    """Human-readable lines: every figure by name and unit."""
    import numpy
    import scipy
    from workloads import SETUP_REPS

    ok = res.attempted - res.failed
    n = len(res.op_spans)
    t, pct = tail([probe.normalized(*s) for s in res.op_spans])
    wall = statistics.fmean if res.op_mean else statistics.median
    raw_setup = (res.import_span[1] - res.import_span[0]
                 + statistics.median(b - a for a, b in res.build_spans))
    explore = res.workload == "explore"
    kind = "coarsen+evaluate" if explore else "fit"
    # the per-workload names of op_s, op_tail_s and ops_per_s
    op, op_tail, per_s = ("op_s", "op_tail_s", "ops_per_s") if explore else (
        "fit_s", "fit_tail_s", "fits_per_s")
    gap = "cut_gap_nats" if explore else "fit_gap_nats"
    lines = [
        f"workload {res.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"  nproc {os.cpu_count()}  python {platform.python_version()}  numpy {numpy.__version__}"
        f"  scipy {scipy.__version__}  modlcc {modlcc.__version__}",
        f"  host_speed       {probe.median_factor():.4f} ratio  (median probe speed / reference speed,"
        f" {len(probe.durations)} probes; the times below are at the reference speed)",
        f"  setup_s          {metrics['setup_s']:.4f} s  (imports + median of {SETUP_REPS} input builds;"
        f" wall {raw_setup:.4f} s)",
        f"  synthgen_s       {res.synthgen_s:.4f} s  (wall, median of {SETUP_REPS} input builds)",
        f"  {op:<16} {metrics['op_s']:.6f} s  (op_s: {'mean' if res.op_mean else 'median'} {kind}"
        f" over {n} ops; wall {wall(res.op_times) if n else 0.0:.6f} s)",
        f"  {op_tail:<16} {t:.6f} s  (p{pct:.2f} of {n} ops, {10 if n > 10 else 0} beyond it)",
        f"  {per_s:<16} {metrics['ops_per_s']:.4f} 1/s  (ops_per_s: {ok} ok; wall {res.busy_s:.2f} s)",
        f"  {gap:<16} {res.gap_nats:.6f} nats  (criterion reached - planted criterion)",
        f"  gain_share       {res.gain_share:.9f} ratio  ((null - reached) / (null - planted)"
        + (", cluster-recovery half)" if res.workload == "fit-batch" else ")"),
        f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
        f"  error_rate       {res.failed / res.attempted:.6f} ratio  ({res.failed} of {res.attempted} ops;"
        f" ok_rate {metrics['ok_rate']:.6f})",
    ]
    for name, (value, unit, note) in res.report.items():
        lines.append(f"  {name:<16} {value} {unit}  ({note})")
    for what, count in sorted(res.failures.items()):
        lines.append(f"  failed: {count} x {what}")
    for msg in res.check_failures[:10]:
        lines.append(f"  check failed: {msg}")
    for name, value in res.layers.items():
        lines.append(f"  layer {name:<34} {value}")
    return lines


def run_one(args) -> int:
    sys.path.insert(0, HERE)
    from hostspeed import PROBE

    PROBE.start()  # before the imports, which setup_s includes
    workdir = None
    try:
        modlcc = import_program()
        import workloads

        work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
        res = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, T_START)
        if args.trace:
            os.replace(os.path.join(workdir, "spans.json"),
                       os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        PROBE.stop()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(res, PROBE)
    for line in report(res, e2e, args, modlcc, PROBE):
        print(line)
    correct = not res.check_failures and not res.layers.get("trace.replay_mismatches")
    if args.trace:
        units = dict(workloads.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res.layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        code = code or proc.returncode
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for k, v in child["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
