"""Record the benchmark's baseline: every workload on several seeds, one
fresh process per run, plus one traced run per workload.

    python3 perfbench/baseline.py --runs 10 --seconds 25

Writes perfbench/BASELINE.json with the run details (core count, versions,
commit, seeds), each end-to-end metric's median, quartiles and spread
(quartile distance over median), the op and failure counts behind them,
and the per-layer metrics of the traced run.  Runs are sequential, so that
no two runs compete for the cores.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUTPUT = os.path.join(HERE, "BASELINE.json")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}")
    return lines[:-1], json.loads(lines[-1])


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src")]
    import numpy
    import scipy

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    doc = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seconds": args.seconds,
        "seeds": list(range(1, args.runs + 1)),
        "traced_seed": 0,
        "workloads": {},
    }
    for name in why:
        results, reports = [], []
        for seed in doc["seeds"]:
            report, result = run(name, seed, args.seconds, 0)
            results.append(result)
            reports.append(report)
            print(f"{name} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)
        report, traced = run(name, doc["traced_seed"], args.seconds, 1)
        metrics = {}
        for key in results[0]["metrics"]:
            metrics[key] = summarize([r["metrics"][key]["value"] for r in results])
            metrics[key]["unit"] = results[0]["metrics"][key]["unit"]
            print(f"  {key:16} median {metrics[key]['median']:.6g}  spread {metrics[key]['spread']}")
        doc["workloads"][name] = {
            "why": why[name],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "failures": [[line.strip() for line in rep if line.strip().startswith("failed:")]
                         for rep in reports],
            "end_to_end": metrics,
            "report_seed_1": reports[0],
            "traced": {"correct": traced["correct"], "attempted": traced["attempted"],
                       "failed": traced["failed"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
