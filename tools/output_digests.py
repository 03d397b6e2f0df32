"""Print SHA-256 digests of the outputs that a same-bytes change must keep.

    python3 tools/output_digests.py

Run it on two checkouts and compare the printed lines: a change that keeps
the search and the merge path unchanged prints the same digests.  The
outputs are

- the model file of `modlcc fit` on the fit-large input, seeds 1-3;
- `vns_fit(rounds=3).to_dict()` on the 800 fit-batch graphs of seeds 1-2,
  one digest per seed over all graphs in order;
- the cut file of `modlcc coarsen` on the explore input, seeds 1-3, and
  the same document without the `delta` of each `merge_path` entry, so
  that a change which moves only the rounding of the deltas shows as such;
- the report file of `modlcc evaluate --modularity` on the explore input,
  seeds 1-3, as the benchmark's explore workload calls it;
- the golden fits of `tests/test_optimizer.py`, hashed as that test hashes
  them, so the digests read against its `GOLDEN_FITS`;
- `build_dendrogram(...).to_dict()` of a tie-heavy ER case: 1000 vertices
  and 3000 edges, the sources in 5 random clusters and the targets as
  singletons, so that thousands of equal-degree pairs tie at each merge.

The program is imported from this checkout's `src/`, and the inputs are
built by the benchmark's own `perfbench/inputs.py`, with the same calls
and arguments as its workloads.  Takes about a minute on two cores.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import Coclustering, FitConfig, build_dendrogram, parse_edge_list, vns_fit  # noqa: E402
from modlcc.cli import main as cli_main  # noqa: E402
from modlcc.synthgen import gen_block_diagonal, gen_blockmodel  # noqa: E402

BATCH_GRAPHS = 800
GOLDEN_M = (20_000, 40_000)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def doc_bytes(fit) -> bytes:
    doc = fit.to_dict()
    doc.pop("tool_version")
    return json.dumps(doc, sort_keys=True).encode()


def cli_file(argv: list[str], out_path: str) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"modlcc {' '.join(argv)} exited {code}")
    with open(out_path, "rb") as fh:
        return fh.read()


def without_deltas(cut_file: bytes) -> bytes:
    doc = json.loads(cut_file)
    for rec in doc["merge_path"]:
        del rec["delta"]
    return json.dumps(doc, sort_keys=True).encode()


def main():
    with tempfile.TemporaryDirectory() as work:
        for seed in (1, 2, 3):
            (edges, _), _ = inputs.fit_large_input(seed, work)
            out = os.path.join(work, "large.json")
            argv = ["fit", edges, "-o", out, "--unify-vertices",
                    "--rounds", str(inputs.FIT_LARGE_ROUNDS), "--seed", "0"]
            print(f"fit-large seed {seed}: {sha256(cli_file(argv, out))}", flush=True)
        for seed in (1, 2):
            graphs, _ = inputs.batch_graphs(seed, BATCH_GRAPHS)
            h = hashlib.sha256()
            for g in graphs:
                sample = parse_edge_list(g.text, unify=g.unify)
                h.update(doc_bytes(vns_fit(sample, FitConfig(rounds=inputs.BATCH_ROUNDS, seed=0))))
            print(f"fit-batch seed {seed}: {h.hexdigest()}", flush=True)
        for seed in (1, 2, 3):
            (edges, model), _ = inputs.explore_input(seed, work)
            out = os.path.join(work, "cut.json")
            argv = ["coarsen", model, edges, "--clusters", "%d,%d" % inputs.EXPLORE_CLUSTERS, "-o", out]
            cut_file = cli_file(argv, out)
            print(f"explore seed {seed}: {sha256(cut_file)}", flush=True)
            print(f"explore seed {seed} without deltas: {sha256(without_deltas(cut_file))}", flush=True)
            report = os.path.join(work, "evaluate.json")
            argv = ["evaluate", model, edges, "--modularity", "-o", report]
            print(f"evaluate seed {seed}: {sha256(cli_file(argv, report))}", flush=True)
    for m in GOLDEN_M:
        sample, _ = gen_block_diagonal(300, 4, 0.5, m=m, seed=3)
        print(f"golden m={m}: {sha256(doc_bytes(vns_fit(sample, FitConfig(rounds=2, seed=1))))}", flush=True)
    sample, _ = gen_blockmodel(np.ones((1, 1)), [1000], 3000, seed=0)
    source = np.random.default_rng(0).integers(0, 5, sample.n_source)
    source[:5] = np.arange(5)
    dend = build_dendrogram(Coclustering(sample, source, np.arange(sample.n_target)))
    print(f"tied dendrogram: {sha256(json.dumps(dend.to_dict(), sort_keys=True).encode())}", flush=True)


if __name__ == "__main__":
    main()
