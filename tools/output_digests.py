"""Print SHA-256 digests of the outputs that a same-bytes change must keep.

    python3 tools/output_digests.py
    python3 tools/output_digests.py --check tools/output_digests.txt

A change that keeps the search and the merge path unchanged prints the same
digests.  With --check FILE, the lines are compared with FILE instead of
printed: the run exits 1 and prints a unified diff when any line differs.
`tools/output_digests.txt` holds the expected lines; only a change meant
to move outputs records it again.  It was recorded with NumPy 2.4.6, and
its values depend on the C library's `log`, which builds the log-factorial
table (`modlcc.combinatorics._log_factorials`), not on SciPy; another NumPy
or C library can round a float differently and so change a digest.  The outputs are

- the ingested sample (its labels, cell arrays, degrees and m) of the
  fit-large and explore edge files, seeds 1-3, parsed from a str with the
  options of `fit --unify-vertices` and `coarsen`, and of the generator
  samples they are written from, so that a change to how labels are
  numbered or cells summed and ordered shows here before it shows in any
  model; and whether the file's bytes, as the commands pass them, give
  the same sample as the str;
- the explore edge files of seeds 1-3 parsed from their bytes with no
  vocabulary, directed and undirected, so that the numbering of two
  streams of labels by first appearance shows at 600,000 fields;
- the same for the 800 fit-batch texts of seeds 1-2, one digest per seed
  over all samples in order, which run the parser on small inputs;
- the same for `HARD_GRAMMAR`, a built-in text with every kind of line the
  grammar allows, parsed with each combination of `unify` and
  `undirected`, with and without a vocabulary;
- the model file of `modlcc fit` on the fit-large input, seeds 1-3, whose
  rounds run on worker processes, and one digest over the same three files
  from `vns_fit` with its rounds forced in process, with whether the two
  paths wrote the same bytes;
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
  singletons, so that thousands of equal-degree pairs tie at each merge;
- the exit code and the stderr digest of each invocation in `FAILURES`,
  which covers every documented error path of the CLI (exit 2, 3 and 4)
  and malformed inputs that once crashed (exit 5) or passed (exit 0).
  They run in a fresh directory with relative paths, and warnings print
  without their source path, so no stderr digest depends on where the
  checkout lies.

The program is imported from this checkout's `src/`, and the inputs are
built by the benchmark's own `perfbench/inputs.py`, with the same calls
and arguments as its workloads.  Takes about a minute on two cores.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from modlcc import Coclustering, FitConfig, build_dendrogram, optimizer, parse_edge_list, vns_fit  # noqa: E402
from modlcc.cli import main as cli_main  # noqa: E402
from modlcc.model import model_header  # noqa: E402
from modlcc.synthgen import gen_block_diagonal, gen_blockmodel  # noqa: E402

BATCH_GRAPHS = 800
GOLDEN_M = (20_000, 40_000)
INT64_MAX = 2**63 - 1

# Every kind of line the edge-list grammar allows: comments, blank and
# whitespace-only lines, repeated header rows (data once a data line was
# read), CRLF and U+0085 line ends, 3-column counts that are not plain
# digits, unstripped fields, and labels that are long, non-ASCII, NUL-holding
# or start with "#" in the target column.
HARD_GRAMMAR = (
    "# a comment\tof\tfour\r\n"
    "\r\n"
    "source\ttarget\r\n"
    "  Source \t TARGET \t Count\r\n"
    "   \t \r\n"
    "a\tb\r\n"
    "a\tb\t3\x85"
    "  # an indented comment\n"
    "source\ttarget\n"
    "\u00fcn\u00efcode\tb\t007\n"
    "a label longer than eight bytes\t#not-a-comment\t12\n"
    " padded \tb\t+2\n"
    "\xa0nbsp\ta\x00\t1_0\n"
    "b\ta label longer than eight bytes\t \u0663 \n"
    "a\tb\n"
)
HARD_VOCABULARY = ["zeta", "b", "a label longer than eight bytes", "b"]
HARD_TARGET_VOCABULARY = ["omega", "#not-a-comment"]

# (name, argv) of failing invocations.  bd.tsv is a small generated sample;
# model.json and directed.json are its unified and directed fits; model
# files named after a field hold model.json with that field broken.
FAILURES = [
    ("missing edge file", ["fit", "nope.tsv", "-o", "m.json"]),
    ("unwritable model", ["fit", "bd.tsv", "-o", "no-dir/m.json", "--rounds", "1"]),
    ("bad count", ["fit", "bad.tsv", "-o", "m.json"]),
    ("rounds 0", ["fit", "bd.tsv", "-o", "m.json", "--rounds", "0"]),
    ("bad model JSON", ["coarsen", "bad.json", "bd.tsv", "--clusters", "1,1"]),
    ("audit", ["coarsen", "model.json", "short.tsv", "--clusters", "1,1"]),
    ("bad --clusters", ["coarsen", "model.json", "bd.tsv", "--clusters", "x"]),
    ("cut out of range", ["coarsen", "model.json", "bd.tsv", "--clusters", "0,1"]),
    ("bad --cell", ["density", "model.json", "bd.tsv", "--cell", "0,99"]),
    ("modularity of a directed model", ["evaluate", "directed.json", "bd.tsv", "--modularity"]),
    ("bench --reps 0", ["bench", "clusters", "--sizes", "20", "--reps", "0", "--n", "6"]),
    ("bench --sizes", ["bench", "clusters", "--sizes", "200,100"]),
    ("bench convergence --n", ["bench", "convergence", "--sizes", "100", "--reps", "1", "--n", "1"]),
    ("bench generator error", ["bench", "clusters", "--sizes", "20", "--reps", "1", "--rounds", "1",
                               "--n", "6", "--blocks", "0"]),
    ("generator error", ["generate", "block-diagonal", "--n", "5", "--blocks", "9", "--m", "10", "-o", "g"]),
    ("unwritable -o", ["generate", "circular", "--n", "20", "--m", "50", "-o", "no-dir/g"]),
    # these exited 5 or 0 before they were mended
    ("count beyond int64", ["fit", "huge.tsv", "-o", "m.json"]),
    ("total beyond int64", ["fit", "total.tsv", "-o", "m.json"]),
    ("model list", ["coarsen", "list.json", "bd.tsv", "--clusters", "1,1"]),
    ("no source_assignment", ["coarsen", "no_source_assignment.json", "bd.tsv", "--clusters", "1,1"]),
    ("null source_assignment", ["evaluate", "null_source_assignment.json", "bd.tsv"]),
    ("cocluster_counts object", ["coarsen", "object_counts.json", "bd.tsv", "--clusters", "1,1"]),
    ("assignment 1e30", ["evaluate", "huge_assignment.json", "bd.tsv"]),
    ("count 2**70", ["coarsen", "huge_count.json", "bd.tsv", "--clusters", "1,1"]),
    ("float assignment", ["coarsen", "float_assignment.json", "bd.tsv", "--clusters", "1,1"]),
    ("unified yes", ["evaluate", "unified_yes.json", "bd.tsv"]),
    ("cocluster_counts []", ["coarsen", "empty_counts.json", "bd.tsv", "--clusters", "1,1"]),
    ("cocluster_counts null", ["evaluate", "null_counts.json", "bd.tsv"]),
    ("cocluster_counts 0", ["coarsen", "zero_counts.json", "bd.tsv", "--clusters", "1,1"]),
    ("cocluster_counts false", ["evaluate", "false_counts.json", "bd.tsv"]),
    ("cocluster_counts empty string", ["coarsen", "blank_counts.json", "bd.tsv", "--clusters", "1,1"]),
    # the explore edge file with line 249999 of 300000 cut to 4 columns
    ("4 columns deep in a large file", ["coarsen", "planted.json", "four_columns.tsv", "--clusters", "8,8"]),
    ("circular --blocks --noise", ["generate", "circular", "--blocks", "7", "--noise", "0.9", "-o", "g"]),
    ("blockmodel --n", ["generate", "blockmodel", "--n", "50", "-o", "g"]),
    ("undirected-pattern --m --n", ["generate", "undirected-pattern", "--m", "5", "--n", "3", "-o", "g"]),
    ("block-diagonal --clusters --intra", ["generate", "block-diagonal", "--clusters", "9", "--intra", "0.5",
                                           "-o", "g"]),
    ("repeated cocluster cells", ["coarsen", "repeated_cells.json", "bd.tsv", "--clusters", "1,1"]),
    # bd.tsv with a line whose source the model does not name; a model that names a label twice
    ("label absent from the model", ["evaluate", "model.json", "absent.tsv"]),
    ("repeated model label", ["coarsen", "repeated_labels.json", "bd.tsv", "--clusters", "1,1"]),
]


def broken_models(model: dict) -> dict:
    """File name -> model document with one field broken."""
    def edit(key, value):
        doc = json.loads(json.dumps(model))
        doc[key] = value
        return doc

    assign, labels = model["source_assignment"], model["source_labels"]
    counts = [list(cell) for cell in model["cocluster_counts"]]
    counts[0][2] = 2**70
    # a repeat of the first cell, whose last count is the true one
    repeated = [list(cell) for cell in model["cocluster_counts"]]
    repeated[:0] = [repeated[0][:2] + [99]]
    without = dict(model)
    del without["source_assignment"]
    return {
        "list.json": [model],
        "no_source_assignment.json": without,
        "null_source_assignment.json": edit("source_assignment", None),
        "object_counts.json": edit("cocluster_counts", {"0": 1}),
        "huge_assignment.json": edit("source_assignment", [1e30] + assign[1:]),
        "huge_count.json": edit("cocluster_counts", counts),
        "float_assignment.json": edit("source_assignment", [assign[0] + 0.5] + assign[1:]),
        "unified_yes.json": edit("unified", "yes"),
        "empty_counts.json": edit("cocluster_counts", []),
        "null_counts.json": edit("cocluster_counts", None),
        "zero_counts.json": edit("cocluster_counts", 0),
        "false_counts.json": edit("cocluster_counts", False),
        "blank_counts.json": edit("cocluster_counts", ""),
        "repeated_cells.json": edit("cocluster_counts", repeated),
        "repeated_labels.json": edit("source_labels", labels[:2] + labels[1:]),
    }


def cli_run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process `modlcc` run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            # every warning, without the source path it would print
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, category, *_: print(
                f"{category.__name__}: {message}", file=sys.stderr)
            code = cli_main(argv)
    return code, err.getvalue()


def error_paths():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv in (["generate", "block-diagonal", "--n", "10", "--blocks", "2", "--noise", "0",
                          "--m", "400", "--seed", "5", "-o", "bd"],
                         ["fit", "bd.tsv", "-o", "model.json", "--seed", "7", "--rounds", "2",
                          "--unify-vertices"],
                         ["fit", "bd.tsv", "-o", "directed.json", "--rounds", "1"]):
                code, err = cli_run(argv)
                if code != 0:
                    raise SystemExit(f"modlcc {' '.join(argv)} exited {code}: {err}")
            with open("bd.tsv") as fh:
                lines = fh.readlines()
            (explore, _), _ = inputs.explore_input(1, ".")
            with open(explore) as fh:
                explore_lines = fh.readlines()
            explore_lines[249_998] = "a\tb\tc\td\n"
            files = {
                "four_columns.tsv": "".join(explore_lines),
                "short.tsv": "".join(lines[:-10]),
                "absent.tsv": "".join(lines) + "absent\tv0\n",
                "bad.tsv": "a\tb\tx\n",
                "bad.json": "{",
                "huge.tsv": "a\tb\t99999999999999999999999\n",
                "total.tsv": f"a\tb\t{INT64_MAX}\nb\ta\t{INT64_MAX}\n",
            }
            with open("model.json") as fh:
                model = json.load(fh)
            files.update((name, json.dumps(doc)) for name, doc in broken_models(model).items())
            for name, text in files.items():
                with open(name, "w") as fh:
                    fh.write(text)
            for name, argv in FAILURES:
                code, err = cli_run(argv)
                print(f"error path {name}: exit {code} stderr {sha256(err.encode())}", flush=True)
        finally:
            os.chdir(cwd)


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


def sample_digest(sample) -> str:
    """Digest of a sample's labels, cell arrays, degrees and m, each array with its dtype and shape."""
    h = hashlib.sha256()
    h.update(json.dumps([sample.source_labels, sample.target_labels, sample.unified]).encode())
    for a in (sample.src_idx, sample.tgt_idx, sample.counts, sample.out_degrees, sample.in_degrees):
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    h.update(str(sample.m).encode())
    return h.hexdigest()


def ingest_digests(work: str):
    for name, params, write in (("fit-large", inputs.FIT_LARGE, inputs.fit_large_input),
                                ("explore", inputs.EXPLORE, inputs.explore_input)):
        for seed in (1, 2, 3):
            sample, _, _ = inputs.block_diagonal(params["n"], params["blocks"], params["noise"], params["m"], seed)
            print(f"ingest {name} seed {seed} generator: {sample_digest(sample)}", flush=True)
            paths, _ = write(seed, work)
            with open(paths[0], "rb") as fh:
                raw = fh.read()
            options = dict(unify=True)
            if name == "explore":
                with open(paths[1], encoding="utf-8") as fh:
                    header = model_header(json.load(fh))
                options = dict(unify=header[2], vocabulary=header[0], target_vocabulary=header[1])
            digest = sample_digest(parse_edge_list(raw.decode("utf-8"), **options))
            print(f"ingest {name} seed {seed} tsv: {digest}", flush=True)
            same = sample_digest(parse_edge_list(raw, **options)) == digest
            print(f"ingest {name} seed {seed} tsv as bytes same as str: {same}", flush=True)
            if name == "explore":
                # both streams numbered without a vocabulary: 300,000 fields each directed, 600,000 undirected
                for undirected in (False, True):
                    digest = sample_digest(parse_edge_list(raw, undirected=undirected))
                    print(f"ingest {name} seed {seed} tsv without vocabulary undirected={undirected}: {digest}",
                          flush=True)
    for seed in (1, 2):
        graphs, _ = inputs.batch_graphs(seed, BATCH_GRAPHS)
        h = hashlib.sha256()
        for g in graphs:
            h.update(sample_digest(parse_edge_list(g.text, unify=g.unify)).encode())
        print(f"ingest fit-batch seed {seed}: {h.hexdigest()}", flush=True)
    for unify in (False, True):
        for undirected in (False, True):
            for vocabulary, target_vocabulary in ((None, None), (HARD_VOCABULARY, HARD_TARGET_VOCABULARY)):
                parsed = parse_edge_list(HARD_GRAMMAR, unify=unify, undirected=undirected, vocabulary=vocabulary,
                                         target_vocabulary=target_vocabulary)
                print(f"ingest hard grammar unify={unify} undirected={undirected} "
                      f"vocabulary={vocabulary is not None}: {sample_digest(parsed)}", flush=True)


def without_deltas(cut_file: bytes) -> bytes:
    doc = json.loads(cut_file)
    for rec in doc["merge_path"]:
        del rec["delta"]
    return json.dumps(doc, sort_keys=True).encode()


def main():
    error_paths()
    with tempfile.TemporaryDirectory() as work:
        ingest_digests(work)
        pooled, alone = [], []
        for seed in (1, 2, 3):
            (edges, _), _ = inputs.fit_large_input(seed, work)
            out = os.path.join(work, "large.json")
            argv = ["fit", edges, "-o", out, "--unify-vertices",
                    "--rounds", str(inputs.FIT_LARGE_ROUNDS), "--seed", "0"]
            pooled.append(cli_file(argv, out))
            print(f"fit-large seed {seed}: {sha256(pooled[-1])}", flush=True)
            with open(edges, "rb") as fh:
                sample = parse_edge_list(fh.read(), unify=True)
            with mock.patch.object(optimizer, "POOL_MIN_CELLS", INT64_MAX):
                fit = vns_fit(sample, FitConfig(rounds=inputs.FIT_LARGE_ROUNDS, seed=0))
            alone.append((json.dumps(fit.to_dict(seed=0), indent=2) + "\n").encode())
        print(f"fit-large seeds 1-3 in process: {sha256(b''.join(alone))}, "
              f"same as modlcc fit: {alone == pooled}", flush=True)
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


def check(path: str) -> int:
    """Run `main` and compare its lines with the file at `path`; 0 when all are equal."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main()
    with open(path, encoding="utf-8") as fh:
        want = fh.read().splitlines(keepends=True)
    got = out.getvalue().splitlines(keepends=True)
    diff = list(difflib.unified_diff(want, got, fromfile=path, tofile="this checkout"))
    if diff:
        sys.stdout.writelines(diff)
        return 1
    print(f"all {len(got)} lines equal {path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print or check the output digests.")
    parser.add_argument("--check", metavar="FILE", help="compare the lines with FILE; exit 1 on a difference")
    args = parser.parse_args()
    sys.exit(check(args.check) if args.check else main())
