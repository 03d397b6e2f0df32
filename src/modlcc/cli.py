"""Command-line interface.

Subcommands: generate, fit, coarsen, density, evaluate, bench.

The commands only raise; `main` alone picks the exit code, from the class
of the exception: 0 success, 4 a failed consistency audit (`AuditError`),
2 any other input error (`ValueError`, which `EdgeListError`,
`GeneratorError` and `ModelError` are), 3 an I/O error (`OSError`), and 5
any other exception, an internal error reported in one line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .bench import DESK_CLUSTER_CURVE, DESK_CONVERGENCE, PAPER_CONVERGENCE
from .bench import recovery_fractions, run_cluster_curve, run_convergence_experiment
from .density import estimate_density, information_metrics, modl_mi_estimate, modularity
from .graph import parse_edge_list
from .hierarchy import build_dendrogram, cut
from .model import AuditError, Coclustering, model_header
from .optimizer import FitConfig, vns_fit
from .synthgen import GeneratorSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_AUDIT = 4
EXIT_INTERNAL = 5

# the exit code of an exception: the first class it is an instance of
EXIT_CODES = ((AuditError, EXIT_AUDIT), (ValueError, EXIT_INPUT), (OSError, EXIT_IO))


@contextlib.contextmanager
def _reading(path: str):
    """Name `path` in an OSError that the block raises."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _read_file(path: str) -> str:
    """The file's text, decoded as UTF-8."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


# the types that json encodes as one token; their exact types, not subclasses
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _encoder(item_separator: str):
    """The C encoder's `encode` with this item separator and `": "` after keys."""
    return json.JSONEncoder(separators=(item_separator, ": ")).encode


def _rows_of_scalars(items):
    """`list` or `dict` if every item is a non-empty one of that exact type
    holding only scalars, else None."""
    kind = type(items[0])
    if kind not in (list, dict) or {kind} != set(map(type, items)) or kind() in items:
        return None
    members = items if kind is list else map(dict.values, items)
    return kind if _SCALARS.issuperset(map(type, itertools.chain.from_iterable(members))) else None


def _indented(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`.

    CPython encodes indented JSON in pure Python.  Here the C encoder encodes
    each list or dict of scalars whole, with `",\\n"` and the next indent as
    its item separator, and a list of such lists (or of such dicts) whole,
    with its inner separators rewritten; only the other containers are
    walked in Python.  Encoded strings escape every newline, so each newline
    in the C encoder's output is a separator.
    """
    inner = indent + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        if _SCALARS.issuperset(map(type, value.values())):
            body = _encoder(separator)(value)[1:-1]
        else:
            # the keys as json writes them, from `{k1: null\nk2: null}`
            keys = _encoder("\n")(dict.fromkeys(value))[1:-1].split(": null\n")
            keys[-1] = keys[-1][: -len(": null")]
            body = separator.join(k + ": " + _indented(v, inner) for k, v in zip(keys, value.values()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = _encoder(separator)(value)[1:-1]
        elif (kind := _rows_of_scalars(value)) is not None:
            opening, closing = "[]" if kind is list else "{}"
            deeper = inner + "  "
            flat = _encoder(",\n" + deeper)(value)[2:-2]
            body = (opening + "\n" + deeper
                    + flat.replace(closing + ",\n" + deeper + opening,
                                   "\n" + inner + closing + separator + opening + "\n" + deeper)
                    + "\n" + inner + closing)
        else:
            body = separator.join(_indented(v, inner) for v in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    return _encoder(separator)(value)


def _json_text(doc) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, mostly from the C encoder."""
    return _indented(doc, "") + "\n"


def _read_vocabulary(path: str | None):
    if path is None:
        return None
    labels = []
    # lines are skipped as the edge-list parser skips them, and labels are not stripped, as its fields are not
    for line in _read_file(path).splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            labels.append(line.split("\t")[0])
    return labels


def _load_sample(args, vocabulary=None, target_vocabulary=None, unify=None):
    with _reading(args.edges):
        edges = open(args.edges, "rb")
    with edges:
        if vocabulary is None:
            vocabulary = _read_vocabulary(getattr(args, "vocabulary", None))
        # the parser reads the file's bytes in place; it decodes non-ASCII bytes only to check them
        with _reading(args.edges):
            return parse_edge_list(
                edges,
                unify=unify if unify is not None else getattr(args, "unify_vertices", False),
                undirected=getattr(args, "undirected", False),
                vocabulary=vocabulary,
                target_vocabulary=target_vocabulary,
            )


def _load_model(args):
    """Read a model JSON and the edge file it was fitted on; audit counts."""
    try:
        data = json.loads(_read_file(args.model))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid model JSON: {exc}") from exc
    source_labels, target_labels, unified = model_header(data)
    sample = _load_sample(args, vocabulary=source_labels, target_vocabulary=target_labels, unify=unified)
    return Coclustering.from_dict(data, sample), sample, data


# -- generate -----------------------------------------------------------------


# the family flags of `generate`, in the parser's order
_GENERATE_FLAGS = ("n", "blocks", "noise", "clusters", "cluster_size", "intra", "inter", "m")
# each family's flags: flag -> (its generator parameter, or the spec's m; default)
_FAMILY_FLAGS = {
    "circular": {"n": ("n", 100), "m": ("m", 1000)},
    "block-diagonal": {"n": ("n", 100), "blocks": ("blocks", 2), "noise": ("noise_rate", 0.0), "m": ("m", 1000)},
    "blockmodel": {"m": ("m", 1000)},
    "undirected-pattern": {"clusters": ("cluster_count", 4), "cluster_size": ("cluster_size", 10),
                           "intra": ("intra", 0.8), "inter": ("inter", 0.1)},
}


def _generator_spec(args) -> GeneratorSpec:
    flags = _FAMILY_FLAGS[args.family]
    unused = [f"--{flag.replace('_', '-')}" for flag in _GENERATE_FLAGS
              if flag not in flags and getattr(args, flag) is not None]
    if unused:
        raise ValueError(f"{', '.join(unused)}: not used by the {args.family} family")
    params = {name: default if getattr(args, flag) is None else getattr(args, flag)
              for flag, (name, default) in flags.items()}
    # undirected-pattern draws no set number of edges; its spec records the default m
    m = params.pop("m", 1000)
    return GeneratorSpec(args.family.replace("-", "_"), m=m, seed=args.seed, params=params)


def cmd_generate(args) -> int:
    spec = _generator_spec(args)
    sample, truth = generate(spec)
    prefix = args.output
    _write_text(prefix + ".tsv", "".join(sample.expand_lines()))
    lines = []
    truth_labels = None
    if isinstance(truth, np.ndarray) and truth.ndim == 1:
        truth_labels = truth
    elif isinstance(truth, tuple):
        truth_labels = truth[0]
    for i, lab in enumerate(sample.source_labels):
        if truth_labels is not None:
            lines.append(f"{lab}\t{int(truth_labels[i])}\n")
        else:
            lines.append(f"{lab}\n")
    _write_text(prefix + ".labels.tsv", "".join(lines))
    echo = spec.to_dict()
    echo["tool_version"] = __version__
    echo["n_source"] = sample.n_source
    echo["n_target"] = sample.n_target
    echo["edges_written"] = sample.m
    _write_text(prefix + ".spec.json", _json_text(echo))
    print(f"wrote {sample.m} edges to {prefix}.tsv ({sample.n_source} vertices)")
    return EXIT_OK


# -- fit --------------------------------------------------------------------------


def cmd_fit(args) -> int:
    sample = _load_sample(args)
    config = FitConfig(rounds=args.rounds, seed=args.seed)
    t0 = time.perf_counter()
    fit = vns_fit(sample, config)
    elapsed = time.perf_counter() - t0
    doc = fit.to_dict(seed=args.seed)
    _write_text(args.output, _json_text(doc))
    mi_full, mi_lh = modl_mi_estimate(fit, sample)
    model = fit.best_model
    print(f"clusters: {model.k_source} x {model.k_target}")
    print(f"criterion: {fit.best_criterion.total:.6f} nats")
    print(f"dependence estimate: {mi_full:.6f} nats/edge (likelihood-only {mi_lh:.6f})")
    print(f"time: {elapsed:.3f}s over {args.rounds} rounds (seed {args.seed})")
    print(f"model written to {args.output}")
    return EXIT_OK


# -- coarsen ---------------------------------------------------------------------


def _percentage_table(model: Coclustering) -> str:
    grid = model.cocluster_grid
    m = grid.sum()
    header = "\t" + "\t".join(f"T{j}" for j in range(model.k_target))
    rows = [header]
    for i in range(model.k_source):
        cells = [
            f"{100.0 * grid[i, j] / m:.2f}% ({int(grid[i, j])})" for j in range(model.k_target)
        ]
        rows.append(f"S{i}\t" + "\t".join(cells))
    return "\n".join(rows)


def cmd_coarsen(args) -> int:
    model, sample, _ = _load_model(args)
    try:
        ks, kt = (int(v) for v in args.clusters.split(","))
    except ValueError:
        raise ValueError(f"--clusters must be kS,kT, got {args.clusters!r}") from None
    dend = build_dendrogram(model)
    cut_model = cut(dend, ks, kt)
    doc = cut_model.to_dict(seed=args.seed)
    doc["requested_clusters"] = [ks, kt]
    doc["merge_path"] = [rec.to_dict() for rec in dend.merges]
    if args.output:
        _write_text(args.output, _json_text(doc))
    print(f"cut at {cut_model.k_source} x {cut_model.k_target} "
          f"(requested {ks} x {kt}), criterion {cut_model.criterion().total:.6f} nats")
    print(_percentage_table(cut_model))
    return EXIT_OK


# -- density ----------------------------------------------------------------------


def cmd_density(args) -> int:
    model, sample, _ = _load_model(args)
    est = estimate_density(model)
    if args.cell is not None:
        try:
            i, j = (int(v) for v in args.cell.split(","))
            p = est.p(i, j)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"invalid --cell {args.cell!r}: {exc}") from None
        print(json.dumps({"i": i, "j": j, "p": p}))
        return EXIT_OK
    grid = est.matrix()
    lines = ["\t".join(f"{v:.10g}" for v in row) for row in grid]
    text = "\n".join(lines) + "\n"
    if args.output:
        _write_text(args.output, text)
        print(f"wrote {grid.shape[0]} x {grid.shape[1]} probability grid to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------------


_INFORMATION_FIELDS = ("entropy_source", "entropy_target", "joint_entropy",
                       "mutual_information", "modl_mi", "modl_mi_likelihood")


def cmd_evaluate(args) -> int:
    model, sample, _ = _load_model(args)
    report = information_metrics(estimate_density(model))
    mi_full, mi_lh = modl_mi_estimate(model, sample)
    report.modl_mi = mi_full
    report.modl_mi_likelihood = mi_lh
    if args.modularity:
        report.modularity = modularity(sample, model.source_assignment)
    doc = report.to_dict()
    doc["units"] = "nats"
    if args.bits:
        # modularity is a fraction of edges, not an information quantity
        ln2 = math.log(2.0)
        for key in _INFORMATION_FIELDS:
            doc[key] /= ln2
        doc["units"] = "bits"
    doc["tool_version"] = __version__
    text = _json_text(doc)
    if args.output:
        _write_text(args.output, text)
    sys.stdout.write(text)
    return EXIT_OK


# -- bench -----------------------------------------------------------------------------


def cmd_bench(args) -> int:
    if args.experiment == "convergence":
        spec = PAPER_CONVERGENCE if args.paper_scale else DESK_CONVERGENCE
    else:
        spec = DESK_CLUSTER_CURVE
    # a copy: the module's specs stay the defaults of every later run
    spec = replace(spec, params=dict(spec.params))
    if args.experiment == "clusters" and args.paper_scale:
        spec.sizes, spec.reps = [50, 100, 200, 400, 800, 1600, 3200], 10
    if args.sizes:
        spec.sizes = [int(s) for s in args.sizes.split(",")]
        if spec.sizes != sorted(set(spec.sizes)):
            raise ValueError("--sizes must be strictly increasing")
    if args.reps is not None:
        if args.reps < 1:
            raise ValueError("--reps must be >= 1")
        spec.reps = args.reps
    spec.seed = args.seed
    spec.rounds = args.rounds
    flags = {"--n": ("n", args.n), "--blocks": ("blocks", args.blocks), "--noise": ("noise_rate", args.noise)}
    given = {flag: param for flag, param in flags.items() if param[1] is not None}
    if given and args.experiment != "clusters":
        raise ValueError(f"{', '.join(given)}: options of the clusters experiment only")
    spec.params.update(given.values())

    def progress(row):
        print(f"size={row['size']} rep={row['rep']} "
              f"k={row['k_source']}x{row['k_target']} {row['seconds']:.2f}s")

    if args.experiment == "convergence":
        rows = run_convergence_experiment(spec, output=args.output, progress=progress)
        summary = {"experiment": "convergence", "rows": len(rows)}
    else:
        rows = run_cluster_curve(spec, output=args.output, progress=progress)
        summary = {
            "experiment": "clusters",
            "rows": len(rows),
            "recovery_fraction": recovery_fractions(rows),
        }
    summary["seed"] = spec.seed
    summary["tool_version"] = __version__
    if args.output:
        summary["csv"] = args.output
    print(json.dumps(summary))
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------------


def _add_ingest_flags(p: argparse.ArgumentParser):
    p.add_argument("--unify-vertices", action="store_true",
                   help="sources and targets share one vertex space")
    p.add_argument("--undirected", action="store_true",
                   help="ingest each edge in both directions")
    p.add_argument("--vocabulary",
                   help="file declaring the vertex universe, one label per line (its first tab field, "
                        "not stripped); without --unify-vertices, the source vertices only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modlcc",
                                     description="Graph coclustering and edge-density estimation.")
    parser.add_argument("--version", action="version", version=f"modlcc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic edge sample")
    g.add_argument("family", choices=["circular", "block-diagonal", "blockmodel", "undirected-pattern"])
    # a flag that the chosen family does not use is an error; see _FAMILY_FLAGS
    g.add_argument("--n", type=int, help="vertex count (circular, block-diagonal; default 100)")
    g.add_argument("--blocks", type=int, help="block count (block-diagonal; default 2)")
    g.add_argument("--noise", type=float, help="noise edge fraction (block-diagonal; default 0)")
    g.add_argument("--clusters", type=int, help="cluster count (undirected-pattern; default 4)")
    g.add_argument("--cluster-size", type=int, help="cluster size (undirected-pattern; default 10)")
    g.add_argument("--intra", type=float, help="within-cluster edge proportion (undirected-pattern; default 0.8)")
    g.add_argument("--inter", type=float, help="across-cluster edge proportion (undirected-pattern; default 0.1)")
    g.add_argument("--m", type=int, help="edges to draw (circular, block-diagonal, blockmodel; default 1000)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True, help="output path prefix")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a coclustering model to an edge list")
    f.add_argument("edges", help="TSV edge list: source<TAB>target[<TAB>count]")
    f.add_argument("-o", "--output", required=True, help="model JSON output path")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--rounds", type=int, default=10)
    _add_ingest_flags(f)
    f.set_defaults(func=cmd_fit)

    c = sub.add_parser("coarsen", help="cut a fitted model at a coarser granularity")
    c.add_argument("model", help="model JSON from fit")
    c.add_argument("edges", help="the edge list the model was fitted on")
    c.add_argument("--clusters", required=True, metavar="KS,KT",
                   help="requested cluster counts, e.g. 5,5")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("-o", "--output", help="cut model JSON output path")
    c.add_argument("--undirected", action="store_true")
    c.set_defaults(func=cmd_coarsen)

    d = sub.add_parser("density", help="edge probabilities of a fitted model")
    d.add_argument("model")
    d.add_argument("edges")
    what = d.add_mutually_exclusive_group(required=True)
    what.add_argument("--cell", metavar="I,J", help="single vertex pair, JSON output")
    what.add_argument("--full", action="store_true",
                      help="full n_S x n_T probability grid, TSV output")
    d.add_argument("-o", "--output")
    d.add_argument("--undirected", action="store_true")
    d.set_defaults(func=cmd_density)

    e = sub.add_parser("evaluate", help="entropy/dependence metrics of a fitted model")
    e.add_argument("model")
    e.add_argument("edges")
    e.add_argument("--bits", action="store_true", help="display values in bits instead of nats")
    e.add_argument("--modularity", action="store_true",
                   help="include the modularity of the source partition (unified samples)")
    e.add_argument("-o", "--output")
    e.add_argument("--undirected", action="store_true")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("bench", help="run a benchmark experiment grid")
    b.add_argument("experiment", choices=["convergence", "clusters"])
    b.add_argument("-o", "--output", help="CSV output path (enables restartability)")
    b.add_argument("--paper-scale", action="store_true", help="full-size experiment grid")
    b.add_argument("--sizes", help="comma-separated sample sizes, strictly increasing")
    b.add_argument("--reps", type=int)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--rounds", type=int, default=10)
    b.add_argument("--n", type=int, help="vertex count (clusters experiment)")
    b.add_argument("--blocks", type=int, help="planted block count (clusters experiment)")
    b.add_argument("--noise", type=float, help="noise fraction (clusters experiment)")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), EXIT_INTERNAL)
        message = str(exc)
        if code == EXIT_INTERNAL:  # a bug: report it in one line, not a traceback
            message = "internal error: " + " ".join(f"{type(exc).__name__}: {message}".split())
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
