import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from modlcc import _engine, bench, cli
from modlcc.cli import main
from modlcc.combinatorics import CombinatoricsCache
from modlcc.model import AuditError

from test_graph import edge_list_lines, vocabularies


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_and_fit(tmp_path, capsys, m=400, seed=5):
    prefix = str(tmp_path / "bd")
    code, _, _ = run(
        capsys, "generate", "block-diagonal", "--n", "10", "--blocks", "2",
        "--noise", "0", "--m", str(m), "--seed", str(seed), "-o", prefix,
    )
    assert code == 0
    model_path = str(tmp_path / "model.json")
    code, out, _ = run(
        capsys, "fit", prefix + ".tsv", "-o", model_path,
        "--seed", "7", "--rounds", "5", "--unify-vertices",
    )
    assert code == 0
    return prefix, model_path, out


def test_fit_survives_a_merged_cell_over_half_the_table(tmp_path, capsys, monkeypatch):
    # 15 heavy cells and one stray edge: merging them makes one cocluster
    # cell hold most of the m = 3001 edges
    monkeypatch.setattr(_engine, "shared_cache", CombinatoricsCache())
    lines = [f"s{i}\tt{j}\t200\n" for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    edges = tmp_path / "skewed.tsv"
    edges.write_text("".join(lines) + "x\ty\t1\n")
    code, out, err = run(capsys, "fit", str(edges), "-o", str(tmp_path / "m.json"))
    assert code == 0, err


def test_fit_vocabulary_labels_are_not_stripped(tmp_path, capsys):
    # blank and comment lines are skipped once stripped, as the edge list's
    # are; a label keeps its spaces, as an edge field does
    vocabulary = tmp_path / "vocab.txt"
    vocabulary.write_text("a \n  # a comment\n \nb\tlabel b\nz\n")
    edges = tmp_path / "edges.tsv"
    edges.write_text("a \tb\nb\ta \n")
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "fit", str(edges), "-o", str(model_path), "--unify-vertices",
                       "--vocabulary", str(vocabulary), "--rounds", "1")
    assert code == 0, err
    doc = json.loads(model_path.read_text())
    assert doc["source_labels"] == doc["target_labels"] == ["a ", "b", "z"]
    # without --unify-vertices the vocabulary declares the source vertices only
    edges.write_text("a \tb\n")
    code, _, err = run(capsys, "fit", str(edges), "-o", str(model_path), "--vocabulary", str(vocabulary),
                       "--rounds", "1")
    assert code == 0, err
    doc = json.loads(model_path.read_text())
    assert (doc["source_labels"], doc["target_labels"]) == (["a ", "b", "z"], ["b"])


def test_generate_line_count_equals_m(tmp_path, capsys):
    prefix = str(tmp_path / "g")
    code, _, _ = run(capsys, "generate", "circular", "--n", "20", "--m", "500",
                     "--seed", "1", "-o", prefix)
    assert code == 0
    lines = open(prefix + ".tsv").read().splitlines()
    assert len(lines) == 500
    labels = open(prefix + ".labels.tsv").read().splitlines()
    assert len(labels) == 20
    spec = json.load(open(prefix + ".spec.json"))
    assert spec["seed"] == 1
    assert spec["edges_written"] == 500
    assert spec["tool_version"]


def test_generate_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        code, _, _ = run(capsys, "generate", "blockmodel", "--m", "200",
                         "--seed", "9", "-o", prefix)
        assert code == 0
    assert open(a + ".tsv").read() == open(b + ".tsv").read()


def test_generate_invalid_params_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "block-diagonal", "--n", "5",
                       "--blocks", "9", "--m", "10", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "block count" in err


@pytest.mark.parametrize("argv", [
    ("block-diagonal", "--blocks", "0", "--m", "10"),
    ("block-diagonal", "--blocks", "-1", "--m", "10"),
    ("undirected-pattern", "--cluster-size", "-2"),
    ("undirected-pattern", "--clusters", "0"),
])
def test_generate_empty_or_negative_cluster_counts_exit_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, "generate", *argv, "-o", str(tmp_path / "x"))
    assert code == 2
    assert "must be >= 1" in err


@pytest.mark.parametrize("family, argv, flags", [
    ("circular", ("--blocks", "7", "--noise", "0.9"), "--blocks, --noise"),
    ("blockmodel", ("--n", "50"), "--n"),
    ("undirected-pattern", ("--m", "5", "--n", "3"), "--n, --m"),
    ("block-diagonal", ("--clusters", "9", "--intra", "0.5"), "--clusters, --intra"),
])
def test_generate_rejects_options_of_other_families(tmp_path, capsys, family, argv, flags):
    code, _, err = run(capsys, "generate", family, *argv, "-o", str(tmp_path / "g"))
    assert code == 2
    # the flags in the order of `modlcc generate --help`
    assert err == f"error: {flags}: not used by the {family} family\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family, m, params", [
    ("circular", 1000, {"n": 100}),
    ("block-diagonal", 1000, {"n": 100, "blocks": 2, "noise_rate": 0.0}),
    ("blockmodel", 1000, {}),
    # draws each vertex pair once; the spec still records the default m
    ("undirected-pattern", 1000, {"cluster_count": 4, "cluster_size": 10, "intra": 0.8, "inter": 0.1}),
])
def test_generate_family_defaults(tmp_path, capsys, family, m, params):
    prefix = str(tmp_path / "g")
    code, _, err = run(capsys, "generate", family, "-o", prefix)
    assert code == 0, err
    spec = json.load(open(prefix + ".spec.json"))
    assert (spec["m"], spec["params"]) == (m, params)


def test_bench_clusters_zero_blocks_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "bench", "clusters", "--sizes", "20", "--reps", "1", "--rounds", "1",
                       "--n", "6", "--blocks", "0", "-o", str(tmp_path / "c.csv"))
    assert code == 2
    assert "block count 0 must be >= 1" in err


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_bench_nonpositive_reps_exit_2(tmp_path, capsys, reps):
    out_csv = tmp_path / "c.csv"
    code, _, err = run(capsys, "bench", "clusters", "--sizes", "20", "--reps", reps, "--rounds", "1",
                       "--n", "6", "-o", str(out_csv))
    assert code == 2
    assert "--reps must be >= 1" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("flag, value", [("--n", "1"), ("--blocks", "7"), ("--noise", "0.9")])
def test_bench_convergence_rejects_cluster_curve_options(tmp_path, capsys, flag, value):
    out_csv = tmp_path / "c.csv"
    code, _, err = run(capsys, "bench", "convergence", "--sizes", "100", "--reps", "1", "--rounds", "1",
                       flag, value, "-o", str(out_csv))
    assert code == 2
    assert f"{flag}: options of the clusters experiment only" in err
    assert not out_csv.exists()


def test_fit_summary_and_model(tmp_path, capsys):
    prefix, model_path, out = gen_and_fit(tmp_path, capsys)
    assert "clusters: 2 x 2" in out
    assert "criterion:" in out and "seed 7" in out
    doc = json.load(open(model_path))
    assert doc["seed"] == 7
    assert doc["format_version"] == 1
    assert len(doc["fit_log"]) == 5
    # phase records and wall times stay out of the model file
    keys = {"round", "seed", "initial_k_source", "initial_k_target", "final_k_source", "final_k_target", "criterion"}
    assert all(entry.keys() == keys for entry in doc["fit_log"])
    assert doc["criterion"]["total"] > 0


def test_fit_deterministic(tmp_path, capsys):
    _, first, _ = gen_and_fit(tmp_path, capsys)
    doc1 = open(str(tmp_path / "model.json")).read()
    _, second, _ = gen_and_fit(tmp_path, capsys)
    assert open(str(tmp_path / "model.json")).read() == doc1


def test_fit_empty_input_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, _, err = run(capsys, "fit", str(empty), "-o", str(tmp_path / "m.json"))
    assert code == 2
    assert "no edges" in err


@pytest.mark.parametrize("data, message", [
    (b"a\tb\n\xff\tc\n", "byte 0xff in position 4: invalid start byte"),
    (b"a\tb\r\nc\xc3\tc\n", "byte 0xc3 in position 6: invalid continuation byte"),
    (b"a\tb\r\nc\td\xe2\x82", "bytes in position 8-9: unexpected end of data"),
])
def test_fit_invalid_utf8_exit_2(tmp_path, capsys, data, message):
    # the edge file is read as bytes; the message is the one a text read gives
    edges = tmp_path / "bad.tsv"
    edges.write_bytes(data)
    code, _, err = run(capsys, "fit", str(edges), "-o", str(tmp_path / "m.json"))
    assert code == 2
    assert err == f"error: 'utf-8' codec can't decode {message}\n"


@pytest.mark.parametrize("data", [
    "a\tb\nb\tc\t2\n\u00fcn\ta\n",
    "\ufeffa\tb\r\nb\tc\t2\rc\ta\x85\u00fcn\ta\u2028d\tb\x0bb\ta",
])
def test_fit_reads_the_edge_bytes_as_their_text(tmp_path, capsys, data):
    edges = tmp_path / "e.tsv"
    edges.write_bytes(data.encode("utf-8"))
    code, _, err = run(capsys, "fit", str(edges), "-o", str(tmp_path / "m.json"), "--rounds", "2")
    assert code == 0, err
    # the model's labels are those of the text, split as `str.splitlines` splits it
    doc = json.load(open(tmp_path / "m.json"))
    lines = [line.split("\t") for line in data.splitlines()]
    assert doc["source_labels"] == list(dict.fromkeys(line[0] for line in lines))
    assert doc["target_labels"] == list(dict.fromkeys(line[1] for line in lines))


def test_fit_missing_file_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "fit", str(tmp_path / "nope.tsv"),
                       "-o", str(tmp_path / "m.json"))
    assert code == 3


def test_fit_unexpected_exception_exit_5(tmp_path, capsys, monkeypatch):
    def broken_fit(*args, **kwargs):
        raise RuntimeError("search state lost\nsecond line")

    monkeypatch.setattr(cli, "vns_fit", broken_fit)
    edges = tmp_path / "e.tsv"
    edges.write_text("a\tb\nb\tc\n")
    code, out, err = run(capsys, "fit", str(edges), "-o", str(tmp_path / "m.json"))
    assert code == cli.EXIT_INTERNAL == 5
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("error: ") and "RuntimeError: search state lost second line" in err
    assert not (tmp_path / "m.json").exists()


# test_graph's counts but those near 2^63 - 1: such a count makes the
# log-factorial table ask for PiB, and the fit exits 5, until ROADMAP item 7
# caps the table and this list takes them back
FIT_COUNTS = ["1", "+2", "007", "1_0", "\u0663", "999", "0", "-1", "x", ""]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(lines=edge_list_lines(FIT_COUNTS), unify=st.booleans(), undirected=st.booleans(),
       vocabulary=vocabularies(["z", "w"]))
def test_fit_of_any_edge_list_text_never_exits_5(lines, unify, undirected, vocabulary):
    # the text is accepted and fitted, or rejected with a documented exit code
    with tempfile.TemporaryDirectory() as tmp:
        edges = os.path.join(tmp, "e.tsv")
        with open(edges, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + "\n" for line in lines))
        argv = ["fit", edges, "-o", os.path.join(tmp, "m.json"), "--rounds", "2"]
        argv += ["--unify-vertices"] * unify + ["--undirected"] * undirected
        if vocabulary is not None:
            argv += ["--vocabulary", os.path.join(tmp, "vocabulary.txt")]
            with open(argv[-1], "w", encoding="utf-8", newline="") as fh:
                fh.write("".join(label + "\n" for label in vocabulary))
        assert main(argv) in (0, 2, 3, 4)


@pytest.mark.parametrize("exc, code", [
    (AuditError("counts differ"), 4),
    (ValueError("bad value"), 2),
    (OSError("disk gone"), 3),
    (KeyError("lost"), 5),
])
def test_exit_code_follows_exception_class(tmp_path, capsys, monkeypatch, exc, code):
    def failing_fit(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "vns_fit", failing_fit)
    edges = tmp_path / "e.tsv"
    edges.write_text("a\tb\n")
    got, _, err = run(capsys, "fit", str(edges), "-o", str(tmp_path / "m.json"))
    assert got == code
    assert err == (f"error: {exc}\n" if code != 5 else f"error: internal error: KeyError: {exc}\n")


def test_unknown_flag_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "x.tsv", "-o", "y.json", "--bogus"])
    assert exc.value.code == 2


def test_coarsen_to_single_cell(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    code, out, _ = run(capsys, "coarsen", model_path, prefix + ".tsv",
                       "--clusters", "1,1", "-o", str(tmp_path / "cut.json"))
    assert code == 0
    assert "100.00% (400)" in out
    cut_doc = json.load(open(str(tmp_path / "cut.json")))
    assert cut_doc["requested_clusters"] == [1, 1]


def test_coarsen_percentages_sum(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    code, out, _ = run(capsys, "coarsen", model_path, prefix + ".tsv",
                       "--clusters", "2,2")
    assert code == 0
    pcts = [float(tok.split("%")[0]) for line in out.splitlines()
            for tok in line.split("\t") if "%" in tok]
    assert sum(pcts) == pytest.approx(100.0, abs=0.05)


def test_consistency_audit_exit_4(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    # tamper with the edge file after fitting
    with open(prefix + ".tsv") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(prefix + ".tsv", "w") as fh:
        fh.writelines(lines[:-10])
    code, _, err = run(capsys, "coarsen", model_path, prefix + ".tsv",
                       "--clusters", "1,1")
    assert code == 4
    assert "consistency audit failed" in err


def _broken_models(model):
    """name -> (model document with one field broken, the start of its error message)."""
    def edit(key, value):
        doc = copy.deepcopy(model)
        doc[key] = value
        return doc

    assign = model["source_assignment"]
    counts = copy.deepcopy(model["cocluster_counts"])
    counts[0][2] = 2**70
    missing = dict(model)
    del missing["source_assignment"]
    return {
        "list": ([model], "model JSON must be an object"),
        "no-assignment": (missing, "model has no source_assignment"),
        "null-assignment": (edit("source_assignment", None), "source_assignment must list"),
        "object-counts": (edit("cocluster_counts", {"0": 1}), "cocluster_counts must list"),
        "1e30-assignment": (edit("source_assignment", [1e30] + assign[1:]), "source_assignment must list"),
        "2**70-count": (edit("cocluster_counts", counts), "cocluster_counts must list"),
        "float-assignment": (edit("source_assignment", [assign[0] + 0.5] + assign[1:]),
                             "source_assignment must list"),
        # an id far above n: no bincount of 2**40 entries
        "2**40-assignment": (edit("source_assignment", [2**40] + assign[1:]),
                             "source partition has an empty cluster"),
        "unified-yes": (edit("unified", "yes"), "unified must be true or false, got 'yes'"),
        "int-labels": (edit("target_labels", 5), "target_labels must list the vertex labels"),
        # falsy values are audited too: only a file without the key skips the audit
        **{f"{name}-counts": (edit("cocluster_counts", value), "cocluster_counts must list")
           for name, value in (("empty", []), ("null", None), ("zero", 0), ("false", False), ("blank", ""))},
    }


@pytest.mark.parametrize("case", [
    "list", "no-assignment", "null-assignment", "object-counts", "1e30-assignment", "2**70-count",
    "float-assignment", "2**40-assignment", "unified-yes", "int-labels",
    "empty-counts", "null-counts", "zero-counts", "false-counts", "blank-counts",
])
@pytest.mark.parametrize("command", ["coarsen", "evaluate"])
def test_malformed_model_file_exit_2(tmp_path, capsys, case, command):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    doc, message = _broken_models(json.load(open(model_path)))[case]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    extra = ["--clusters", "1,1"] if command == "coarsen" else []
    code, _, err = run(capsys, command, str(broken), prefix + ".tsv", *extra)
    assert code == 2
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("case", ["label absent from the model", "repeated model label"])
def test_model_labels_that_do_not_match_the_sample_exit_2(tmp_path, capsys, case):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    model = json.load(open(model_path))
    labels = model["source_labels"]
    edges, argv = prefix + ".tsv", ["evaluate"]
    if case == "label absent from the model":
        edges = str(tmp_path / "absent.tsv")
        with open(edges, "w") as fh:
            fh.write(open(prefix + ".tsv").read() + f"absent\t{labels[0]}\n")
    else:
        # the edge file numbers a repeated label once, so the sample has one label fewer
        model["source_labels"] = labels[:2] + labels[1:]
        model_path = str(tmp_path / "repeated.json")
        with open(model_path, "w") as fh:
            json.dump(model, fh)
        argv = ["coarsen"]
    extra = ["--clusters", "1,1"] if argv == ["coarsen"] else []
    code, _, err = run(capsys, *argv, model_path, edges, *extra)
    assert code == 2
    assert err == "error: model labels do not match the sample\n"


def test_density_cell_and_full(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    code, out, _ = run(capsys, "density", model_path, prefix + ".tsv",
                       "--cell", "0,3")
    assert code == 0
    cell = json.loads(out)
    assert cell["i"] == 0 and cell["j"] == 3 and 0 <= cell["p"] <= 1
    code, out, _ = run(capsys, "density", model_path, prefix + ".tsv", "--full")
    assert code == 0
    grid = [[float(v) for v in line.split("\t")] for line in out.strip().splitlines()]
    assert len(grid) == 10 and len(grid[0]) == 10
    assert sum(sum(row) for row in grid) == pytest.approx(1.0, abs=1e-9)
    assert grid[0][3] == pytest.approx(cell["p"], rel=1e-9)


def test_density_needs_cell_or_full(tmp_path, capsys):
    # the n_S x n_T grid prints only on request
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    for extra in ([], ["--cell", "0,3", "--full"]):
        with pytest.raises(SystemExit) as exc:
            main(["density", model_path, prefix + ".tsv", *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def test_density_bad_cell_exit_2(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    code, _, err = run(capsys, "density", model_path, prefix + ".tsv",
                       "--cell", "0,99")
    assert code == 2


def test_evaluate_nats_and_bits(tmp_path, capsys):
    prefix, model_path, _ = gen_and_fit(tmp_path, capsys)
    code, out, _ = run(capsys, "evaluate", model_path, prefix + ".tsv", "--modularity")
    assert code == 0
    nats = json.loads(out)
    assert nats["units"] == "nats"
    assert nats["modularity"] is not None
    assert nats["mutual_information"] == pytest.approx(
        nats["entropy_source"] + nats["entropy_target"] - nats["joint_entropy"], abs=1e-12
    )
    code, out, _ = run(capsys, "evaluate", model_path, prefix + ".tsv", "--bits", "--modularity")
    bits = json.loads(out)
    assert bits["units"] == "bits"
    for key in ("entropy_source", "entropy_target", "joint_entropy", "mutual_information",
                "modl_mi", "modl_mi_likelihood"):
        assert bits[key] == pytest.approx(nats[key] / math.log(2), rel=1e-9)
    # modularity is a fraction of edges: it has no unit to convert
    assert bits["modularity"] == nats["modularity"]


def test_bench_clusters_smoke(tmp_path, capsys):
    out_csv = str(tmp_path / "curve.csv")
    code, out, _ = run(
        capsys, "bench", "clusters", "-o", out_csv, "--sizes", "100,200",
        "--reps", "1", "--rounds", "3", "--seed", "2", "--n", "10", "--blocks", "2",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["experiment"] == "clusters"
    assert summary["seed"] == 2
    header = open(out_csv).readline().strip().split(",")
    assert header == ["size", "rep", "k_source", "k_target", "recovered", "seconds"]


def test_bench_bad_sizes_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "bench", "clusters", "--sizes", "200,100")
    assert code == 2


def test_bench_leaves_the_default_specs_unchanged(capsys):
    names = ("DESK_CONVERGENCE", "PAPER_CONVERGENCE", "DESK_CLUSTER_CURVE")
    defaults = {name: copy.deepcopy(getattr(bench, name)) for name in names}
    code, _, err = run(capsys, "bench", "clusters", "--sizes", "20", "--reps", "1", "--rounds", "1",
                       "--n", "6", "--blocks", "3", "--seed", "7")
    assert code == 0, err
    for name in names:
        assert getattr(bench, name) == defaults[name], name


# json values: scalars (inf and nan among the floats, non-ASCII among the
# strings), lists, tuples and dicts of them, nested, empty or not, and the
# lists of scalar lists and of scalar dicts that the writer encodes whole
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(_JSON_KEYS, inner)
                   | st.lists(st.lists(_JSON_SCALARS, max_size=4))
                   | st.lists(st.dictionaries(_JSON_KEYS, _JSON_SCALARS, max_size=3))),
    max_leaves=40,
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_JSON_VALUES)
def test_json_text_equals_indented_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], [[], [1]], [{}, {"a": 1}], [[1, 2], [3]], [{"a": [1]}, {"b": 2}],
    {"é": ["ü", "\n", "]", "[", "},\n  {"], "k": [[float("inf"), -float("inf")], [float("nan")]]},
    [[1, "],\n    ["], ["}"]], (1, (2, 3)), [True, 1, 1.0], "x", 1.5, None,
])
def test_json_text_edge_cases(value):
    assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"


def test_commands_do_not_import_scipy(tmp_path):
    script = f"""
import sys
from modlcc.cli import main
prefix = {str(tmp_path / "bd")!r}
steps = [
    ["generate", "block-diagonal", "--n", "10", "--blocks", "2", "--m", "300", "-o", prefix],
    ["fit", prefix + ".tsv", "-o", prefix + ".model.json", "--rounds", "2", "--unify-vertices"],
    ["coarsen", prefix + ".model.json", prefix + ".tsv", "--clusters", "1,1", "-o", prefix + ".cut.json"],
    ["evaluate", prefix + ".model.json", prefix + ".tsv", "--modularity"],
]
for argv in steps:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
