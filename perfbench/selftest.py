"""Self-test of the benchmark: its output checks reject tampered results, a
raising op is counted without aborting the pass, the host speed probe scales
times as it should, and BENCHMARK.json lists exactly the metrics the
benchmark prints.

    python3 perfbench/selftest.py
"""

import io
import json
import os
import sys
import tempfile
import time
import unittest
from argparse import Namespace
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

from modlcc import FitConfig, from_partitions, null_model, parse_edge_list, vns_fit  # noqa: E402
from modlcc.synthgen import gen_block_diagonal  # noqa: E402

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, check_coarsen_doc, check_evaluate_doc, check_fit_doc  # noqa: E402
from spans import Tracer  # noqa: E402


def small_graphs(count):
    return inputs.batch_graphs(seed=7, count=count)[0]


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sample, blocks = gen_block_diagonal(40, 4, 0.1, 2000, seed=3)
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
        cls.edges = os.path.join(cls.workdir, "e.tsv")
        cls.model = os.path.join(cls.workdir, "m.json")
        inputs.write_edges(cls.edges, sample)
        workloads.write(cls.model, json.dumps(from_partitions(sample, blocks, blocks).to_dict()))
        cls.sample = parse_edge_list(workloads.read(cls.edges), unify=True,
                                     vocabulary=sample.source_labels)
        cls.null = null_model(cls.sample).criterion().total

    @classmethod
    def tearDownClass(cls):
        for name in os.listdir(cls.workdir):
            os.remove(os.path.join(cls.workdir, name))
        os.rmdir(cls.workdir)

    def test_fit_check_accepts_a_fit_and_rejects_a_tampered_criterion(self):
        doc = json.loads(json.dumps(vns_fit(self.sample, FitConfig(rounds=2)).to_dict()))
        check_fit_doc(doc, self.sample, self.null)
        doc["criterion"]["total"] += 1e-3
        with self.assertRaises(CheckFailed):
            check_fit_doc(doc, self.sample, self.null)

    def test_fit_check_rejects_a_model_worse_than_null(self):
        doc = vns_fit(self.sample, FitConfig(rounds=1)).to_dict()
        with self.assertRaises(CheckFailed):
            check_fit_doc(doc, self.sample, doc["criterion"]["total"] - 1.0)

    def test_evaluate_check_rejects_a_tampered_mi(self):
        doc = json.loads(workloads.cli(["evaluate", self.model, self.edges, "--modularity"]))
        check_evaluate_doc(doc)
        doc["mutual_information"] += 1e-6
        with self.assertRaises(CheckFailed):
            check_evaluate_doc(doc)
        doc = dict(doc, modularity=1.5, mutual_information=doc["mutual_information"] - 1e-6)
        with self.assertRaises(CheckFailed):
            check_evaluate_doc(doc)

    def test_coarsen_check_rejects_extra_clusters_and_a_wrong_root(self):
        out = os.path.join(self.workdir, "cut.json")
        workloads.cli(["coarsen", self.model, self.edges, "--clusters", "2,2", "-o", out])
        doc = json.loads(workloads.read(out))
        check_coarsen_doc(doc, (2, 2), self.null)
        with self.assertRaises(CheckFailed):
            check_coarsen_doc(doc, (1, 2), self.null)
        with self.assertRaises(CheckFailed):
            check_coarsen_doc(doc, (2, 2), self.null + 1.0)


class FailureAccounting(unittest.TestCase):
    def test_a_raising_op_is_counted_and_the_pass_goes_on(self):
        good = small_graphs(2)
        bad = inputs.BatchGraph("bad", "a\tb\tnot-a-count\n", False, {}, {})
        res = workloads.Result("fit-batch")
        samples, fits, *_ = workloads.batch_pass(res, [good[0], bad, good[1]])
        self.assertEqual(res.attempted, 3)
        self.assertEqual(dict(res.failures), {"EdgeListError from parse_edge_list": 1})
        self.assertIsNotNone(fits[0])
        self.assertIsNotNone(fits[2])

    def test_traced_replay_reaches_the_vns_fit_rounds(self):
        graphs = small_graphs(6)
        bad = inputs.BatchGraph("bad", "a\tb\tnot-a-count\n", False, {}, {})
        tracer = Tracer()
        res = workloads.Result("fit-batch")
        *_, replays, mismatches = workloads.batch_pass(res, graphs + [bad], tracer=tracer)
        self.assertEqual(mismatches, 0)
        ops = tracer.ops()
        self.assertEqual(len(ops), 7)
        self.assertEqual(ops[-1]["failed_layer"], "graph")
        self.assertTrue(all(o["coverage"] > 0.5 for o in ops[:-1]))

    def test_replay_mismatch_is_detected(self):
        graphs = small_graphs(2)
        res = workloads.Result("fit-batch")
        real = workloads.replay_rounds

        def off_by_one_round(tracer, sample, rounds, seed):
            return real(tracer, sample, rounds - 1, seed)

        with mock.patch.object(workloads, "replay_rounds", off_by_one_round):
            *_, mismatches = workloads.batch_pass(res, graphs, tracer=Tracer())
        self.assertEqual(mismatches, 2)

    def test_a_failed_check_makes_the_run_exit_non_zero(self):
        def broken(seed, seconds, traced, workdir, t_start):
            res = workloads.Result("fit-batch", attempted=1, build_spans=[(0.0, 0.5)],
                                   op_spans=[(1.0, 2.0)], busy_spans=[(1.0, 2.0)],
                                   gap_nats=0.0, gain_share=1.0)
            res.check_failures.append("tampered")
            return res

        args = Namespace(workload="fit-batch", seed=0, seconds=1.0, trace=0)
        with mock.patch.dict(workloads.WORKLOADS, {"fit-batch": broken}), \
                mock.patch("sys.stdout", new_callable=io.StringIO):
            self.assertEqual(run.run_one(args), 1)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, dict(workloads.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))

    def test_gain_share_is_one_at_the_planted_model_and_zero_at_the_null_model(self):
        self.assertEqual(workloads.gain_share(110.0, 100.0, 100.0), 1.0)
        self.assertEqual(workloads.gain_share(110.0, 110.0, 100.0), 0.0)
        self.assertEqual(workloads.gain_share(110.0, 105.0, 100.0), 0.5)

    def test_probe_scales_time_to_the_reference_speed(self):
        probe = hostspeed.Probe()
        ref = hostspeed.REF_S
        # one probe per second; twice the reference time in [0, 10), the reference after
        probe.starts = [float(t) for t in range(20)]
        probe.durations = [2 * ref] * 10 + [ref] * 10
        self.assertAlmostEqual(probe.normalized(0.5, 9.5), (9.0 - 18 * ref) / 2)
        self.assertAlmostEqual(probe.normalized(10.5, 19.5), 9.0 - 9 * ref)
        # a short interval takes the MIN_SAMPLES probes nearest to it
        self.assertAlmostEqual(probe.factor(2.1, 2.2), 0.5)
        self.assertEqual(hostspeed.Probe().factor(0.0, 1.0), 1.0)

    def test_probe_runs_from_the_timer_and_stops(self):
        probe = hostspeed.Probe()
        probe.start()
        try:
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass
        finally:
            probe.stop()
        count = len(probe.durations)
        self.assertGreaterEqual(count, 2)
        time.sleep(2 * hostspeed.PERIOD_S)
        self.assertEqual(len(probe.durations), count)

    def test_tail_has_ten_samples_beyond_it(self):
        times = list(np.arange(100.0))
        value, pct = run.tail(times)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertAlmostEqual(pct, 90.0)


if __name__ == "__main__":
    unittest.main()
