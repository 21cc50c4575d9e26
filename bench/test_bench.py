"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def last_json(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv)
    assert code == 0, code
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


class FakeCli:
    """Runs the real ``main`` and then rewrites what it printed."""

    def __init__(self, cli, rewrite):
        self.cli = cli
        self.rewrite = rewrite

    def main(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.cli.main(argv)
        sys.stdout.write(self.rewrite(stdout.getvalue()))
        return code


class RaisingCli:
    def main(self, argv):
        raise RecursionError("maximum recursion depth exceeded")


def edit_certificate(change):
    """A rewrite that updates the certificate with ``change(certificate)``."""

    def rewrite(stdout: str) -> str:
        cert = json.loads(stdout)
        cert.update(change(cert))
        return json.dumps(cert) + "\n"

    return rewrite


class SmokeTest(unittest.TestCase):
    def test_every_workload_answers_and_reports_every_metric(self):
        expected = set(run.END_TO_END_UNITS)
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = last_json(["--workload", name, "--seed", "1", "--smoke"])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["attempted"], run.SMOKE_ANSWERS)
                self.assertEqual(set(result["metrics"]), expected)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)


class FailureCountingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.ROOT / "src"))
        cls.lab = run.import_idomlab()
        cls.workdir = Path(tempfile.mkdtemp())
        cls.plan = workloads.build("kn-route", 1, cls.lab, cls.workdir)
        cls.answer = next(a for a in cls.plan.answers if a.argv[2:5] == ["path:5", "--product", "complete:3"])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def outcome(self, cli, answer=None, plan=None):
        result = run.Measurement()
        run.run_pass(cli, plan or self.plan, [answer or self.answer], result)
        return result.outcomes[0]

    def test_real_answer_is_delivered(self):
        outcome = self.outcome(self.lab["cli"])
        self.assertTrue(outcome.delivered)
        self.assertIsNone(outcome.wrong)

    def test_wrong_value_counts_as_failed(self):
        cli = FakeCli(self.lab["cli"], edit_certificate(lambda c: {"value": c["value"] + 1}))
        outcome = self.outcome(cli)
        self.assertFalse(outcome.delivered)
        self.assertIn("witness has", outcome.wrong)

    def test_corrupted_witness_counts_as_failed(self):
        cli = FakeCli(self.lab["cli"], edit_certificate(lambda c: {"witness": c["witness"][:-1],
                                                                   "value": c["value"] - 1}))
        outcome = self.outcome(cli)
        self.assertFalse(outcome.delivered)
        self.assertIn("predicate", outcome.wrong)

    def test_unreadable_certificate_counts_as_failed(self):
        outcome = self.outcome(FakeCli(self.lab["cli"], lambda text: text[:-5] + "\n"))
        self.assertFalse(outcome.delivered)
        self.assertIn("unreadable", outcome.wrong)

    def test_changed_paper_bytes_count_as_failed(self):
        plan = workloads.build("paper", 1, self.lab, self.workdir)
        answer = next(a for a in plan.answers if a.label == "reproduce.conj-refutation")
        outcome = self.outcome(FakeCli(self.lab["cli"], lambda text: text + " "), answer, plan)
        self.assertFalse(outcome.delivered)
        self.assertIsNotNone(outcome.wrong)

    def test_escaped_exception_counts_as_failed_but_not_wrong(self):
        outcome = self.outcome(RaisingCli())
        self.assertFalse(outcome.delivered)
        self.assertIsNone(outcome.wrong)

    def test_failures_lower_the_delivered_ratio(self):
        result = run.Measurement()
        wrong = FakeCli(self.lab["cli"], edit_certificate(lambda c: {"value": 0}))
        run.run_pass(self.lab["cli"], self.plan, [self.answer, self.answer], result)
        run.run_pass(wrong, self.plan, [self.answer, self.answer], result)
        result.setup_times.append(0.1)
        metrics = run.end_to_end(result)
        self.assertEqual(metrics["delivered_ratio"], 0.5)

    def test_timings_use_each_answers_median_latency(self):
        result = run.Measurement(latencies=[[0.3, 0.1, 0.2], [0.5, 0.7, 0.4]], setup_times=[0.2, 0.1, 0.3],
                                 outcomes=[run.Outcome(0.1, True)])
        metrics = run.end_to_end(result)
        self.assertAlmostEqual(metrics["wall_s"], 0.7)
        self.assertAlmostEqual(metrics["answer_p50_s"], 0.35)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)

    def test_times_are_scaled_by_the_reference_kernel(self):
        self.assertAlmostEqual(run.scaled(1.0, run.REFERENCE_S, run.REFERENCE_S), 1.0)
        self.assertAlmostEqual(run.scaled(1.0, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S), 0.5)
        self.assertAlmostEqual(run.scaled(1.0, run.REFERENCE_S, 3 * run.REFERENCE_S), 0.5)

    def test_broken_invariant_chain_fails_the_whole_group(self):
        plan = workloads.build("dense-factors", 1, self.lab, self.workdir)
        answers = plan.answers[:5]
        self.assertEqual({a.group for a in answers}, {(0, 0)})
        values = {"i": 5, "alpha": 9, "gamma": 4, "gamma_t": 6, "rho": 3}
        plan.check_group([(a, values[a.label.partition(".")[2]]) for a in answers])
        values["rho"] = 5  # rho above gamma cannot happen
        with self.assertRaises(workloads.Mismatch):
            plan.check_group([(a, values[a.label.partition(".")[2]]) for a in answers])

        def reject(group):
            raise workloads.Mismatch("chain")

        result = run.Measurement()
        run.run_pass(self.lab["cli"], workloads.Plan(answers, reject), answers, result)
        self.assertEqual([o.delivered for o in result.outcomes], [False] * 5)
        self.assertTrue(all("chain" in o.wrong for o in result.outcomes))


class TracerTest(unittest.TestCase):
    def test_install_records_spans_and_uninstall_restores(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        lab = run.import_idomlab()
        cli, invariants = lab["cli"], lab["invariants"]
        originals = (cli.main, cli.independent_domination_number, invariants.SOLVERS["i"],
                     lab["graph"].Graph.__post_init__, cli._BOUNDS4)
        tracer = tracing.Tracer()
        tracer.install(lab)
        try:
            self.assertIsNot(cli.independent_domination_number, originals[1])
            self.assertIs(invariants.SOLVERS["i"], invariants.independent_domination_number)
            tracer.start_answer("compute")
            _, code, stdout, _ = run.call(cli, ["compute", "--graph", "cycle:6", "--product",
                                                "complete:3", "--invariant", "i", "--cap", "40"])
            tracer.answer = None
            run.call(cli, ["compute", "--graph", "path:4", "--invariant", "i", "--cap", "40"])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        self.assertEqual(originals, (cli.main, cli.independent_domination_number, invariants.SOLVERS["i"],
                                     lab["graph"].Graph.__post_init__, cli._BOUNDS4))
        names = {span[0] for span in tracer.spans}
        self.assertIn("cli.main", names)
        self.assertIn("labelling.minimize_weight", names)
        self.assertIn("invariants.independent_domination_number", names)
        self.assertIn("graph.validate", names)
        self.assertEqual({span[4] for span in tracer.spans}, {0})  # the untraced answer left none
        root = tracer.spans[0]
        self.assertEqual((root[0], root[3]), ("cli.main", -1))
        metrics = tracing.rollup(tracer.spans, tracer.labels, 1, root[2] - root[1], 0.0)
        self.assertAlmostEqual(metrics["trace.accounted_ratio"], 1.0, places=6)
        self.assertEqual(metrics["labelling.minimize_weight.calls"], 1)
        self.assertEqual(metrics["invariants.i.calls"], 1)
        self.assertEqual(set(metrics), set(tracing.per_layer_metric_names()))


class BareDirectoryTest(unittest.TestCase):
    def test_exits_nonzero_without_sources_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch)
            shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", copy)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=copy, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
