"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite (the file name does not match
``test_*.py``) so that the suite's time does not grow.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sizes(w):
    return [(r.command, r.m, r.ns, r.mode, r.count, r.pattern) for r in w.requests]


class Inputs(unittest.TestCase):
    def test_one_seed_gives_identical_requests_and_files(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(a.requests, b.requests, name)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual(a.warmup, b.warmup, name)

    def test_seed_changes_inputs_but_not_sizes(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7), workloads.build(name, 8)
            self.assertNotEqual((a.requests, a.files), (b.requests, b.files), name)
            self.assertEqual(_sizes(a), _sizes(b), name)

    def test_generated_cultures_are_valid_inputs(self):
        cli = run.import_cli()
        from condorcet.culture import culture_from_csv, culture_from_json

        for name in workloads.WORKLOADS:
            w = workloads.build(name, 11)
            for path, text in w.files.items():
                parse = culture_from_csv if path.endswith(".csv") else culture_from_json
                self.assertEqual(parse(text).probs.tolist(), w.cultures[path].tolist(), path)
        self.assertTrue(callable(cli.main))


class TracedAndUntraced(unittest.TestCase):
    def test_issue_identical_requests(self):
        for name in workloads.WORKLOADS:
            w = workloads.build(name, 3)
            issued = {}
            for traced in (False, True):
                log = issued[traced] = []

                def fake_main(argv, log=log):
                    log.append(list(argv))
                    print("{}")
                    return 0

                tracer = tracing.Tracer() if traced else None
                done, _, _ = run.run_loop(w.requests, 0.0, fake_main, tracer, min_requests=1, min_cycles=2)
                self.assertEqual(len(done), 2 * len(w.requests))
            self.assertEqual(issued[False], issued[True], name)
            self.assertEqual(issued[False][0], list(w.requests[0].argv) + ["--format", "json"])

    def test_tracing_changes_no_output_and_restores_the_package(self):
        cli = run.import_cli()
        argv = ("exact", "--culture", "ic", "--m", "3", "--n", "5")
        plain = run.call(cli.main, argv)
        original = cli.exact_winner_probability
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.exact_winner_probability, original)
            traced = tracer.request(0, run.call, cli.main, argv)
        finally:
            tracer.uninstall()
        self.assertIs(cli.exact_winner_probability, original)
        self.assertEqual(plain, traced)
        self.assertEqual(tracer.absent, [])
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["cli.main", "cli.impartial_culture", "cli.exact_winner_probability"])
        root, _, exact = tracer.spans
        self.assertEqual(exact[3], 0)
        self.assertEqual(exact[5]["work_units"], json.loads(plain[1])["detail"]["compositions"])
        self.assertTrue(root[1] <= exact[1] <= exact[2] <= root[2])

    def test_missing_boundary_is_reported_absent(self):
        run.import_cli()
        extra = tracing.BOUNDARIES + (("cli", "no_such_function", "exact"),)
        with mock.patch.object(tracing, "BOUNDARIES", extra):
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        self.assertEqual(tracer.absent, ["cli.no_such_function"])


class Checks(unittest.TestCase):
    def setUp(self):
        self.cli = run.import_cli()

    def _answer(self, w, index):
        workdir = run.write_inputs(w)
        try:
            with contextlib.chdir(workdir):
                rc, out, _ = run.call(self.cli.main, w.requests[index].argv)
        finally:
            shutil.rmtree(workdir)
        return rc, out

    def test_corrupted_response_counts_as_failure(self):
        w = workloads.build("exact", 5)
        index = next(i for i, r in enumerate(w.requests) if r.culture == "ic:3" and r.ns == (5,))
        rc, out = self._answer(w, index)
        ref = oracle.reference(w.requests[index], w)
        self.assertEqual(oracle.check(w.requests[index], ref, rc, out), [])
        obj = json.loads(out)
        obj["value"] += 1e-6
        corrupted = json.dumps(obj)
        self.assertNotEqual(oracle.check(w.requests[index], ref, rc, corrupted), [])
        self.assertNotEqual(oracle.check(w.requests[index], ref, rc, out[:-5]), [])
        self.assertNotEqual(oracle.check(w.requests[index], ref, 1, out), [])
        done = [(index, rc, out, "", 0.1), (index, rc, corrupted, "", 0.1), (index, 2, "", "usage", 0.1)]
        failed, messages, _ = run.check_all(w, done)
        self.assertEqual(failed, 2)
        self.assertEqual(len(messages), 2)

    def test_corrupted_limit_term_counts_as_failure(self):
        w = workloads.build("limit", 5)
        index = next(i for i, r in enumerate(w.requests) if r.command == "limit" and r.pattern == 1)
        rc, out = self._answer(w, index)
        ref = oracle.reference(w.requests[index], w)
        self.assertEqual(oracle.check(w.requests[index], ref, rc, out), [])
        obj = json.loads(out)
        obj["terms"][0]["L"] += 1e-3
        self.assertNotEqual(oracle.check(w.requests[index], ref, rc, json.dumps(obj)), [])


class Percentile(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(run.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(10, 0, -1)), 90), 9.1)
        self.assertEqual(run.percentile([5.0], 90), 5.0)
        self.assertEqual(run.percentile([3, 1, 2], 0), 1)
        self.assertEqual(run.percentile([3, 1, 2], 100), 3)

    def test_matches_inclusive_quartiles(self):
        values = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.8]
        expected = statistics.quantiles(values, n=4, method="inclusive")
        for got, want in zip((run.percentile(values, q) for q in (25, 50, 75)), expected):
            self.assertAlmostEqual(got, want)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_median_per_request(self):
        # two cycles of three requests, as (cycle index, rc, out, err, latency)
        done = [(i, 0, "", "", lat) for i, lat in ((0, 3), (1, 1), (2, 2), (0, 5), (1, 9), (2, 2))]
        latencies = [d[4] for d in done]
        self.assertEqual(run.median_per_request(done, latencies, 3), [4, 5, 2])
        with self.assertRaises(ValueError):
            run.median_per_request(done[:5], latencies[:5], 3)

    def test_normalise_by_the_bracketing_reference_loops(self):
        done = [(0, 0, "", "", 0.2), (1, 0, "", "", 0.3)]
        # reference loops of 1, 3 and 2 ms around the two requests: means 2 and 2.5 ms
        for got, want in zip(run.normalise_latencies(done, [1e-3, 3e-3, 2e-3]), [0.1, 0.12]):
            self.assertAlmostEqual(got, want)
        with self.assertRaises(ValueError):
            run.normalise_latencies(done, [1e-3, 2e-3])

if __name__ == "__main__":
    unittest.main()
