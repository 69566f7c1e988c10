"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They exercise the harness, not the program: generator determinism, the
checker, self-time arithmetic, the job launcher, metric names and
BENCHMARK.json.  Two tests run one short ``ellarr`` job from ``src/``.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _cli(job):
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        path = run.write_inputs([job], tmp)[0]
        proc = subprocess.run([sys.executable, "-m", "ellarr.cli"]
                              + job.argv(path), capture_output=True,
                              env=dict(os.environ, PYTHONPATH=run.SRC),
                              timeout=120)
    return proc.returncode, proc.stdout


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in workloads.WORKLOADS:
            first = workloads.jobs(name, 7)
            self.assertEqual(first, workloads.jobs(name, 7))
            os.makedirs(run.WORK, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.WORK) as a, \
                    tempfile.TemporaryDirectory(dir=run.WORK) as b:
                for pa, pb in zip(run.write_inputs(first, a),
                                  run.write_inputs(first, b)):
                    with open(pa, "rb") as fa, open(pb, "rb") as fb:
                        self.assertEqual(fa.read(), fb.read())

    def test_seed_changes_seeded_inputs_only(self):
        for name in ("torsion-sweep", "consumers"):
            self.assertNotEqual(workloads.jobs(name, 1), workloads.jobs(name, 2))
        self.assertEqual(workloads.jobs("braid-page3", 1),
                         workloads.jobs("braid-page3", 2))

    def test_every_graph_class_once(self):
        # Graphs on 2..5 vertices with an edge: 1 + 3 + 10 + 33 classes.
        self.assertEqual([len(workloads.canonical_graphs(n))
                          for n in range(2, 6)], [1, 3, 10, 33])


class CheckerTest(unittest.TestCase):
    def test_one_byte_corruption_of_golden_output(self):
        job = workloads.jobs("torsion-sweep", 0)[0]
        golden = checks.load_golden()
        self.assertIn(checks.job_key(job), golden["stdout"])
        code, stdout = _cli(job)
        self.assertEqual(checks.problems(job, code, stdout, golden), [])
        for pos in (0, len(stdout) // 2, len(stdout) - 2):
            bad = bytearray(stdout)
            bad[pos] ^= 1
            found = checks.problems(job, code, bytes(bad), golden)
            self.assertTrue(any("golden" in p for p in found), found)

    def test_invariants_catch_unrecorded_bad_tables(self):
        job = workloads.jobs("torsion-sweep", 0)[0]._replace(expect=None)
        out = {"betti_page2": {"0,0": 1, "0,1": 2}, "betti_page3":
               {"0,0": 1, "0,1": 2}, "weights_page3":
               {"0,0": {"0": 1}, "0,1": {"1": 2}}, "poincare": [1, 2],
               "euler": -1}
        found = checks.problems(job, 0, json.dumps(out).encode(),
                                {"stdout": {}, "tables": {}})
        self.assertTrue(any("mirror" in p for p in found), found)

    def test_reference_records_then_compares(self):
        job = workloads.jobs("braid-page3", 0)[0]
        empty = {"stdout": {}, "tables": {}}
        out = json.dumps({"betti_page2": {}, "betti_page3": {},
                          "weights_page3": {}, "poincare": [0],
                          "euler": 0}).encode()
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as ref:
            self.assertEqual(checks.problems(job, 0, out, empty, ref), [])
            self.assertEqual(checks.problems(job, 0, out, empty, ref), [])
            found = checks.problems(job, 0, out + b" ", empty, ref)
            self.assertTrue(any("reference" in p for p in found), found)


class SelfTimeTest(unittest.TestCase):
    def test_children_and_overlap(self):
        # 0: root [0, 10]; 1: [1, 4] and 2: [3, 6] overlap; 3: [1, 2] under
        # 1; 4: [9, 12] sticks out of the root and is clipped to [9, 10].
        parent = [-1, 0, 0, 1, 0]
        start = [0.0, 1.0, 3.0, 1.0, 9.0]
        end = [10.0, 4.0, 6.0, 2.0, 12.0]
        self.assertEqual(tracing.self_times(parent, start, end),
                         [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_job_sums_count_recursion_once(self):
        rec = {"names": ["cli.main", "exactlin.rref"], "name": [0, 1, 1],
               "parent": [-1, 0, 1], "start": [0.0, 1.0, 2.0],
               "end": [5.0, 4.0, 3.0], "counters": {"cli.render.bytes": 7}}
        sums = tracing.job_sums(rec, 6.0)
        self.assertEqual(sums["exactlin.rref.calls"], 2)
        self.assertEqual(sums["exactlin.rref.self_s"], 3.0)
        self.assertEqual(sums["exactlin.rref.total_s"], 3.0)
        self.assertEqual(sums["cli.main.self_s"], 2.0)
        self.assertEqual(sums["exactlin.self_s"], 3.0)
        self.assertEqual(sums["trace.outside_s"], 1.0)
        self.assertEqual(sums["cli.render.bytes"], 7)

    def test_install_leaves_no_unwrapped_reference(self):
        sys.path.insert(0, run.SRC)
        try:
            recorder = tracing.Recorder()
            self.assertEqual(tracing.install(recorder),
                             sum(len(v) for v in tracing.LAYERS.values()))
            values = [v for ns in tracing.package_namespaces()
                      for v in ns.values()]
            originals = {id(v.__wrapped__) for v in values
                         if hasattr(v, "__wrapped__")}
            self.assertTrue(originals)
            self.assertFalse(originals & {id(v) for v in values})
        finally:
            sys.path.remove(run.SRC)


class LauncherTest(unittest.TestCase):
    def _spawn(self, runner, code, pace=0.0):
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            return runner.spawn([sys.executable, "-c", code],
                                os.path.join(tmp, "out"),
                                os.path.join(tmp, "err"), pace)

    def test_job_peak_rss_is_not_the_harness_peak(self):
        ballast = bytearray(200 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        with run.Runner(time.perf_counter() + 60) as runner:
            small = self._spawn(runner, "pass")
            big = self._spawn(runner, "b = bytearray(100 << 20)\n"
                              "for i in range(0, len(b), 4096):\n"
                              "    b[i] = 1\n")
        del ballast
        self.assertEqual(small.code, 0)
        self.assertLess(small.rss_mb, 100)
        self.assertGreater(big.rss_mb, small.rss_mb + 90)

    def test_deadline_kills_the_job(self):
        with run.Runner(time.perf_counter() + 60) as runner:
            runner.deadline = time.perf_counter() + 1   # after start-up
            killed = self._spawn(runner, "import time\ntime.sleep(30)\n",
                                 pace=0.1)
            self.assertLess(killed.code, 0)
            self.assertLess(killed.wall, 10)
            self.assertIsNone(self._spawn(runner, "pass").code)

    def test_pace_probes_stop_the_job_and_leave_its_wall(self):
        # A job that sleeps 1 s of wall clock, probed every 0.1 s of job
        # time: about ten probes, none counted in its wall time, and an
        # unpaced job gets none.
        sleeper = "import time\ntime.sleep(1.0)\n"
        with run.Runner(time.perf_counter() + 60) as runner:
            paced = self._spawn(runner, sleeper, pace=0.1)
            plain = self._spawn(runner, sleeper)
        self.assertEqual((paced.code, plain.code), (0, 0))
        self.assertTrue(7 <= paced.pace_n <= 11, paced)
        self.assertGreater(paced.pace_s, 0.0)
        self.assertEqual(plain.pace_n, 0)
        self.assertLess(paced.wall, 1.0 + paced.pace_n * 0.005 + 0.2)


class NamesTest(unittest.TestCase):
    def test_names_and_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], tracing.PER_LAYER)
        names = (list(workloads.WORKLOADS) + [n for n, _ in run.END_TO_END]
                 + [n for n, _, _ in tracing.PER_LAYER])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for job in (j for w in workloads.WORKLOADS
                    for j in workloads.jobs(w, 0)):
            self.assertRegex(job.name, NAME)


if __name__ == "__main__":
    unittest.main()
