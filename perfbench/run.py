"""ellarr benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``workloads.WORKLOADS`` or ``all``.  Run from a source
checkout: jobs run ``python -m ellarr.cli`` from ``src/`` in one fresh
interpreter each, one at a time, in a closed loop.  The whole job list (one
repetition) is run again until S seconds have passed.  ``wall_norm_s`` and
``cpu_norm_s`` are the median over repetitions of a repetition's wall and
CPU time, scaled by the machine's speed while its jobs ran, as the
launcher's pace probes measured it (see ``launcher.py``); ``peak_rss_mb``
is the median over repetitions and
``setup_s`` that of the fastest of ``SETUP_PROBES`` set-up probes.  With
``--trace 1`` untraced and traced repetitions alternate and the per-layer
metrics are reported instead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results and traces are also written under
``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

END_TO_END = [("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]
SETUP_PROBES = 40        # set-up probes per run
PACE_PERIOD_S = 0.25     # job time between two pace probes
PACE_REF_S = 0.015       # probe time of the nominal machine of *_norm_s
RUN_SLACK_S = 120.0      # no job runs on later than this past --seconds
SETUP_PROBE = ("import sys\nimport ellarr.cli\n"
               "for path in sys.argv[1:]:\n    ellarr.cli.parse_input(path)\n")


class Spawned(NamedTuple):
    """What the launcher reports on one child process."""
    code: object           # exit code; None when not run, < 0 when killed
    wall: float            # wall time, less the time stopped for probes
    cpu: float
    rss_mb: float
    pace_n: int            # pace probes taken while it ran
    pace_s: float          # their summed time


NOT_RUN = Spawned(None, 0.0, 0.0, 0.0, 0, 0.0)


class JobRun(NamedTuple):
    job: workloads.Job
    spawned: Spawned
    problems: list


class Runner:
    """Runs processes one at a time through ``launcher.py``, with a deadline.

    Jobs are started by the launcher rather than by this process, so that
    their peak RSS does not start at this process's own; ``rss_floor_mb``
    is the launcher's peak, the floor that remains.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Jobs use the bytecode cache, as an installed package does, whatever
        # the caller's environment says; the set-up warm-up fills it.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = SRC
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            text=True)
        ready = self.launcher.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "ready":
            self.close()
            raise RuntimeError("the job launcher did not start")
        self.rss_floor_mb = int(ready[1]) / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Stop the launcher, which kills and reaps a job still running."""
        self.launcher.terminate()
        self.launcher.wait()
        self.launcher.stdin.close()
        self.launcher.stdout.close()

    def spawn(self, argv, out_path, err_path, pace=0.0) -> Spawned:
        """Run one child process; with ``pace`` > 0, probe the machine's
        speed every ``pace`` seconds of job time.

        Nothing is run when the run's deadline has passed; a child still
        running at the deadline is killed.
        """
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return NOT_RUN
        self.launcher.stdin.write(json.dumps(
            {"argv": argv, "out": out_path, "err": err_path,
             "timeout": timeout, "pace": pace}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline().split()
        if len(reply) != 6:
            raise RuntimeError("the job launcher ended")
        code, wall, cpu, rss_kb, pace_n, pace_s = reply
        return Spawned(int(code), float(wall), float(cpu),
                       int(rss_kb) / 1024.0, int(pace_n), float(pace_s))


def write_inputs(jobs, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for job in jobs:
        path = os.path.join(directory, job.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(job.content)
        paths.append(path)
    return paths


class Rep(NamedTuple):
    """One pass over a workload's job list."""
    runs: list             # [JobRun]
    traces: list           # [(trace record, job wall)] of a traced pass

    def total(self, field):
        return sum(getattr(run.spawned, field) for run in self.runs)


def run_rep(runner, jobs, paths, golden, scratch, reference, trace_dir=None):
    """One pass over the job list.

    Untraced jobs are paced (``PACE_PERIOD_S``); traced ones are not, so
    that no probe falls inside their spans.
    """
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    runs, traces = [], []
    for job, path in zip(jobs, paths):
        if trace_dir is None:
            argv = [sys.executable, "-m", "ellarr.cli"] + job.argv(path)
            pace = PACE_PERIOD_S
        else:
            trace_path = os.path.join(trace_dir, job.name + ".json")
            argv = [sys.executable, os.path.join(HERE, "traced_job.py"),
                    trace_path, job.name, "--"] + job.argv(path)
            pace = 0.0
        spawned = runner.spawn(argv, out_path, err_path, pace)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        if spawned.code is None:
            found = ["not run: the run's time budget is spent"]
        else:
            found = checks.problems(job, spawned.code, stdout, golden,
                                    reference)
        if spawned.code:
            with open(err_path, "rb") as fh:
                found.append(fh.read().decode(errors="replace")[-300:])
        runs.append(JobRun(job, spawned, found))
        if trace_dir is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                traces.append((json.load(fh), spawned.wall))
            os.remove(trace_path)
    return Rep(runs, traces)


class SetupProbes:
    """A fixed number of set-up probes, spread evenly over a run.

    A probe is a fresh interpreter that imports ``ellarr.cli`` and parses
    every input file.  Probe ``i`` is due ``i / count`` of the way through
    the run; due probes run between repetitions, so they never fall inside
    a timed repetition, and ``finish`` runs those still missing.  The count
    does not depend on how many repetitions fit in a run, so a workload of
    long repetitions gets as many probes as one of short ones.
    """

    def __init__(self, runner, paths, scratch, seconds, count=SETUP_PROBES):
        self.runner = runner
        self.argv = [sys.executable, "-c", SETUP_PROBE] + paths
        self.out_path = os.path.join(scratch, "stdout")
        self.err_path = os.path.join(scratch, "stderr")
        self.step = seconds / count
        self.count = count
        self.walls = []
        self.probe()                     # fills the bytecode cache; not kept
        self.walls.clear()
        self.start = time.perf_counter()

    def probe(self) -> bool:
        spawned = self.runner.spawn(self.argv, self.out_path, self.err_path)
        if spawned.code is None:
            return False
        if spawned.code != 0:
            with open(self.err_path, "rb") as fh:
                raise RuntimeError("setup probe failed: %s"
                                   % fh.read().decode(errors="replace")[-300:])
        self.walls.append(spawned.wall)
        return True

    def catch_up(self):
        """Run the probes whose time has come."""
        while (len(self.walls) < self.count and time.perf_counter()
               >= self.start + len(self.walls) * self.step):
            if not self.probe():
                return

    def finish(self):
        while len(self.walls) < self.count and self.probe():
            pass


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header() -> dict:
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "machine_settings": "none pinned: no CPU frequency control, "
                                "no CPU isolation"}


def run_workload(name, seed, seconds, trace, reference):
    jobs = workloads.jobs(name, seed)
    tag = "%s-s%d-t%d" % (name, seed, trace)
    scratch = os.path.join(WORK, tag)
    trace_dir = os.path.join(scratch, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    paths = write_inputs(jobs, os.path.join(scratch, "inputs"))
    golden = checks.load_golden()
    with Runner(time.perf_counter() + seconds + RUN_SLACK_S) as runner:
        setup = SetupProbes(runner, paths, scratch, seconds)
        plain, traced, records = [], [], []
        t0 = last = time.perf_counter()
        longest = 0.0
        while True:
            setup.catch_up()
            plain.append(run_rep(runner, jobs, paths, golden, scratch,
                                 reference))
            if trace:
                rep = run_rep(runner, jobs, paths, golden, scratch, reference,
                              trace_dir)
                traced.append(rep)
                records.append(tracing.aggregate(rep.traces))
            now = time.perf_counter()
            longest, last = max(longest, now - last), now
            # Start no repetition that the deadline could cut short.
            if now - t0 >= seconds or runner.deadline - now < 2 * longest:
                break
        setup.finish()
        rss_floor_mb = runner.rss_floor_mb

    reps = plain + traced
    attempted = sum(len(r.runs) for r in reps)
    failures = [(run.job.name, run.problems) for r in reps for run in r.runs
                if run.problems]
    walls = [r.total("wall") for r in plain]
    cpus = [r.total("cpu") for r in plain]
    # Other tenants of a shared machine slow the jobs by up to 2x, in
    # stretches from a fraction of a second to minutes.  The pace probes
    # sample that speed evenly over the jobs' running time, so a
    # repetition's job time over its mean probe time cancels it; the result
    # is given in seconds of a machine on which a probe takes PACE_REF_S.
    # The fastest set-up probe is the set-up time least moved by them.
    pace_n = sum(r.total("pace_n") for r in plain)
    pace_mean_s = sum(r.total("pace_s") for r in plain) / max(pace_n, 1)
    scales = [PACE_REF_S * r.total("pace_n") / r.total("pace_s")
              if r.total("pace_n") else float("nan") for r in plain]
    e2e = {"wall_norm_s": statistics.median(w * k for w, k in
                                            zip(walls, scales)),
           "cpu_norm_s": statistics.median(c * k for c, k in
                                           zip(cpus, scales)),
           "peak_rss_mb": statistics.median(max(j.spawned.rss_mb
                                                for j in r.runs)
                                            for r in plain),
           "setup_s": min(setup.walls)}
    raw = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}
    if trace:
        units = {n: u for n, u, _ in tracing.PER_LAYER}
        layer = {n: statistics.median(rec[n] for rec in records)
                 for n in records[0]}
        layer["trace.overhead_s"] = (min(r.total("wall") for r in traced)
                                     - min(walls))
        metrics = {n: {"value": layer[n], "unit": units[n]}
                   for n, _, _ in tracing.PER_LAYER}
    else:
        units = dict(END_TO_END)
        metrics = {n: {"value": e2e[n], "unit": units[n]} for n, _ in END_TO_END}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    details = dict(header(), workload=name, seed=seed, seconds=seconds,
                   trace=trace, jobs=len(jobs), repetitions=len(plain),
                   end_to_end=e2e, raw=raw, pace_n=pace_n,
                   pace_mean_s=pace_mean_s,
                   fail_ratio=len(failures) / attempted,
                   rss_floor_mb=rss_floor_mb, setup_walls=setup.walls,
                   rep_walls=walls, failures=failures[:50], result=result,
                   rep_scales=scales,
                   job_walls={j.job.name: [r.runs[k].spawned.wall
                                           for r in plain]
                              for k, j in enumerate(plain[0].runs)},
                   job_cpus={j.job.name: [r.runs[k].spawned.cpu
                                          for r in plain]
                             for k, j in enumerate(plain[0].runs)})
    with open(os.path.join(WORK, "results-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    if trace:
        with open(os.path.join(WORK, "trace-%s.json" % tag), "w",
                  encoding="utf-8") as fh:
            json.dump([rec for rec, _ in traced[-1].traces], fh)
    return result, details


def report(name, result, details):
    print("== %s  seed=%d  jobs=%d  repetitions=%d" % (
        name, details["seed"], details["jobs"], details["repetitions"]))
    for metric, v in sorted(result["metrics"].items()):
        print("  %-48s %14.6g %s" % (metric, v["value"], v["unit"]))
    print("  %-48s %14.6g %s" % ("fail_ratio", details["fail_ratio"], "ratio"))
    for metric, value in sorted(details["raw"].items()):
        print("  %-48s %14.6g s   (median repetition, not scaled)"
              % (metric, value))
    print("  %-48s %14.6g s   (mean of %d)" % (
        "pace_probe", details["pace_mean_s"], details["pace_n"]))
    if details["end_to_end"]["peak_rss_mb"] <= details["rss_floor_mb"] + 1:
        print("  note: peak_rss_mb is within 1 MB of the launcher's own peak, "
              "%.1f MB, which no job can report less than"
              % details["rss_floor_mb"])
    for job, found in details["failures"][:10]:
        print("  FAILED %s: %s" % (job, "; ".join(found)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", metavar="DIR",
                        help="stdout digests of another commit: compared when "
                             "present for a job, recorded when absent")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "ellarr", "cli.py")):
        print("error: no ellarr sources at %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.reference:
        os.makedirs(args.reference, exist_ok=True)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    print("# %s" % json.dumps(header(), sort_keys=True))
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds,
                                       args.trace, args.reference)
        report(name, result, details)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, m): v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
