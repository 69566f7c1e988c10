"""Re-record ``golden.json`` from the current sources.

    python3 perfbench/record_golden.py

Run this only on a commit whose outputs are trusted: it records each torsion
catalogue base's and worked example's Betti tables (the values every
seeded presentation must reproduce), and records the
stdout sha256 of every job of every workload for seeds ``RECORD_SEEDS``.
Jobs that fail their invariant checks are reported and not recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import checks
import run
import workloads

RECORD_SEEDS = range(10)


def run_cli(runner, job, scratch):
    path = run.write_inputs([job], os.path.join(scratch, "inputs"))[0]
    out, err = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    code = runner.spawn([sys.executable, "-m", "ellarr.cli"]
                        + job.argv(path), out, err).code
    with open(out, "rb") as fh:
        return code, fh.read()


def main() -> int:
    scratch = os.path.join(run.WORK, "record")
    os.makedirs(scratch, exist_ok=True)
    with run.Runner(time.perf_counter() + 3600.0) as runner:
        return record(runner, scratch)


def record(runner, scratch) -> int:
    bases = workloads.draw_catalogue()

    tables = {}
    sources = [("worked-k%d" % k, workloads.worked_example(k))
               for k in workloads.WORKED_EXAMPLE_KS]
    sources += [(b["id"], workloads.matrix_input(b["n"], b["divisors"],
                                                  b["offsets"])) for b in bases]
    for name, content in sources:
        code, stdout = run_cli(runner, workloads.Job(name, "betti", "--input",
                                                      content, None), scratch)
        if code != 0:
            print("base %s failed with exit code %d" % (name, code))
            return 1
        out = json.loads(stdout)
        tables[name] = {k: out[k] for k in checks.TABLE_KEYS}

    golden = {"tables": tables, "stdout": {}}
    bad = 0
    for workload in sorted(workloads.WORKLOADS):
        for seed in RECORD_SEEDS:
            for job in workloads.jobs(workload, seed):
                key = checks.job_key(job)
                if key in golden["stdout"]:
                    continue
                code, stdout = run_cli(runner, job, scratch)
                found = checks.problems(job, code, stdout, golden)
                if found:
                    print("not recorded: %s seed %d %s: %s"
                          % (workload, seed, job.name, "; ".join(found)))
                    bad += 1
                    continue
                golden["stdout"][key] = hashlib.sha256(stdout).hexdigest()
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d tables and %d stdout digests; %d jobs failed"
          % (len(tables), len(golden["stdout"]), bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
