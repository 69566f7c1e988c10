"""Correctness checks on one job's stdout.

A job passes when it exits 0, prints JSON, matches its golden sha256 when
one was recorded for its exact input, matches a reference run when one is
given, and satisfies the invariants of its command.  Every check here is an
exact equality; a failed check counts the job as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Keys of betti output that a presentation change must leave unchanged.
TABLE_KEYS = ("betti_page2", "betti_page3", "weights_page3", "poincare",
              "euler")


def job_key(job) -> str:
    """Identity of a job's input: command, input flag and file bytes."""
    text = json.dumps([job.cmd, job.flag, job.content])
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _euler(table: dict) -> int:
    total = 0
    for key, dim in table.items():
        p, q = (int(x) for x in key.split(","))
        total += -dim if (p + q) % 2 else dim
    return total


def _poincare(table: dict) -> list:
    out = [0]
    for key, dim in table.items():
        p, q = (int(x) for x in key.split(","))
        out += [0] * (p + q + 1 - len(out))
        out[p + q] += dim
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def weight_problems(table: dict, weights: dict, label: str) -> list:
    """Weights must sum to the entries and be symmetric under a <-> -a."""
    problems = []
    if set(table) != set(weights):
        problems.append("%s: weight keys differ from entries" % label)
    for key, wd in weights.items():
        if sum(wd.values()) != table.get(key):
            problems.append("%s %s: weights sum to %d, entry is %s"
                            % (label, key, sum(wd.values()), table.get(key)))
        for a, d in wd.items():
            if wd.get(str(-int(a))) != d:
                problems.append("%s %s: weight %s has no mirror" % (label, key, a))
    return problems


def _betti_problems(out: dict) -> list:
    problems = []
    e2, e3 = _euler(out["betti_page2"]), _euler(out["betti_page3"])
    if not e2 == e3 == out["euler"]:
        problems.append("euler: page 2 %d, page 3 %d, reported %s"
                        % (e2, e3, out["euler"]))
    if _poincare(out["betti_page3"]) != out["poincare"]:
        problems.append("poincare does not match page 3")
    return problems


def _triangle(n: int, edges) -> bool:
    """The harness's own triangle test, independent of the program's."""
    es = {tuple(sorted(e)) for e in edges}
    return any((i, j) in es and (j, k) in es and (i, k) in es
               for i, j, k in itertools.combinations(range(1, n + 1), 3))


def _formality_problems(job, out: dict) -> list:
    graph = json.loads(job.content)["graph"]
    n, edges = graph["vertices"], graph["edges"]
    verdict = out["formality"]
    if verdict["one_formal"] == _triangle(n, edges):
        return ["formality verdict %s disagrees with the triangle test"
                % verdict["one_formal"]]
    if verdict["one_formal"]:
        return [] if verdict["vanishing"]["ok"] else ["vanishing not ok"]
    wit = verdict["witness"]
    problems = []
    if not wit["gap_certified"]:
        problems.append("resonance gap not certified")
    es = {tuple(sorted(e)) for e in edges}
    i, j, k = sorted(wit["triangle"])
    if not {(i, j), (i, k), (j, k)} <= es:
        problems.append("witness %s is not a triangle of the graph"
                        % wit["triangle"])
    return problems


def _command_problems(job, out: dict, tables: dict) -> list:
    if job.cmd == "betti":
        problems = _betti_problems(out)
        problems += weight_problems(out["betti_page3"], out["weights_page3"],
                                    "page 3")
        if job.expect is not None:
            want = tables[job.expect]
            problems += ["%s differs from %s" % (k, job.expect)
                         for k in TABLE_KEYS if out[k] != want[k]]
        return problems
    if job.cmd == "braid-table":
        return _betti_problems(out) + weight_problems(
            out["betti_page3_reduced"], out["weights_page3_reduced"],
            "reduced page 3")
    if job.cmd == "formality":
        return _formality_problems(job, out)
    if job.cmd == "verify-all":
        bad = [c["check"] for c in out["verify"] if not c["ok"]]
        if bad or out["ok"] is not True:
            return ["verify-all failed: %s" % ", ".join(bad)]
        return []
    if job.cmd == "rep-decompose":
        rows = [r for rs in out["representations"].values() for r in rs]
        if not rows or any(r["multiplicity"] < 1 for r in rows):
            return ["rep-decompose rows missing or non-positive"]
        return []
    raise ValueError("no checks for command %r" % job.cmd)


def problems(job, returncode: int, stdout: bytes, golden: dict,
             reference_dir=None) -> list:
    """Every way this job's result is wrong; empty when it is right."""
    if returncode != 0:
        return ["exit code %d" % returncode]
    digest = hashlib.sha256(stdout).hexdigest()
    key = job_key(job)
    found = []
    want = golden["stdout"].get(key)
    if want is not None and want != digest:
        found.append("stdout differs from the golden output")
    if reference_dir is not None:
        path = os.path.join(reference_dir, key)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                if fh.read().strip() != digest:
                    found.append("stdout differs from the reference run")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(digest + "\n")
    try:
        out = json.loads(stdout)
        found += _command_problems(job, out, golden["tables"])
    except (ValueError, KeyError, TypeError) as exc:
        found.append("malformed output: %s: %s" % (type(exc).__name__, exc))
    return found
