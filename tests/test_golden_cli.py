"""Golden CLI outputs: the sha256 of stdout and the exit code of every case.

Each command runs on a small corpus (braid inputs, the worked example, a
torsion input with offsets, a non-essential input and four graphs), plus
``--verify`` runs and all three output formats.  Any change to any byte of
any output fails the test.  After an intended output change, rewrite the
data file with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ellarr import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

INPUTS = {
    "braid3": ("--input", {"braid": 3}),
    "braid4": ("--input", {"braid": 4}),
    "worked-k5": ("--input", {"n": 2, "divisors": [[1, 0], [1, 5], [2, 5]]}),
    "torsion": ("--input", {"n": 2, "divisors": [[2, 1], [0, 1], [2, 3]],
                            "offsets": [["0", "0"], ["1/2", "0"],
                                        ["0", "1/3"]]}),
    "nonessential": ("--input", {"n": 3, "divisors": [[1, 1, 0], [0, 1, 1]]}),
    "K3": ("--graph", {"graph": {"vertices": 3,
                                 "edges": [[1, 2], [1, 3], [2, 3]]}}),
    "P3": ("--graph", {"graph": {"vertices": 3, "edges": [[1, 2], [2, 3]]}}),
    "C4": ("--graph", {"graph": {"vertices": 4,
                                 "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}}),
    "K4": ("--graph", {"graph": {"vertices": 4,
                                 "edges": [[1, 2], [1, 3], [1, 4], [2, 3],
                                           [2, 4], [3, 4]]}}),
}

COMMANDS = ("poset", "betti", "euler", "braid-table", "rep-decompose",
            "formality", "verify-all")


def cases() -> dict:
    """Case id -> (input name, extra CLI arguments)."""
    out = {}
    for name in INPUTS:
        for cmd in COMMANDS:
            out["%s/%s" % (name, cmd)] = (name, ["--cmd", cmd])
    for name in ("braid3", "worked-k5", "nonessential", "C4"):
        out["%s/betti--verify" % name] = (name, ["--cmd", "betti", "--verify"])
    for fmt in ("json", "csv", "text"):
        out["worked-k5/betti--format-%s" % fmt] = (
            "worked-k5", ["--cmd", "betti", "--format", fmt])
    return out


def run_case(directory: str, name: str, extra: list) -> dict:
    flag, content = INPUTS[name]
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(content, fh)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([flag, path] + extra)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_output(case, tmp_path):
    name, extra = cases()[case]
    assert run_case(str(tmp_path), name, extra) == load_golden()[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: run_case(tmp, *spec)
                  for case, spec in sorted(cases().items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write("recorded %d cases in %s\n" % (len(record), GOLDEN))
