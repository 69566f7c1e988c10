"""Memory regressions on braid 5 and 6, measured with tracemalloc.

The bounds sit between what the poset and the rank stage allocate now
(about 0.95 MB and 1.2 MB on CPython 3.11) and what they allocated when the
layer association was keyed by frozensets and every rank-block column was
copied before reduction (about 2.6 MB and 1.8 MB).  The verify-all bound
sits between the suite in block memory (0.5-0.75 MB on braid 5, depending
on what the process ran before) and the suite that cached every
monomial's image and stored every basis block for its audits
(1.15-1.65 MB).  The d^2 = 0 audit alone peaks at 0.1-0.2 MB on braid 5;
keeping its target images past their block takes it to about 0.55 MB.
"""

import functools
import tracemalloc

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cli, cohomology
from ellarr.model import BigradedDGA

MB = 1 << 20


def traced_peak_mb(fn):
    """Peak traced allocation of ``fn()`` above where it started, in MB."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not outer:
            tracemalloc.stop()
    return (peak - start) / MB


@pytest.fixture(scope="module")
def braid6():
    core, _, _ = cohomology.essentialize(braid.braid_arrangement(6))
    return core


def test_build_poset_peak(braid6):
    posets = []
    peak = traced_peak_mb(lambda: posets.append(arr_mod.build_poset(braid6)))
    assert posets[0].size == braid.bell_number(6)
    assert peak < 2.0, peak


def test_page3_peak(braid6):
    dga = BigradedDGA(braid6)
    for lid in range(dga.poset.size):
        dga.nbc(lid)
        dga.coframe(lid)
    tables = []
    peak = traced_peak_mb(lambda: tables.append(cohomology.page3_table(dga)))
    assert tables[0].euler() == cohomology.page2_table(dga).euler() != 0
    assert peak < 1.5, peak


def test_verify_all_peak():
    arr = braid.braid_arrangement(5)
    args = cli.build_parser().parse_args(["--braid", "5", "--cmd", "verify-all"])
    model = functools.cache(lambda: cohomology.full_model(arr))
    model()
    results = []
    peak = traced_peak_mb(
        lambda: results.append(cli.cmd_verify_all(arr, None, args, model)))
    assert results[0]["ok"]
    assert peak < 1.0, peak


def test_audits_hold_one_block():
    dga = cohomology.full_model(braid.braid_arrangement(5)).core
    assert dga.d(dga.omega_generators(0))
    cached = dict(dga._d_cache)
    assert dga.total_dimension() == sum(dga.dim(*pq) for pq in dga.bidegrees())
    assert dga._basis == {}
    oks = []
    peak = traced_peak_mb(lambda: oks.append(dga.verify_d_squared()))
    assert oks == [True] and dga._d_cache == cached
    assert peak < 0.35, peak
