"""Memory regressions on braid 6, measured with tracemalloc.

The bounds sit between what the poset and the rank stage allocate now
(about 0.95 MB and 1.2 MB on CPython 3.11) and what they allocated when the
layer association was keyed by frozensets and every rank-block column was
copied before reduction (about 2.6 MB and 1.8 MB).
"""

import tracemalloc

import pytest

from ellarr import arrangement as arr_mod
from ellarr import braid, cohomology
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
