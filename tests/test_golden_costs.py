"""Golden cost regression tests.

Every algorithm's exact (Qr, Qw) on one pinned reference instance, and
its full record (Qr, Qw, T, peak_mem) on both full and counting machines. The
simulator's counters are deterministic, so any change here is a *behavioral*
change to an algorithm or to the cost accounting — possibly intended
(update the constants, note it in the commit), never accidental.

Reference instance: (M=64, B=8, omega=4); sorting N=2000 uniform keys
(seed 42), permuting N=1024 random (seed 42), SpMxV N=256, delta=4
random conformation (seed 42); index build over N=2000 postings and
32 DAAT queries on a 1000-posting index (seed 42); one omega > B sort.
"""

import pytest

from repro.core.params import AEMParams
from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.workloads.search.measures import measure_index_build, measure_search_query

P = AEMParams(M=64, B=8, omega=4)

SORT_GOLDEN = [
    ("aem_mergesort", 4848, 613),
    ("aem_samplesort", 1730, 560),
    ("aem_heapsort", 2857, 575),
    ("aem_pqsort", 5355, 1129),
    ("em_mergesort", 750, 750),
]

PERMUTE_GOLDEN = [
    ("naive", 1015, 128),
    ("sort_based", 2634, 564),
]

SPMXV_GOLDEN = [
    ("naive", 1993, 32),
    ("sort_based", 915, 403),
]


@pytest.mark.parametrize("name,qr,qw", SORT_GOLDEN)
def test_sorter_costs_pinned(name, qr, qw):
    rec = measure_sort(name, 2000, P, seed=42)
    assert (rec["Qr"], rec["Qw"]) == (qr, qw)


@pytest.mark.parametrize("name,qr,qw", PERMUTE_GOLDEN)
def test_permuter_costs_pinned(name, qr, qw):
    rec = measure_permute(name, 1024, P, seed=42)
    assert (rec["Qr"], rec["Qw"]) == (qr, qw)


@pytest.mark.parametrize("name,qr,qw", SPMXV_GOLDEN)
def test_spmxv_costs_pinned(name, qr, qw):
    rec = measure_spmxv(name, 256, 4, P, seed=42)
    assert (rec["Qr"], rec["Qw"]) == (qr, qw)


def test_total_cost_formula_consistency():
    """Q must always equal Qr + omega*Qw — the model's definition."""
    for name, qr, qw in SORT_GOLDEN:
        rec = measure_sort(name, 2000, P, seed=42)
        assert rec["Q"] == rec["Qr"] + P.omega * rec["Qw"]


#: (Qr, Qw, T, peak_mem) per case; full and counting machines must agree.
RECORD_GOLDEN = {
    "sort:aem_mergesort": (4848, 613, 17048, 80),
    "sort:aem_samplesort": (1730, 560, 11513, 72),
    "sort:aem_heapsort": (2857, 575, 9867, 80),
    "sort:aem_pqsort": (5355, 1129, 23073, 126),
    "sort:em_mergesort": (750, 750, 6000, 64),
    "sort:pointer_mergesort": (4355, 500, 17048, 104),
    "sort:aem_mergesort@omega16": (15447, 671, 47520, 80),
    "permute:naive": (1015, 128, 1024, 16),
    "permute:sort_based": (2634, 564, 8192, 80),
    "permute:adaptive": (1015, 128, 1024, 16),
    "spmxv:naive": (1993, 32, 2048, 24),
    "spmxv:sort_based": (915, 403, 7041, 72),
    "index_build": (2592, 989, 14448, 104),
    "search_query:and": (535, 0, 5001, 110),
    "search_query:or": (604, 0, 10069, 110),
}


def _measure(case: str, counting: bool):
    kw = dict(seed=42, counting=counting)
    family, _, name = case.partition(":")
    if family == "sort":
        name, _, omega = name.partition("@omega")
        params = AEMParams(M=64, B=8, omega=int(omega)) if omega else P
        return measure_sort(name, 2000, params, **kw)
    if family == "permute":
        return measure_permute(name, 1024, P, **kw)
    if family == "spmxv":
        return measure_spmxv(name, 256, 4, P, **kw)
    if family == "index_build":
        return measure_index_build(2000, P, **kw)
    return measure_search_query(1000, P, n_queries=32, mode=name, **kw)


@pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
@pytest.mark.parametrize("case", sorted(RECORD_GOLDEN))
def test_record_pinned(case, counting):
    rec = _measure(case, counting)
    assert (rec["Qr"], rec["Qw"], rec["T"], rec["peak_mem"]) == RECORD_GOLDEN[case]
