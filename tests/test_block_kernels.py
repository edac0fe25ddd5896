"""Block kernels move no I/O: pinned I/O-stream digests and counting==full.

The counting-mode kernels (``small_sort``, ``multiway_merge``'s
``feed_block``, ``scan_copy``, ``BlockWriter.extend``, the gather and
postings loops) batch the per-atom ``touch``/``release`` work of one
block into whole-block operations. They may not move a read or a write,
and they may not change the ledger occupancy at any transfer. Totals
(``Qr``/``Qw``/``T``/``peak``) cannot show that, so this module checks
the transfers themselves:

* **digests** — a sha256 over ``(kind, addr, length, cost, occupancy)``
  of every read/write event of a counting run, pinned per counting
  sorter, permuter, SpMxV algorithm and index build. Re-record with
  ``PYTHONPATH=src python tests/test_block_kernels.py`` only after an
  intended change to an algorithm's I/O schedule.
* **properties** — Hypothesis drives each kernel at the model's edges
  (omega > B, M = 2B, N < M, N not a multiple of B, duplicate keys) and
  requires the counting machine to reproduce the full machine's totals
  and its read/write sub-stream exactly.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.streams import BlockReader, BlockWriter, scan_copy
from repro.observe.base import MachineObserver
from repro.sorting.merge import multiway_merge
from repro.sorting.runs import run_of_input
from repro.sorting.small import small_sort
from repro.workloads.search.measures import measure_index_build, measure_search_query


class IOStream(MachineObserver):
    """Records ``(kind, addr, length, cost, occupancy)`` per block transfer.

    ``needs_events`` puts it on the synchronous bus, so the occupancy it
    reads is the ledger's at the moment of the transfer.
    """

    needs_events = True

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._mem = None

    def on_attach(self, core) -> None:
        self._mem = core.mem

    def on_read(self, addr, items, cost) -> None:
        self.events.append(("r", addr, len(items), cost, self._mem.occupancy))

    def on_write(self, addr, items, cost) -> None:
        self.events.append(("w", addr, len(items), cost, self._mem.occupancy))

    def digest(self) -> str:
        h = hashlib.sha256()
        for event in self.events:
            h.update(repr(event).encode())
        return h.hexdigest()


# ----------------------------------------------------------------------
# Pinned digests of counting runs.
# ----------------------------------------------------------------------
P4 = AEMParams(M=64, B=8, omega=4)
P16 = AEMParams(M=64, B=8, omega=16)  # omega > B: external pointer blocks


def _run_case(case: str, observers) -> None:
    family, name = case.split(":")
    kw = dict(seed=42, observers=observers, counting=True)
    if family == "sort":
        params = P16 if name.endswith("@16") else P4
        measure_sort(name.split("@")[0], 2000, params, **kw)
    elif family == "permute":
        measure_permute(name, 1024, P4, **kw)
    elif family == "spmxv":
        measure_spmxv(name, 256, 4, P4, **kw)
    elif family == "index":
        measure_index_build(2000, P4, **kw)
    else:
        measure_search_query(1000, P4, n_queries=32, mode=name, **kw)


#: (event count, sha256) of each case's read/write stream.
DIGESTS = {
    "sort:aem_mergesort": (5461, "b8f2a5631e4c5fe9d5b7801498cb9e6b5b0845d34763e3f1b05c06ebfdfe8b0b"),
    "sort:aem_mergesort@16": (16118, "cb579b0ddacd49495435b71814ce374fdb009776ca7101d5a64eec142d824f62"),
    "sort:pointer_mergesort": (4855, "4b8b878f7e116bc683fbb661aa883623a53ffaf1f9f83f41fd020adf9e0a2b27"),
    "sort:em_mergesort": (1500, "245e42c32f5d9b030fdcd0b5e1b8fa9b2e7e3aade9a102bf1d4a8f8798564ba1"),
    "permute:naive": (1143, "810f8251d592797060af2a7be18c862f62720250571971e107fcabd5b302066c"),
    "permute:sort_based": (3198, "a7bd9d817920fffe970a6e6559dd9403baa92aa98c52feeb762f12566aae0bd9"),
    "permute:adaptive": (1143, "810f8251d592797060af2a7be18c862f62720250571971e107fcabd5b302066c"),
    "spmxv:naive": (2025, "c2793c7353ed5e9d593ba6884c795a3892bcc021c776784b2d88603b418434bb"),
    "spmxv:sort_based": (1318, "e441363e878de9d997ccb0e3e49d9702c8388a699c86ab5cd823e7e7d875a7b1"),
    "index:build": (3581, "d3427979d47ec5ff892017dfb8a77dec1bc5772581dd8e92c0ccfacc2c066645"),
    "search:and": (2055, "38c4abdc10d40ebf06c5141f12d06210e0b9fdd4708cc10b5b6614464fe60579"),
    "search:or": (2124, "1863ad46720381e35d975f312fc0be5c1fdff15fc4d6fa7e8556dde871953be2"),
}


def case_digest(case: str) -> tuple[int, str]:
    stream = IOStream()
    _run_case(case, [stream])
    return len(stream.events), stream.digest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_io_stream_digest_pinned(case):
    assert case_digest(case) == DIGESTS[case]


# ----------------------------------------------------------------------
# Counting == full at the model's edges.
# ----------------------------------------------------------------------
@st.composite
def edge_params(draw) -> AEMParams:
    """Small machines covering M = 2B and omega far above B."""
    B = draw(st.sampled_from([1, 2, 3, 4, 8]))
    M = B * draw(st.integers(2, 5))
    omega = draw(st.sampled_from([1, 2, B, B + 1, 3 * B]))
    return AEMParams(M=M, B=B, omega=omega)


def keys(max_size: int):
    """Key lists with many duplicates (a tiny key range) or none."""
    return st.lists(
        st.one_of(st.integers(0, 3), st.integers(-1000, 1000)), max_size=max_size
    )


PROPS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def twin_run(params: AEMParams, program) -> list[tuple]:
    """Run ``program(machine)`` on a full and a counting machine.

    Returns the two ``(Qr, Qw, T, peak, read/write stream)`` outcomes.
    Capacity is not enforced: at these tiny M the merge's per-run state
    outgrows the default slack, and the ledger is compared exactly anyway.
    """
    out = []
    for counting in (False, True):
        stream = IOStream()
        machine = AEMMachine.for_algorithm(
            params, observers=[stream], counting=counting, enforce_capacity=False
        )
        program(machine)
        snap = machine.snapshot()
        out.append((snap.reads, snap.writes, snap.touches, machine.mem.peak, stream.events))
    return out


def assert_twins(params: AEMParams, program) -> None:
    full, counting = twin_run(params, program)
    assert counting == full


@PROPS
@given(params=edge_params(), data=st.data())
def test_small_sort_counting_matches_full(params, data):
    # N ranges over N < M, N = omega*M (the base-case limit) and
    # everything between, multiples of B or not.
    ks = data.draw(keys(params.base_case_size()))
    atoms = make_atoms(ks)

    def program(machine):
        small_sort(machine, run_of_input(machine, machine.load_input(atoms)), params)

    assert_twins(params, program)


@PROPS
@given(params=edge_params(), data=st.data())
def test_multiway_merge_counting_matches_full(params, data):
    k = data.draw(st.integers(1, min(params.fanout, 6)))
    parts = [data.draw(keys(3 * params.M)) for _ in range(k)]
    atoms = make_atoms([key for part in parts for key in part])
    runs, start = [], 0
    for part in parts:
        runs.append(sorted(atoms[start : start + len(part)]))
        start += len(part)
    mode = data.draw(st.sampled_from(["external", "internal"]))

    def program(machine):
        loaded = [run_of_input(machine, machine.load_input(r)) for r in runs if r]
        multiway_merge(machine, loaded, params, pointer_mode=mode)

    assert_twins(params, program)


@PROPS
@given(params=edge_params(), data=st.data())
def test_scan_copy_counting_matches_full(params, data):
    # Several loads, each ending in a partial block, so the copy carries
    # a misaligned remainder across input blocks.
    loads = data.draw(st.lists(keys(3 * params.B), max_size=4))

    def program(kernel):
        def run(machine):
            addrs = [
                a for ks in loads if ks for a in machine.load_input(make_atoms(ks))
            ]
            if kernel:
                scan_copy(machine, addrs)
            else:  # the per-atom reader/writer loop the kernel replaces
                writer = BlockWriter(machine)
                for item in BlockReader(machine, addrs):
                    writer.push(item)
                writer.close()

        return run

    reference = twin_run(params, program(False))
    assert reference[0] == reference[1]
    assert twin_run(params, program(True)) == reference


@PROPS
@given(params=edge_params(), data=st.data())
def test_block_writer_extend_matches_push(params, data):
    # Arbitrary chunk sizes, empty and longer than B included; extend must
    # write exactly where the per-item push loop writes, in both modes.
    chunks = data.draw(st.lists(st.integers(0, 3 * params.B), max_size=6))
    atoms = make_atoms(range(sum(chunks)))

    def program(bulk):
        def run(machine):
            writer, pos = BlockWriter(machine), 0
            for size in chunks:
                chunk = atoms[pos : pos + size]
                pos += size
                machine.acquire(size)
                if bulk:
                    writer.extend(chunk)
                else:
                    for item in chunk:
                        writer.push(item)
                machine.touch(size)
            writer.close()

        return run

    per_item = twin_run(params, program(False))
    assert per_item[0] == per_item[1]
    assert twin_run(params, program(True)) == per_item


if __name__ == "__main__":
    for case in DIGESTS:
        print(f"    {case!r}: {case_digest(case)!r},")
