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
  sorter, permuter, SpMxV algorithm, index build and search query shape. Re-record with
  ``PYTHONPATH=src python tests/test_block_kernels.py`` only after an
  intended change to an algorithm's I/O schedule.
* **properties** — Hypothesis drives each kernel at the model's edges
  (omega > B, M = 2B, N < M, N not a multiple of B, duplicate keys) and
  requires the counting machine to reproduce the full machine's totals
  and its read/write sub-stream exactly.
* **the DAAT query kernels** (``_query_and``/``_query_or``) against the
  per-posting loop they replace, kept here as the oracle: results, read
  stream, ``T`` per phase and peak must agree on random small corpora.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.measures import measure_permute, measure_sort, measure_spmxv
from repro.atoms.atom import make_atoms
from repro.core.params import AEMParams
from repro.machine.aem import AEMMachine
from repro.machine.phantom import token_of
from repro.machine.streams import BlockReader, BlockWriter, scan_copy
from repro.observe.base import MachineObserver
from repro.sorting.merge import multiway_merge
from repro.sorting.runs import run_of_input
from repro.sorting.small import small_sort
from repro.workloads.search import query
from repro.workloads.search.corpus import FREQ_CAP, Corpus, posting_atoms, posting_tokens
from repro.workloads.search.index import PostingsList, build_index
from repro.workloads.search.measures import measure_index_build, measure_search_query
from repro.workloads.search.query import reference_search, run_queries


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


#: ``search:<name>`` cases: keywords of ``measure_search_query`` (1000
#: postings over 125 docs, 32 queries). Three-term ANDs hold several
#: cursors and short-circuit on the first miss; k=128 exceeds every
#: query's match count, so the top-k heap never evicts.
SEARCH_CASES = {
    "and": dict(mode="and"),
    "or": dict(mode="or"),
    "and3": dict(mode="and", terms_per_query=3),
    "or3": dict(mode="or", terms_per_query=3),
    "and@16": dict(mode="and", params=P16),
    "or@16": dict(mode="or", params=P16),
    "and-k128": dict(mode="and", k=128),
    "or-k128": dict(mode="or", k=128),
}


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
        cfg = dict(SEARCH_CASES[name])
        params = cfg.pop("params", P4)
        measure_search_query(1000, params, n_queries=32, **cfg, **kw)


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
    "search:and3": (2084, "1e85ce005a974794098f0890d97046b24138da79438876e746a3ecf85d3cb7b4"),
    "search:or3": (2331, "4d8c2eed9df9e13a555b86f7b6fbdd8495c43874bb54bf3d85e60da3aedc5bd6"),
    "search:and@16": (3006, "1cfe05ae2597cfdb4c6a5b4a74241625b68a3f1861e23ec8ce014a43f9c146f2"),
    "search:or@16": (3075, "a07417063d52b8be9054fabea84b3d763dc2c18bd74bdabd9114d5d4ba3458cd"),
    "search:and-k128": (2055, "b2996139d2ea137e506b8d17e09a2cba5e32e871af9c9fc072abdeabf5dde292"),
    "search:or-k128": (2124, "d0d25662fd75e3e461bc312e37ceff166a64c6008e46226b3e10aff8dc2347f7"),
}

#: (Qr, Qw, T, peak_mem) of each search case's query phase; the digests
#: above cannot see ``T``, and at k=128 the peak is the query's own.
SEARCH_TOTALS = {
    "and": (535, 0, 5001, 110),
    "or": (604, 0, 10069, 110),
    "and3": (564, 0, 4368, 110),
    "or3": (811, 0, 13996, 110),
    "and@16": (535, 0, 5001, 72),
    "or@16": (604, 0, 10069, 72),
    "and-k128": (535, 0, 5001, 119),
    "or-k128": (604, 0, 10069, 129),
}


def case_digest(case: str) -> tuple[int, str]:
    stream = IOStream()
    _run_case(case, [stream])
    return len(stream.events), stream.digest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_io_stream_digest_pinned(case):
    assert case_digest(case) == DIGESTS[case]


@pytest.mark.parametrize("counting", [False, True], ids=["full", "counting"])
@pytest.mark.parametrize("name", sorted(SEARCH_TOTALS))
def test_search_totals_pinned(name, counting):
    cfg = dict(SEARCH_CASES[name])
    params = cfg.pop("params", P4)
    rec = measure_search_query(
        1000, params, n_queries=32, seed=42, counting=counting, **cfg
    )
    assert (rec["Qr"], rec["Qw"], rec["T"], rec["peak_mem"]) == SEARCH_TOTALS[name]


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


# ----------------------------------------------------------------------
# The per-posting oracle.
# ----------------------------------------------------------------------
class _TermCursor:
    """Monotone skip-to-block cursor over one term's postings.

    Holds at most one skip block (B last-doc words) and one postings
    block (B packed keys) resident. ``advance(doc)`` walks the skip run
    forward to the first postings block that can contain ``doc``, swaps
    that block in, and bisects for the doc.
    """

    def __init__(self, machine: AEMMachine, plist: PostingsList, n_docs: int):
        self.machine = machine
        self.plist = plist
        self.n_docs = n_docs
        self._skip_idx = -1
        self._skip: list[int] = []
        self._blk_idx = -1
        self._keys: list[int] = []
        self.exhausted = not plist.addrs

    def _load_skip(self, idx: int) -> None:
        if self._skip:
            self.machine.release(len(self._skip))
        blk = self.machine.read(self.plist.skip_addrs[idx])
        self._skip = [token_of(w) for w in blk]
        self._skip_idx = idx

    def _load_block(self, idx: int) -> None:
        if self._keys:
            self.machine.release(len(self._keys))
        blk = self.machine.read(self.plist.addrs[idx])
        self.machine.touch(len(blk))  # key-extraction scan
        self._keys = [token_of(item)[0] for item in blk]
        self._blk_idx = idx

    def advance(self, doc: int):
        """Frequency of ``doc`` in this term, or ``None`` if absent."""
        if self.exhausted:
            return None
        B = self.machine.params.B
        if self._skip_idx < 0:
            self._load_skip(0)
        while self._skip[-1] < doc:
            self.machine.touch()
            if self._skip_idx + 1 >= len(self.plist.skip_addrs):
                self.exhausted = True
                return None
            self._load_skip(self._skip_idx + 1)
        self.machine.touch()
        blk_idx = self._skip_idx * B + bisect_left(self._skip, doc)
        if blk_idx > self._blk_idx or self._blk_idx < 0:
            self._load_block(blk_idx)
        lo = (self.plist.term * self.n_docs + doc) * FREQ_CAP
        self.machine.touch()
        pos = bisect_left(self._keys, lo)
        if pos < len(self._keys) and self._keys[pos] < lo + FREQ_CAP:
            return self._keys[pos] - lo
        return None

    def close(self) -> None:
        held = len(self._skip) + len(self._keys)
        if held:
            self.machine.release(held)


class _TopK:
    """A k-entry min-heap of ``(score, -doc)`` with per-entry slot accounting."""

    def __init__(self, machine: AEMMachine, k: int):
        self.machine = machine
        self.k = k
        self.heap: list[tuple[int, int]] = []

    def offer(self, doc: int, score: int) -> None:
        self.machine.touch()
        entry = (score, -doc)
        if len(self.heap) < self.k:
            self.machine.acquire(1, "top-k entry")
            heapq.heappush(self.heap, entry)
        elif entry > self.heap[0]:
            heapq.heapreplace(self.heap, entry)

    def close(self) -> list[tuple[int, int]]:
        out = [
            (-neg_doc, score)
            for score, neg_doc in sorted(self.heap, key=lambda e: (-e[0], -e[1]))
        ]
        if self.heap:
            self.machine.release(len(self.heap))
        return out


def _doc_of(key: int, n_docs: int) -> int:
    return (key // FREQ_CAP) % n_docs


def oracle_and(machine, plists, n_docs, k):
    plists = sorted(plists, key=lambda p: (p.df, p.term))
    driver, rest = plists[0], plists[1:]
    cursors = [_TermCursor(machine, p, n_docs) for p in rest]
    reader = BlockReader(machine, driver.addrs)
    topk = _TopK(machine, k)
    try:
        for item in reader:
            machine.release(1)  # taken key inspected, not kept
            key = token_of(item)[0]
            doc = _doc_of(key, n_docs)
            score = key % FREQ_CAP
            dead = False
            for cur in cursors:
                freq = cur.advance(doc)
                if cur.exhausted:
                    dead = True
                    break
                if freq is None:
                    score = -1
                    break
                score += freq
            if dead:
                break
            if score >= 0:
                topk.offer(doc, score)
    finally:
        reader.close()
        for cur in cursors:
            cur.close()
    return topk.close()


def oracle_or(machine, plists, n_docs, k):
    readers = [BlockReader(machine, p.addrs) for p in plists]
    topk = _TopK(machine, k)
    try:
        while True:
            best_doc = None
            for r in readers:
                machine.touch()
                head = r.peek()
                if head is None:
                    continue
                doc = _doc_of(token_of(head)[0], n_docs)
                if best_doc is None or doc < best_doc:
                    best_doc = doc
            if best_doc is None:
                break
            score = 0
            for r in readers:
                head = r.peek()
                if head is None:
                    continue
                key = token_of(head)[0]
                if _doc_of(key, n_docs) == best_doc:
                    score += key % FREQ_CAP
                    r.drop()
            topk.offer(best_doc, score)
    finally:
        for r in readers:
            r.close()
    return topk.close()


# ----------------------------------------------------------------------
# Kernels == oracle at the edges.
# ----------------------------------------------------------------------
@st.composite
def corpora(draw) -> Corpus:
    """Unique ``(term, doc)`` postings; some terms get none at all."""
    n_docs = draw(st.integers(1, 40))
    n_terms = draw(st.integers(1, 6))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n_terms - 1), st.integers(0, n_docs - 1)),
            min_size=1,
            max_size=120,
        )
    )
    freqs = draw(
        st.lists(
            st.integers(1, FREQ_CAP - 1), min_size=len(pairs), max_size=len(pairs)
        )
    )
    postings = tuple((t, d, f) for (t, d), f in zip(sorted(pairs), freqs))
    order = draw(st.permutations(postings))
    return Corpus(postings=tuple(order), n_docs=n_docs, n_terms=n_terms)


def _evaluate(params, corpus, queries, k, mode, counting, oracle):
    """Build, then query; returns everything the kernels must reproduce."""
    stream = IOStream()
    machine = AEMMachine.for_algorithm(
        params, observers=[stream], counting=counting, enforce_capacity=False
    )
    items = posting_tokens(corpus) if counting else posting_atoms(corpus)
    index = build_index(
        machine,
        machine.load_input(items),
        params,
        n_docs=corpus.n_docs,
        n_terms=corpus.n_terms,
    )
    # The build's peak hides the query's on most corpora: measure the
    # query's own high-water mark.
    machine.mem.peak = machine.mem.occupancy
    if oracle:
        with mock.patch.object(query, "_query_and", oracle_and), mock.patch.object(
            query, "_query_or", oracle_or
        ):
            results = run_queries(machine, index, queries, params, k=k, mode=mode)
    else:
        results = run_queries(machine, index, queries, params, k=k, mode=mode)
    phases = {
        name: (snap.reads, snap.writes, snap.touches)
        for name, snap in machine.counter.phases.items()
    }
    snap = machine.snapshot()
    return (
        results,
        stream.events,
        phases,
        (snap.reads, snap.writes, snap.touches),
        machine.mem.peak,
        machine.mem.occupancy,
    )


def assert_kernels_match(params, corpus, queries, k, mode) -> None:
    expect = reference_search(corpus, queries, k=k, mode=mode)
    for counting in (False, True):
        oracle = _evaluate(params, corpus, queries, k, mode, counting, True)
        assert oracle[0] == expect
        assert _evaluate(params, corpus, queries, k, mode, counting, False) == oracle


@settings(PROPS, max_examples=300)
@given(params=edge_params(), corpus=corpora(), data=st.data())
def test_query_kernels_match_per_posting_oracle(params, corpus, data):
    # Term ids past n_terms are never in the lexicon; k is 1, 2 or above
    # any query's match count (the heap never evicts).
    terms = st.lists(st.integers(0, corpus.n_terms + 1), min_size=1, max_size=4, unique=True)
    queries = data.draw(st.lists(terms.map(tuple), min_size=1, max_size=6))
    k = data.draw(st.sampled_from([1, 2, corpus.n_docs + 1]))
    mode = data.draw(st.sampled_from(["and", "or"]))
    assert_kernels_match(params, corpus, queries, k, mode)


@pytest.mark.parametrize("k", [1, 8])
def test_and_kernel_stops_when_a_probed_term_runs_out(k):
    # Term 0 (df 4) drives; term 1 ends at doc 4, so the driver's doc 6
    # walks term 1's skip run off its end and the query stops with the
    # rest of the driver block unread. Doc 1 misses in term 2 first.
    postings = (
        [(0, d, 1) for d in (1, 6, 7, 8)]
        + [(1, d, 2) for d in range(5)]
        + [(2, d, 3) for d in range(2, 8)]
    )
    corpus = Corpus(postings=tuple(postings), n_docs=9, n_terms=4)
    queries = [(0, 1), (0, 1, 2), (2, 0, 1), (0,), (0, 3), (0, 5)]
    assert_kernels_match(AEMParams(M=4, B=2, omega=3), corpus, queries, k, "and")


def test_and_kernel_peak_after_a_probe_read():
    # Driver doc 1's probe reads term 1's skip and postings blocks, and its
    # top-k entry lands right after that read with no release between:
    # the peak is one above the read's occupancy. An entry batched behind
    # the later drivers' releases would never reach it.
    postings = [(0, d, d % 3 + 1) for d in range(1, 7)] + [(1, d, 2) for d in range(7)]
    corpus = Corpus(postings=tuple(postings), n_docs=7, n_terms=2)
    assert_kernels_match(AEMParams(M=16, B=8, omega=2), corpus, [(1, 0)], 2, "and")


if __name__ == "__main__":
    for case in DIGESTS:
        print(f"    {case!r}: {case_digest(case)!r},")
