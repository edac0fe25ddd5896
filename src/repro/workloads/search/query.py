"""DAAT top-k query serving over the blocked index.

Document-at-a-time evaluation with skip-to-block:

* **Conjunctive** (``mode="and"``): the rarest term (smallest df) drives;
  its postings are streamed block by block, and every candidate doc is
  probed in the other terms through a monotone cursor that holds one
  skip block and one postings block resident — each skip/postings block
  of a term is read at most once per query.
* **Disjunctive** (``mode="or"``): a doc-ordered multiway merge over all
  terms' postings streams, summing the frequencies of equal-doc heads.

Both are block kernels (see "Block kernels" in ``docs/model.md``): a
block's keys are taken once, and the per-posting bookkeeping of the
document-at-a-time loop — its ``touch``-es, the release of each
inspected posting and the acquire of each top-k entry — is kept in plain
counters and settled by :func:`_settle` just before the next transfer
and at the end of the query. Reads, their order and the occupancy at
each of them are exactly the per-posting loop's.

Scores are frequency sums decoded from the packed keys, so ranking works
on scheduling tokens and the *results* — not just the costs — are
bit-identical between full and counting machines. The query path issues
no writes at all: serving is the read-heavy half of the asymmetry story,
and its cost is ``omega``-invariant by construction (experiment e19
asserts both).

Result delivery is cost-free (like
:meth:`~repro.machine.aem.AEMMachine.collect_output`): the engine hands
the top-k to the caller rather than writing it back to the store.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Sequence

from ...core.params import AEMParams
from ...machine.aem import AEMMachine
from ...machine.phantom import freeze_tokens
from .corpus import FREQ_CAP, Corpus
from .index import PostingsList, SearchIndex, reference_index


def _keys_of(blk, counting: bool) -> list[int]:
    """The packed keys of a postings block (its tokens' first fields)."""
    return [tok[0] for tok in (blk if counting else freeze_tokens(blk))]


def _settle(machine: AEMMachine, touches: int, released: int, acquired: int) -> None:
    """Land the bookkeeping batched since the last transfer.

    Releases come first and ``acquired <= released``: every batched
    top-k entry is offered after its own posting was let go in the same
    window, so the occupancy never rises past its value at the last
    transfer, just as in the per-posting loop — the peak cannot move.
    """
    if touches:
        machine.touch(touches)
    if released:
        machine.release(released)
    if acquired:
        machine.acquire(acquired, "top-k entry")


def _offer(heap: list[tuple[int, int]], k: int, entry: tuple[int, int]) -> int:
    """Offer ``(score, -doc)`` to a k-entry min-heap; 1 if it took a new slot."""
    if len(heap) < k:
        heapq.heappush(heap, entry)
        return 1
    if entry > heap[0]:
        heapq.heapreplace(heap, entry)
    return 0


def _ranked(heap: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A top-k heap of ``(score, -doc)`` as ``[(doc, score)]``, best first."""
    return [(-neg_doc, score) for score, neg_doc in sorted(heap, reverse=True)]


class _Cursor:
    """Resident state of one probed term: a skip block, a postings block."""

    __slots__ = ("plist", "base", "skip_idx", "skip", "keys", "last")

    def __init__(self, plist: PostingsList, n_docs: int):
        self.plist = plist
        self.base = plist.term * n_docs  # key // FREQ_CAP - base == doc
        self.skip_idx = -1  # index of the resident skip block
        self.skip: Sequence[int] = ()
        self.keys: list[int] = []  # keys of the resident postings block
        self.last = -1  # last doc of the resident postings block


def _query_and(
    machine: AEMMachine,
    plists: list[PostingsList],
    n_docs: int,
    k: int,
) -> list[tuple[int, int]]:
    """Conjunctive DAAT: rarest term drives, others are probed via skips.

    Per driver posting and probed term the per-posting loop charges one
    touch per skip-run step, two per probe (a bisect into the skip block,
    one into the postings block) and ``len(blk)`` per postings load. A
    doc at or below the resident postings block's last doc needs neither
    a skip step nor a load, so it costs the two probe touches and one
    bisect.
    """
    B = machine.params.B
    counting = machine.counting
    read = machine.read
    plists = sorted(plists, key=lambda p: (p.df, p.term))
    cursors = [_Cursor(p, n_docs) for p in plists[1:]]
    heap: list[tuple[int, int]] = []
    touches = released = acquired = 0
    dead = False  # a probed term has no postings left: no later doc matches
    read_for = -1  # the last driver doc whose probes read a block
    for addr in plists[0].addrs:
        _settle(machine, touches, released, acquired)
        touches = released = acquired = 0
        keys = _keys_of(read(addr), counting)
        for i, key in enumerate(keys):
            released += 1  # the driver posting is inspected, not kept
            doc = (key // FREQ_CAP) % n_docs
            score = key % FREQ_CAP
            for cur in cursors:
                if doc > cur.last:
                    # Walk the skip run to the first postings block that
                    # can hold doc, and load that block.
                    skip = cur.skip
                    skip_addrs = cur.plist.skip_addrs
                    if cur.skip_idx < 0:
                        _settle(machine, touches, released, acquired)
                        touches = released = acquired = 0
                        skip = cur.skip = read(skip_addrs[0])
                        cur.skip_idx = 0
                    while skip[-1] < doc:
                        touches += 1
                        if cur.skip_idx + 1 >= len(skip_addrs):
                            dead = True
                            break
                        _settle(machine, touches, released + len(skip), acquired)
                        touches = released = acquired = 0
                        cur.skip_idx += 1
                        skip = cur.skip = read(skip_addrs[cur.skip_idx])
                    if dead:
                        break
                    j = bisect_left(skip, doc)
                    _settle(machine, touches + 1, released + len(cur.keys), acquired)
                    touches = released = acquired = 0
                    blk = read(cur.plist.addrs[cur.skip_idx * B + j])
                    read_for = doc
                    touches += len(blk) + 1  # key extraction, then the probe
                    cur.keys = _keys_of(blk, counting)
                    cur.last = skip[j]
                else:
                    touches += 2
                # doc <= cur.last, so the block's last key bounds the
                # bisect: pos is always inside the block.
                lo = (cur.base + doc) * FREQ_CAP
                ckeys = cur.keys
                pos = bisect_left(ckeys, lo)
                if ckeys[pos] < lo + FREQ_CAP:
                    score += ckeys[pos] - lo
                else:
                    break
            else:
                touches += 1
                if _offer(heap, k, (score, -doc)):
                    if read_for == doc:
                        # No release of ours lies between that read and
                        # this entry: batching it behind the next window's
                        # releases could hide a peak.
                        machine.acquire(1, "top-k entry")
                    else:
                        acquired += 1
            if dead:
                released += len(keys) - i - 1  # the rest of the block
                break
        if dead:
            break
    held = sum(len(cur.skip) + len(cur.keys) for cur in cursors)
    _settle(machine, touches, released + held, acquired)
    if heap:
        machine.release(len(heap))
    return _ranked(heap)


def _query_or(
    machine: AEMMachine,
    plists: list[PostingsList],
    n_docs: int,
    k: int,
) -> list[tuple[int, int]]:
    """Disjunctive DAAT: doc-ordered merge of all streams, summing freqs.

    A segment merge. Each DAAT iteration touches every stream once and
    refills, in stream order, those whose block is used up; the top-k
    offer touches once more. Between refills, every doc up to ``limit``
    — the smallest last doc among the resident blocks — is resolved with
    a bisect per stream and a dict sum, because no block runs out before
    its last doc is taken.
    """
    counting = machine.counting
    read = machine.read
    n = len(plists)
    bases = [p.term * n_docs for p in plists]
    nxt = [0] * n  # next block of each stream
    keys: list[list[int]] = [[] for _ in plists]  # resident block keys
    pos = [0] * n  # first untaken key of each resident block
    heap: list[tuple[int, int]] = []
    touches = released = acquired = 0
    while True:
        # The iteration's head pass: stream j is refilled after the
        # touches of streams 0..j, exactly where its peek would read.
        charged = 0
        for j, plist in enumerate(plists):
            if pos[j] == len(keys[j]) and nxt[j] < len(plist.addrs):
                touches += j + 1 - charged
                charged = j + 1
                _settle(machine, touches, released, acquired)
                touches = released = acquired = 0
                keys[j] = _keys_of(read(plist.addrs[nxt[j]]), counting)
                nxt[j] += 1
                pos[j] = 0
        touches += n - charged
        live = [j for j in range(n) if pos[j] < len(keys[j])]
        if not live:
            break
        limit = min(keys[j][-1] // FREQ_CAP - bases[j] for j in live)
        scores: dict[int, int] = {}
        for j in live:
            base = bases[j]
            end = bisect_left(keys[j], (base + limit + 1) * FREQ_CAP, pos[j])
            for key in keys[j][pos[j] : end]:
                doc = key // FREQ_CAP - base
                scores[doc] = scores.get(doc, 0) + key % FREQ_CAP
            released += end - pos[j]
            pos[j] = end
        # Each resolved doc costs a head pass and an offer; the first
        # doc's head pass is the one charged above.
        touches += len(scores) * (n + 1) - n
        for doc, score in scores.items():
            acquired += _offer(heap, k, (score, -doc))
    _settle(machine, touches, released, acquired)
    if heap:
        machine.release(len(heap))
    return _ranked(heap)


def run_queries(
    machine: AEMMachine,
    index: SearchIndex,
    queries: Sequence[tuple[int, ...]],
    params: AEMParams,
    *,
    k: int = 8,
    mode: str = "and",
) -> list[list[tuple[int, int]]]:
    """Evaluate ``queries`` against ``index``; one top-k list per query.

    Each query is a tuple of term ids. Phases: ``query/lookup`` (one peek
    per distinct lexicon block of the query's present terms) and
    ``query/match`` (the DAAT evaluation proper). The path performs reads
    only — the cost delta it produces has ``Qw == 0``.
    """
    if mode not in ("and", "or"):
        raise ValueError(f"unknown query mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    results: list[list[tuple[int, int]]] = []
    for terms in queries:
        with machine.phase("query/lookup"):
            present = [t for t in terms if t in index.lexicon]
            # One read per distinct lexicon block: the term -> df lookup a
            # real engine performs before planning the evaluation.
            for addr in sorted({index.lex_block_of[t] for t in present}):
                machine.peek(addr)
        with machine.phase("query/match"):
            plists = [index.lexicon[t] for t in present]
            if not plists or (mode == "and" and len(present) < len(terms)):
                results.append([])
            elif mode == "and":
                results.append(_query_and(machine, plists, index.n_docs, k))
            else:
                results.append(_query_or(machine, plists, index.n_docs, k))
    return results


def reference_search(
    corpus: Corpus,
    queries: Sequence[tuple[int, ...]],
    *,
    k: int = 8,
    mode: str = "and",
) -> list[list[tuple[int, int]]]:
    """Plain-Python reference evaluation (the referee's answer key).

    Reads only the corpus: each term's ``{doc: freq}`` map is built once
    per call and shared by the queries that name the term.
    """
    ref = reference_index(corpus)
    freqs: dict[int, dict[int, int]] = {}
    out: list[list[tuple[int, int]]] = []
    for terms in queries:
        scores: dict[int, int] = {}
        if mode == "and":
            if all(t in ref for t in terms):
                maps = []
                for t in terms:
                    m = freqs.get(t)
                    if m is None:
                        m = freqs[t] = dict(ref[t])
                    maps.append(m)
                for doc in min(maps, key=len):
                    total = 0
                    for m in maps:
                        freq = m.get(doc)
                        if freq is None:
                            break
                        total += freq
                    else:
                        scores[doc] = total
        else:
            for t in terms:
                for doc, freq in ref.get(t, ()):
                    scores[doc] = scores.get(doc, 0) + freq
        out.append(heapq.nsmallest(k, scores.items(), key=lambda e: (-e[1], e[0])))
    return out
