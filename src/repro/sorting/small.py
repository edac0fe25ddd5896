"""The small-array base case: sort N' <= omega*M atoms cheaply.

Section 3 bottoms out its recursion with the algorithm of Blelloch et al.
[7, Lemma 4.2]: an array of ``N' <= omega*M`` elements can be sorted with
``O(omega * n')`` read I/Os but only ``O(n')`` write I/Os (total cost
``O(omega * n')``), i.e. writing each element only once while re-reading
the input up to ``omega`` times.

The implementation is multi-pass selection: the input fits in at most
``ceil(N'/M) <= omega`` memoryloads, and pass ``t`` scans the entire input
(``n'`` reads), keeps the M smallest atoms greater than the previous pass's
threshold in an internal buffer, and appends them to the output
(``~M/B`` writes). Totals: ``ceil(N'/M) * n' <= omega * n'`` reads and
``n' (+1)`` writes — exactly the lemma's budget.

The strict ``(key, uid)`` order makes thresholds unambiguous even with
duplicate keys.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import chain
from typing import Optional

from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
from ..machine.streams import BlockWriter
from .runs import Run, run_of_input


def small_sort(
    machine: AEMMachine,
    run: Run,
    params: AEMParams,
    *,
    writer: Optional[BlockWriter] = None,
) -> Run:
    """Sort a run of at most ``omega * M`` atoms (Blelloch et al. Lemma 4.2).

    Parameters
    ----------
    machine:
        The AEM machine (its physical capacity should exceed ``params.M``
        by a small constant factor to hold the buffer plus one staging
        block; see :meth:`AEMMachine.for_algorithm`).
    run:
        The input run (need not be sorted).
    params:
        Logical model parameters; the selection buffer holds ``params.M``
        atoms.
    writer:
        Optional output writer to append to (used when a caller chains
        base-case outputs); a fresh contiguous run is written otherwise.

    Returns the sorted output run.
    """
    N = run.length
    if N > params.base_case_size():
        raise ValueError(
            f"small_sort handles at most omega*M = {params.base_case_size()} atoms, "
            f"got {N}"
        )
    own_writer = writer is None
    out = writer or BlockWriter(machine)
    if N == 0:
        return Run.of(out.close() if own_writer else [], 0)

    M = params.M
    if machine.counting:
        _small_sort_tokens(machine, run, M, out)
        return Run.of(out.close() if own_writer else (), N)
    threshold = None  # (key, uid) of the last atom emitted so far
    emitted = 0
    while emitted < N:
        # One selection pass: keep the M smallest atoms above the threshold.
        buffer: list = []  # sorted ascending by (key, uid); <= M atoms
        with machine.phase("small_sort/scan"):
            for addr in run.addrs:
                blk = machine.read(addr)
                kept = 0
                for atom in blk:
                    machine.touch()
                    if threshold is not None and atom.sort_token() <= threshold:
                        continue
                    if len(buffer) < M:
                        insort(buffer, atom)
                        kept += 1
                    elif atom < buffer[-1]:
                        # Replace the current largest candidate.
                        evicted = buffer.pop()
                        insort(buffer, atom)
                        machine.release([evicted])
                        kept += 1
                    # else: atom cannot be among this pass's M smallest.
                machine.release(len(blk) - kept)
        with machine.phase("small_sort/emit"):
            out.extend(buffer)
            emitted += len(buffer)
            threshold = token_of(buffer[-1])
    if own_writer:
        addrs = out.close()
        return Run.of(addrs, N)
    return Run.of((), N)


def _small_sort_tokens(
    machine: AEMMachine, run: Run, M: int, out: BlockWriter
) -> None:
    """The counting-mode block kernel of :func:`small_sort`.

    Every pass reads every block exactly as the per-atom loop does, but
    the selection is computed, not simulated. Each block's tokens are
    sorted once, on the first pass; all of them, merged, give the one
    sorted token list the passes emit consecutive slices of. Within a
    pass the buffer holds the M smallest tokens above the threshold seen
    so far, so its length after each block is ``min(M, held + accepted)``
    with ``accepted`` the block's tokens above the threshold (a bisect).
    The per-atom touches and releases of a block are batched into one
    event each, with identical totals (releases = block length + old
    length - new length), and land before the next read, so the ledger
    occupancy at every transfer is the per-atom loop's.
    """
    blocks: list[list] = []  # each block's tokens, sorted
    ordered: list = []  # every token of the run, sorted
    threshold = None  # the last token emitted so far
    emitted = 0
    N = run.length
    while emitted < N:
        held = 0  # the pass's buffer length
        with machine.phase("small_sort/scan"):
            if threshold is None:
                for addr in run.addrs:
                    blk = sorted(machine.read(addr))
                    blocks.append(blk)
                    k = len(blk)
                    machine.touch(k)
                    new = min(M, held + k)
                    if k + held - new:
                        machine.release(k + held - new)
                    held = new
                ordered = sorted(chain.from_iterable(blocks))
            else:
                for addr, blk in zip(run.addrs, blocks):
                    machine.read(addr)
                    k = len(blk)
                    machine.touch(k)
                    new = min(M, held + k - bisect_right(blk, threshold))
                    if k + held - new:
                        machine.release(k + held - new)
                    held = new
        with machine.phase("small_sort/emit"):
            out.extend(ordered[emitted : emitted + held])
            emitted += held
            threshold = ordered[emitted - 1]


def small_sort_addrs(
    machine: AEMMachine, addrs, params: AEMParams
) -> list[int]:
    """Convenience wrapper taking and returning raw block addresses."""
    result = small_sort(machine, run_of_input(machine, addrs), params)
    return list(result.addrs)
