"""Classic symmetric-EM mergesort (Aggarwal & Vitter), run on the AEM.

The baseline for experiment E5: run formation by memoryloads (runs of M),
then repeated ``(m-1)``-way merging with one block of each run resident.
In the symmetric model this is the optimal ``Theta(n log_m n)`` I/Os; in
the AEM it pays ``omega`` on every write, costing
``O((1 + omega) * n * log_m n)`` — the log base is ``m``, not ``omega*m``,
which is exactly the advantage the Section 3 algorithm buys.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.phantom import token_of
from ..machine.streams import BlockReader, BlockWriter
from .runs import Run, run_of_input


def _form_runs(machine: AEMMachine, run: Run, params: AEMParams) -> list[Run]:
    """Memoryload run formation: sorted runs of up to M atoms each."""
    runs: list[Run] = []
    reader = BlockReader(machine, run.addrs)
    with machine.phase("em_sort/run-formation"):
        while not reader.exhausted():
            batch: list = []
            while len(batch) < params.M and not reader.exhausted():
                batch.append(reader.take())
            batch.sort()
            machine.touch(len(batch))
            writer = BlockWriter(machine)
            writer.extend(batch)
            runs.append(Run.of(writer.close(), len(batch)))
    return runs


def _stream_merge(
    machine: AEMMachine, runs: Sequence[Run], params: AEMParams
) -> Run:
    """Merge up to ``m - 1`` runs keeping one block per run resident."""
    readers = [BlockReader(machine, r.addrs) for r in runs]
    writer = BlockWriter(machine)
    heap: list = []
    for idx, reader in enumerate(readers):
        atom = reader.peek()
        if atom is not None:
            heap.append((token_of(atom), idx))
    heapq.heapify(heap)
    total = 0
    while heap:
        _, idx = heapq.heappop(heap)
        atom = readers[idx].take()
        machine.touch()
        writer.push(atom)
        total += 1
        nxt = readers[idx].peek()
        if nxt is not None:
            heapq.heappush(heap, (token_of(nxt), idx))
    for reader in readers:
        reader.close()
    return Run.of(writer.close(), total)


def em_mergesort(
    machine: AEMMachine, addrs: Sequence[int], params: AEMParams
) -> list[int]:
    """Aggarwal–Vitter mergesort: ``O((1+omega) * n * log_m n)`` on the AEM."""
    run = run_of_input(machine, addrs)
    runs = _form_runs(machine, run, params)
    fan = max(2, params.m - 1)
    with machine.phase("em_sort/merge"):
        while len(runs) > 1:
            merged: list[Run] = []
            for i in range(0, len(runs), fan):
                group = runs[i : i + fan]
                if len(group) == 1:
                    merged.append(group[0])
                else:
                    merged.append(_stream_merge(machine, group, params))
            runs = merged
    if not runs:
        return []
    return list(runs[0].addrs)
