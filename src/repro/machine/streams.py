"""Sequential block streams over an :class:`~repro.machine.aem.AEMMachine`.

Nearly every external-memory algorithm is built from two motifs:

* *scanning* a run of blocks, consuming the atoms in order, and
* *emitting* a stream of atoms into freshly written blocks.

:class:`BlockReader` and :class:`BlockWriter` implement these motifs with
honest cost and capacity accounting, so the algorithms read like their
pseudo-code. A reader holds at most one block (``B`` atoms) resident; a
writer buffers at most one block before flushing. Both therefore add only
``O(B)`` to an algorithm's internal footprint.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .aem import AEMMachine
from .phantom import PhantomBlock


class BlockReader:
    """Consume the atoms stored in a sequence of blocks, one block resident.

    The reader ``read``-s a block (acquiring its atoms) and hands them out
    via :meth:`take` / :meth:`peek` / iteration. A taken atom *stays
    resident*: its slot transfers to the caller, who releases it either by
    writing it out (``machine.write`` / ``BlockWriter.push`` + flush) or by
    discarding it (``machine.release(1)`` / :meth:`drop`). This keeps the
    ledger exact across the ubiquitous read-transform-write pipelines.
    """

    def __init__(self, machine: AEMMachine, addrs: Sequence[int]):
        self.machine = machine
        self.addrs = list(addrs)
        self._next_block = 0
        self._buf: list = []
        self._pos = 0

    def _fill(self) -> bool:
        """Load the next non-empty block; False when the run is exhausted."""
        while self._pos >= len(self._buf):
            if self._buf:
                # Release atoms of the exhausted block that were never taken
                # (all were taken: _pos >= len) — nothing held; reset buffer.
                self._buf = []
                self._pos = 0
            if self._next_block >= len(self.addrs):
                return False
            addr = self.addrs[self._next_block]
            self._next_block += 1
            # read() acquires the block's atoms; they remain counted until a
            # caller takes (and later releases/writes) them or close() runs.
            self._buf = self.machine.read(addr)
            self._pos = 0
        return True

    def exhausted(self) -> bool:
        return self._pos >= len(self._buf) and self._next_block >= len(self.addrs)

    def peek(self):
        """The next atom without consuming it, or None when exhausted."""
        if not self._fill():
            return None
        return self._buf[self._pos]

    def take(self):
        """Consume and return the next atom; its slot transfers to the caller.

        Raises StopIteration when the run is exhausted.
        """
        if not self._fill():
            raise StopIteration("block run exhausted")
        item = self._buf[self._pos]
        self._pos += 1
        return item

    def drop(self):
        """Consume the next atom and immediately release its slot."""
        item = self.take()
        self.machine.release(1)
        return item

    def __iter__(self) -> Iterator:
        while True:
            if not self._fill():
                return
            yield self.take()

    def close(self) -> None:
        """Release any atoms still staged in the current block."""
        remaining = len(self._buf) - self._pos
        if remaining > 0:
            self.machine.release(remaining)
        self._buf = []
        self._pos = 0
        self._next_block = len(self.addrs)


class BlockWriter:
    """Buffer atoms and flush full blocks to freshly allocated addresses.

    ``push`` takes ownership of an atom that the caller already holds in
    internal memory (no extra acquire: the slot simply transfers). ``flush``
    writes the buffer out, releasing the slots. The writer's buffer is part
    of the algorithm's internal footprint; it never exceeds ``B`` atoms.
    """

    def __init__(self, machine: AEMMachine, addrs: Optional[Iterable[int]] = None):
        self.machine = machine
        self._B = machine.params.B
        self._buf: list = []
        self._preallocated: list[int] = list(addrs) if addrs is not None else []
        self._prealloc_pos = 0
        self.addrs: list[int] = []
        self.count = 0

    def _next_addr(self) -> int:
        if self._prealloc_pos < len(self._preallocated):
            addr = self._preallocated[self._prealloc_pos]
            self._prealloc_pos += 1
            return addr
        return self.machine.allocate_one()

    def push(self, item) -> None:
        """Append one atom (already resident) to the output stream."""
        self._buf.append(item)
        self.count += 1
        if len(self._buf) == self._B:
            self._flush_block()

    def push_new(self, item) -> None:
        """Append an atom created in internal memory (acquires its slot)."""
        self.machine.acquire(1)
        self.push(item)

    def extend(self, items: Iterable) -> None:
        """Append atoms (already resident) in order, a block at a time.

        Writes happen at exactly the points the per-item :meth:`push` loop
        would flush: topping up the pending partial block, then every
        whole block of ``items`` as one chunk, then the remainder stays
        buffered. Only ``list``/``tuple``/phantom payloads take the chunked
        path; any other iterable is pushed item by item, because it may
        do machine work of its own between items (a ``BlockReader``
        reads lazily).
        """
        cls = items.__class__
        if cls is not list and cls is not tuple and cls is not PhantomBlock:
            for it in items:
                self.push(it)
            return
        n = len(items)
        self.count += n
        B = self._B
        pos = B - len(self._buf)  # atoms that complete the pending block
        if n < pos:
            self._buf.extend(items)
            return
        if self._buf:
            self._buf.extend(items[:pos])
            self._flush_block()
        else:
            pos = 0
        while n - pos >= B:
            self._write(items[pos : pos + B])
            pos += B
        if pos < n:
            self._buf = list(items[pos:])

    def _write(self, chunk) -> None:
        addr = self._next_addr()
        self.machine.write(addr, chunk)
        self.addrs.append(addr)

    def _flush_block(self) -> None:
        self._write(self._buf)
        self._buf = []

    def close(self) -> list[int]:
        """Flush any partial final block; returns all written addresses."""
        if self._buf:
            self._flush_block()
        return self.addrs

    @property
    def buffered(self) -> int:
        return len(self._buf)


def scan_copy(machine: AEMMachine, addrs: Sequence[int]) -> list[int]:
    """Copy a run of blocks (one read + one write each); returns new run.

    The canonical "read and write scan over the input" used e.g. to
    normalize programs in Lemma 4.3, with cost ``n`` reads + ``n`` writes.
    """
    # Block kernel with the event stream of the per-atom reader/writer
    # loop: that loop reads each input block exactly when its buffer runs
    # dry, and the writer's extend flushes wherever per-item pushes would.
    writer = BlockWriter(machine)
    for addr in addrs:
        writer.extend(machine.read(addr))
    return writer.close()
