"""Permuting by sorting on destination index.

The second branch of the permutation upper bound: relabel each atom with
its destination position as the sort key, sort with the Section 3
mergesort, and strip the relabeling — cost ``O(omega*n*log_{omega m} n)``
(the two relabeling scans add ``O((1+omega)n)``).

Atom identities (uids) are preserved through the relabeling, so the
trace-level machinery (usefulness analysis, flash reduction) sees one
unbroken chain of copies per atom, and the output consists of exactly the
input atoms.
"""

from __future__ import annotations

from typing import Sequence

from ..atoms.atom import Atom
from ..atoms.permutation import Permutation
from ..core.params import AEMParams
from ..machine.aem import AEMMachine
from ..machine.streams import BlockWriter, scan_copy
from ..sorting.mergesort import aem_mergesort


def permute_sort_based(
    machine: AEMMachine,
    addrs: Sequence[int],
    perm: Permutation,
    params: AEMParams,
) -> list[int]:
    """Permute by sorting; returns the output block addresses.

    Cost ``O(omega * n * log_{omega m} n)``.
    """
    counting = machine.counting
    dest = perm.as_array()
    # Relabel: key becomes the destination position; the original key
    # travels in the value slot. In counting mode atoms are their
    # ``(key, uid)`` tokens, so relabeling is token surgery — the sort
    # downstream steers on the same destination keys either way. Both
    # passes are block kernels: one read, then one writer extend (the
    # reader/writer loop's exact schedule, see scan_copy).
    with machine.phase("permute_sort/relabel"):
        writer = BlockWriter(machine)
        pos = 0
        for addr in addrs:
            blk = machine.read(addr)
            keys = dest[pos : pos + len(blk)].tolist()
            pos += len(blk)
            if counting:
                writer.extend([(key, tok[1]) for key, tok in zip(keys, blk)])
            else:
                writer.extend(
                    [
                        Atom(key, atom.uid, (atom.key, atom.value))
                        for key, atom in zip(keys, blk)
                    ]
                )
        tagged = writer.close()

    sorted_addrs = aem_mergesort(machine, tagged, params)

    # Strip: restore the original key, now in destination order. A token
    # carries no original key to restore; the pass's costs are content-free
    # and nothing reads the final payloads in counting mode, so the tokens
    # pass through unchanged.
    with machine.phase("permute_sort/strip"):
        if counting:
            return scan_copy(machine, sorted_addrs)
        writer = BlockWriter(machine)
        for addr in sorted_addrs:
            writer.extend(
                [
                    Atom(atom.value[0], atom.uid, atom.value[1])
                    for atom in machine.read(addr)
                ]
            )
        return writer.close()
