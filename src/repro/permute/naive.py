"""Direct permuting: gather each output block element by element.

The first branch of the permutation upper bound ``min{N + omega*n,
omega*n*log_{omega m} n}``: for each of the ``n`` output blocks, read the
(at most B) source blocks holding its atoms and write the assembled block
once — at most ``N`` reads and ``n`` writes, cost ``O(N + omega*n)``.

Consecutive gathers of atoms from the same source block are served from a
one-block cache, so inputs with locality (e.g. the identity or a cyclic
shift) cost far less than N reads; the adversarial bound is ``N``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..atoms.permutation import Permutation
from ..core.params import AEMParams
from ..machine.aem import AEMMachine


def permute_naive(
    machine: AEMMachine,
    addrs: Sequence[int],
    perm: Permutation,
    params: AEMParams,
) -> list[int]:
    """Permute the atoms at ``addrs`` so that input position ``i`` lands at
    output position ``perm[i]``; returns the output block addresses.

    Cost at most ``N`` reads + ``n`` writes = ``O(N + omega*n)``.
    """
    B = params.B
    N = len(perm)
    out_addrs = machine.allocate((N + B - 1) // B) if N else []

    # Output position -> (input block index, offset) of its source atom,
    # for all positions at once. Input blocks are full except possibly
    # the last, as laid out by load_input.
    src_block, src_off = np.divmod(perm.inverse().as_array(), B)

    cached_idx = -1
    cached_blk: list = []
    with machine.phase("permute_naive/gather"):
        for t, out_addr in enumerate(out_addrs):
            lo, hi = t * B, min((t + 1) * B, N)
            assembled: list = []
            machine.acquire(hi - lo, "output block under assembly")
            for bidx, off in zip(
                src_block[lo:hi].tolist(), src_off[lo:hi].tolist()
            ):
                if bidx != cached_idx:
                    if cached_idx >= 0:
                        machine.release(len(cached_blk))
                    cached_blk = machine.read(addrs[bidx])
                    cached_idx = bidx
                assembled.append(cached_blk[off])
            # One touch per gathered atom, batched per output block.
            machine.touch(hi - lo)
            # The assembled atoms were acquired above; the cached block's
            # atoms are separate copies still held by the cache.
            machine.write(out_addr, assembled)
        if cached_idx >= 0:
            machine.release(len(cached_blk))
    return list(out_addrs)
