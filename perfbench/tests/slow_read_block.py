"""Fault injection: a slower ``MachineCore.read_block``.

Run inside a measured process (``--patch``) before any work. The extra
work is compiled under ``machine/core.py``'s file name, so a profiler
sees it where a real regression in that function would appear: in the
``machine.core`` layer. Costs are untouched; only host time grows.
"""

from repro.machine import core

#: Loop iterations added to every block read (a few microseconds each).
SPIN = 300

_SOURCE = """
def read_block(self, addr, cost, *, keep=True, items=None):
    for _ in _SPIN:
        pass
    return _original(self, addr, cost, keep=keep, items=items)
"""

_namespace = {"_original": core.MachineCore.read_block, "_SPIN": range(SPIN)}
exec(compile(_SOURCE, core.__file__, "exec"), _namespace)
core.MachineCore.read_block = _namespace["read_block"]
