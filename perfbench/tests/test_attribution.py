"""The benchmark sees an injected slowdown end to end and names its layer.

A delay injected into ``MachineCore.read_block`` (see
``slow_read_block.py``; ``src/`` is untouched) must

* raise ``build_s`` on ``sweep_counting``, with the traced run charging
  the rise to ``machine.core``;
* leave ``serve_zipf``'s warm phase alone: no machine work happens there,
  so the delay is not charged to it.

Run with ``python3 -m pytest perfbench/tests`` from the repository root
(about three minutes; the workloads run at reduced size).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as bench  # noqa: E402

SLOW = str(HERE / "slow_read_block.py")
def test_counting_sweep_slowdown_is_attributed_to_machine_core():
    kwargs = dict(seed=3, seconds=0, trace=True, scale=0.25)
    base = bench.measure("sweep_counting", **kwargs)
    slow = bench.measure("sweep_counting", patch=SLOW, **kwargs)
    for result in (base, slow):
        assert result["raw"]["failures"] == []
    # Same model work and the same facade calls: only host time moved.
    assert slow["exact"] == base["exact"]
    assert slow["e2e"]["build_s"] > 1.2 * base["e2e"]["build_s"]

    # Host speed drifts between runs and scales every layer alike, so
    # compare growth factors: machine.core must grow far more than the
    # typical layer, and by more seconds than any other layer.
    growth = {}
    deltas = {}
    for name in base["layer"]:
        if name.endswith(".self_s") and base["layer"][name] > 0.05:
            layer = name[: -len(".self_s")]
            growth[layer] = slow["layer"][name] / base["layer"][name]
            deltas[layer] = slow["layer"][name] - base["layer"][name]
    others = sorted(v for k, v in growth.items() if k != "machine.core")
    typical = others[len(others) // 2]
    assert growth["machine.core"] > 1.5 * typical, growth
    assert max(deltas, key=deltas.get) == "machine.core", deltas
    for result in (base, slow):
        assert result["layer"]["trace.conservation_err"] < 0.05


def test_serve_warm_phase_sees_no_machine_work():
    kwargs = dict(seed=3, seconds=3, trace=True)
    base = bench.measure("serve_zipf", **kwargs)
    slow = bench.measure("serve_zipf", patch=SLOW, **kwargs)
    warm = {}
    for name, result in (("base", base), ("slow", slow)):
        assert result["raw"]["failures"] == []
        phase = result["raw"]["phases"]["B"]
        # No machine work at all: no facade call, no store or stream use.
        # (machine.core still builds CostRecords for cache hits: cost.py.)
        assert set(phase["facade"].values()) == {0}
        for layer in ("machine.aem", "machine.store", "machine.streams"):
            assert phase["layers"][layer]["calls"] == 0
        warm[name] = phase["layers"]["machine.core"]["self_s"]
    # The injected delay is live in the server: the cold phase pays it ...
    cold_base = base["raw"]["phases"]["cold"]["layers"]["machine.core"]["self_s"]
    cold_slow = slow["raw"]["phases"]["cold"]["layers"]["machine.core"]["self_s"]
    assert cold_slow > 1.5 * cold_base
    # ... and the warm phase is not charged for it.
    assert warm["slow"] < warm["base"] + 0.01
