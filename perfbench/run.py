"""The repository benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload sweep_counting --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``sweep_full``     — a pinned grid through ``repro.api.sweep`` on full
  payload machines with verification on;
* ``sweep_counting`` — the same path on counting machines at ~4x N;
* ``serve_zipf``     — a ``repro-aem serve`` subprocess under a zipfian
  open-loop mix, then a closed loop on the warm cache.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
work under ``cProfile`` and prints the per-layer metrics instead. The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it stamps the environment and lists any failures.
Exit code 0 means a result was printed; anything else means the
benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("sweep_full", "sweep_counting", "serve_zipf")

#: Units of every metric this benchmark prints.
UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "query_s": "s",
    "latency_p50_ms": "ms",
    "max_rps": "1/s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".self_s") or name == "sim.s_per_io" or name == "sim.s_per_T":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_err") or name == "sim.calls_per_io":
        return "ratio"
    if name == "serve.mean_batch_size":
        return "queries"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool, **kwargs) -> dict:
    """Run one workload; returns its raw measurements plus derived metrics.

    The exact counts are checked against earlier runs of the same sources
    and seed first, so a mismatch counts as a failed operation.
    """
    if workload == "serve_zipf":
        import serve_zipf as mod
    else:
        import sweeps as mod

        kwargs.setdefault("workload", workload)
    raw = mod.run(seed=seed, seconds=seconds, trace=trace, **kwargs)
    exact = mod.exact_counts(raw)
    raw["attempted"] += 1
    # The inputs that decide the counts (a --patch must not change them).
    key = f"{workload}-{seed}-{seconds:g}s-x{kwargs.get('scale', 1.0):g}"
    raw["failures"] += common.check_exact_counts(key, exact, common.source_fingerprint())
    e2e, layer = mod.metrics(raw)
    if trace:
        raw["attempted"] += 1
        err = layer["trace.conservation_err"]
        if err > common.CONSERVATION_TOL:
            raw["failures"].append(
                f"layer self times miss the traced wall by {err:.1%} "
                f"(tolerance {common.CONSERVATION_TOL:.0%})"
            )
        e2e, layer = mod.metrics(raw)
    return {"e2e": e2e, "layer": layer, "exact": exact, "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        common.compile_program()
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        common.log(f"error: {exc}")
        return 2
    raw = result["raw"]
    failures = raw["failures"]
    attempted = raw["attempted"]
    metrics = result["layer"] if args.trace else result["e2e"]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": common.environment(),
                "exact_counts": result["exact"],
                "tail": raw["tail"],
                "failures": failures,
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
