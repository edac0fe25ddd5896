"""The two sweep workloads: a pinned grid through ``repro.api.sweep``.

Each run spawns fresh interpreter processes: a few *probes* that only
import the program and build the engine (the set-up time samples), then
one *measured child* that does the same and goes on to

1. a warm-up pass over the grid with exact facade-call counters (untimed;
   fills lazy imports and gives ``machine.calls.*``);
2. timed passes until ``--seconds`` is used up (with ``--trace 1``: one
   untimed-by-profiler pass, then one ``cProfile`` pass for the layers);
3. the output checks of :mod:`checks`, outside every timed region.

Run ``python perfbench/sweeps.py --child ...`` only through
:func:`run`; the child prints ``ready`` when set up and one JSON line
when done.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import common

# Machine shape of the repo's bench suite: M=128, B=16 (omega varies).
_P8 = {"M": 128, "B": 16, "omega": 8}
_P64 = {"M": 128, "B": 16, "omega": 64}  # omega > B: the ω > B edge


@dataclass(frozen=True)
class Grid:
    counting: bool
    build: Tuple[dict, ...]  # the write-heavy group, timed as build_s
    # The read-only search group, timed as query_s. Shapes repeat with
    # fresh instance seeds: a query's host cost depends on its terms, so
    # several instances average that out of the run-to-run spread.
    query: Tuple[dict, ...]
    paired: Tuple[dict, ...]  # small counting-vs-full twins, one per family


GRIDS: Dict[str, Grid] = {
    # Full payload machines with verification on: the default path of
    # `repro-aem exp` and the only place atoms/, the block store and the
    # referees do work. Sizes are the bench suite's, except the ω=64
    # sort and the query count, cut to keep a pass near five seconds.
    "sweep_full": Grid(
        counting=False,
        build=(
            {"workload": "sort", "n": 20000, "sorter": "aem_mergesort", **_P8},
            {"workload": "sort", "n": 8000, "sorter": "aem_mergesort", **_P64},
            {"workload": "sort", "n": 20000, "sorter": "em_mergesort", **_P8},
            {"workload": "sort", "n": 20000, "sorter": "aem_samplesort", **_P8},
            {"workload": "permute", "n": 16384, "permuter": "adaptive", **_P8},
            {"workload": "permute", "n": 8192, "permuter": "naive", **_P8},
            {"workload": "spmxv", "n": 1024, "delta": 4, "algorithm": "sort_based", **_P8},
            {"workload": "index_build", "n": 8000, **_P8},
        ),
        query=(
            {"workload": "search_query", "n": 4000, "n_queries": 600, "mode": "and", **_P8},
        )
        * 3,
        paired=(
            {"workload": "sort", "n": 3000, "sorter": "aem_mergesort", **_P8},
            {"workload": "sort", "n": 2000, "sorter": "aem_mergesort", **_P64},
            {"workload": "sort", "n": 3000, "sorter": "em_mergesort", **_P8},
            {"workload": "sort", "n": 3000, "sorter": "aem_samplesort", **_P8},
            {"workload": "permute", "n": 2048, "permuter": "adaptive", **_P8},
            {"workload": "permute", "n": 2048, "permuter": "naive", **_P8},
            {"workload": "spmxv", "n": 256, "delta": 4, "algorithm": "sort_based", **_P8},
            {"workload": "index_build", "n": 2000, **_P8},
            {"workload": "search_query", "n": 1000, "n_queries": 64, "mode": "and", **_P8},
        ),
    ),
    # Counting machines at 2-4x N (the ω=64 sort and the search corpus
    # kept smaller): the mode behind the million-scale records, where the
    # machine facade dominates and atoms/verifiers are nearly idle.
    "sweep_counting": Grid(
        counting=True,
        build=(
            {"workload": "sort", "n": 40000, "sorter": "aem_mergesort", **_P8},
            {"workload": "sort", "n": 8000, "sorter": "aem_mergesort", **_P64},
            {"workload": "sort", "n": 30000, "sorter": "pointer_mergesort", **_P8},
            {"workload": "permute", "n": 65536, "permuter": "adaptive", **_P8},
            {"workload": "permute", "n": 16384, "permuter": "sort_based", **_P8},
            {"workload": "spmxv", "n": 4096, "delta": 4, "algorithm": "sort_based", **_P8},
            {"workload": "index_build", "n": 24000, **_P8},
        ),
        query=(
            {"workload": "search_query", "n": 8000, "n_queries": 300, "mode": "and", **_P8},
            {"workload": "search_query", "n": 8000, "n_queries": 80, "mode": "or", **_P8},
        )
        * 2,
        paired=(
            {"workload": "sort", "n": 3000, "sorter": "aem_mergesort", **_P8},
            {"workload": "sort", "n": 2000, "sorter": "aem_mergesort", **_P64},
            {"workload": "sort", "n": 3000, "sorter": "pointer_mergesort", **_P8},
            {"workload": "permute", "n": 2048, "permuter": "adaptive", **_P8},
            {"workload": "permute", "n": 2048, "permuter": "sort_based", **_P8},
            {"workload": "spmxv", "n": 256, "delta": 4, "algorithm": "sort_based", **_P8},
            {"workload": "index_build", "n": 2000, **_P8},
            {"workload": "search_query", "n": 1000, "n_queries": 64, "mode": "and", **_P8},
            {"workload": "search_query", "n": 1000, "n_queries": 32, "mode": "or", **_P8},
        ),
    ),
}

#: Set-up samples per run: this many probes plus the measured child.
PROBES = 4

#: A child that has not finished by then is killed (the contract's
#: per-run limit is 180 s).
CHILD_TIMEOUT_S = 165.0


def instantiate(
    grid: Grid, seed: int, scale: float = 1.0
) -> Tuple[List[dict], List[dict], List[dict]]:
    """The run's queries: pinned shapes, instance seeds drawn from ``seed``."""
    rng = random.Random(seed)

    def make(template: dict) -> dict:
        q = dict(template, seed=rng.randrange(2**31))
        if scale != 1.0:
            q["n"] = max(256, int(q["n"] * scale))
            if "n_queries" in q:
                q["n_queries"] = max(8, int(q["n_queries"] * scale))
        return q

    build = [make(t) for t in grid.build]
    query = [make(t) for t in grid.query]
    paired = [dict(t, seed=rng.randrange(2**31)) for t in grid.paired]
    return build, query, paired


# ----------------------------------------------------------------------
# The measured child.
# ----------------------------------------------------------------------
def _pass(
    api, engine, points: List[dict], *, calibrated: bool = True
) -> List[Tuple[float, float, Optional[dict], str]]:
    """One pass over the grid.

    Returns ``(seconds, reference seconds, record-or-None, error)`` per
    point; reference seconds are normalised by host-speed probes taken
    just before and after the point (:func:`common.calibrate`).
    """
    out = []
    probe = common.calibrate() if calibrated else common.CAL_REF_S
    for q in points:
        t0 = time.perf_counter()
        try:
            rec, err = api.sweep([q], engine=engine)[0].as_dict(), ""
        except Exception as exc:  # a failing point is counted, not fatal
            rec, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = common.calibrate() if calibrated else common.CAL_REF_S
        out.append((dt, dt * common.CAL_REF_S / ((probe + after) / 2), rec, err))
        probe = after
    return out


def child_main(args: argparse.Namespace) -> int:
    from repro import api
    from repro.engine.core import SweepEngine

    grid = GRIDS[args.workload]
    engine = SweepEngine(counting=grid.counting)
    print("ready", flush=True)
    if args.probe:
        return 0
    if args.patch:
        import runpy

        runpy.run_path(args.patch)
    import resource

    import checks
    import layers

    build, query, paired = instantiate(grid, args.seed, args.scale)
    points = build + query
    n_build = len(build)
    failures: List[str] = []
    attempted = 0

    def account(result) -> None:
        nonlocal attempted
        attempted += len(result)
        failures.extend(err for *_, err in result if err)

    scopes = layers.Scopes()
    counter = layers.CallCounter(scopes)
    with scopes.installed(), counter.installed():
        warm = _pass(api, engine, points)
    account(warm)
    reference = [rec for _, _, rec, _ in warm]

    passes = []
    started = time.perf_counter()
    while True:
        result = _pass(api, engine, points)
        account(result)
        passes.append(result)
        if args.trace or time.perf_counter() - started >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for result in passes:
        for q, (_, _, rec, err), ref in zip(points, result, reference):
            if not err and ref is not None and rec != ref:
                failures.append(f"nondeterministic cost for {q}: {rec} != {ref}")

    trace = None
    if args.trace:
        tracer = layers.Tracer(scopes)
        with scopes.installed():
            t0 = time.perf_counter()
            tracer.start()
            traced = _pass(api, engine, points, calibrated=False)
            tracer.stop()
            traced_wall = time.perf_counter() - t0
        account(traced)
        for q, (_, _, rec, err), ref in zip(points, traced, reference):
            if not err and ref is not None and rec != ref:
                failures.append(f"traced cost differs for {q}: {rec} != {ref}")
        summary = tracer.snapshot()
        if summary["facade"] != counter.counts:
            failures.append(
                f"traced facade calls {summary['facade']} != counted {counter.counts}"
            )
        trace = {
            "summary": summary,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": sum(dt for dt, *_ in passes[-1]),
            "executed": len(points),
        }

    for q, rec in zip(points, reference):
        attempted += 1
        if rec is not None:
            failures.extend(checks.record_problems(q, rec))
    runs, problems = checks.paired_problems(paired)
    attempted += runs
    failures.extend(problems)

    print(
        json.dumps(
            {
                "points": points,
                "n_build": n_build,
                "passes": [[ref for _, ref, _, _ in result] for result in passes],
                "raw_passes": [[dt for dt, *_ in result] for result in passes],
                "records": reference,
                "facade": counter.counts,
                "peak_rss_mb": peak_rss_mb,
                "attempted": attempted,
                "failures": failures,
                "trace": trace,
            }
        ),
        flush=True,
    )
    return 0


# ----------------------------------------------------------------------
# The parent side.
# ----------------------------------------------------------------------
def _spawn(argv: List[str], deadline: float) -> Tuple[float, str]:
    """Start a child; returns (reference seconds until it printed ``ready``, its stdout)."""
    probe = common.calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(common.HERE / "sweeps.py"), *argv],
        stdout=subprocess.PIPE,
        env=common.child_env(),
        cwd=str(common.ROOT),
        text=True,
    )
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        ready_s *= common.CAL_REF_S / ((probe + common.calibrate()) / 2)
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise common.BenchError(f"sweep child {argv} timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise common.BenchError(f"sweep child {argv} failed (exit {proc.returncode})")
    return ready_s, rest


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    patch: Optional[str] = None,
    scale: float = 1.0,
) -> dict:
    """Run one sweep workload; returns the run's raw measurements."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    base = ["--workload", workload]
    setup = [_spawn(base + ["--probe"], deadline)[0] for _ in range(PROBES)]
    argv = base + [
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--scale", repr(scale),
    ]
    if patch:
        argv += ["--patch", patch]
    ready_s, out = _spawn(argv, deadline)
    setup.append(ready_s)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise common.BenchError("sweep child printed no result")
    raw = json.loads(lines[-1])
    raw["setup_samples"] = setup
    return raw


def metrics(raw: dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(end_to_end, per_layer)`` metric values from :func:`run`'s output."""
    n_build = raw["n_build"]
    per_point = [common.median(col) for col in zip(*raw["passes"])]
    attempted = raw["attempted"]
    failed = len(raw["failures"])
    e2e = {
        "setup_s": common.median(raw["setup_samples"]),
        "build_s": sum(per_point[:n_build]),
        "query_s": sum(per_point[n_build:]),
        "latency_p50_ms": 1e3 * common.median(per_point),
        "max_rps": len(per_point) / sum(per_point),
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw["tail"] = {
        "latency_p99_ms": 1e3 * common.nearest_rank(per_point, 0.99),
        "samples": len(per_point),
    }
    model = common.model_totals(r for r in raw["records"] if r is not None)
    layer = {}
    trace = raw.get("trace")
    if trace:
        summary = trace["summary"]
        layer.update(common.layer_metrics(summary))
        layer.update(model)
        layer.update(common.sim_ratios(summary, model))
        layer.update(
            {
                "engine.executed": trace["executed"],
                "engine.cache_hit_ratio": 0.0,
                "serve.dedup_hit_ratio": 0.0,
                "serve.mean_batch_size": 0.0,
                "serve.rejected": 0,
                "serve.batch_wait_ms": 0.0,
                "serve.engine_ms": 0.0,
                "loadgen.late_ms": 0.0,
                "trace.overhead_ratio": trace["traced_wall_s"] / trace["untraced_wall_s"],
                "trace.conservation_err": common.conservation_error(summary),
            }
        )
    return e2e, layer


def exact_counts(raw: dict) -> Dict[str, int]:
    """The counts that must repeat exactly: model totals and facade calls."""
    counts = common.model_totals(r for r in raw["records"] if r is not None)
    counts.update({f"machine.calls.{k}": v for k, v in raw["facade"].items()})
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GRIDS), required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--patch", default=None)
    return child_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
