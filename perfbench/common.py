"""Shared helpers: paths, statistics, environment stamp, exact-count state."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Where exact counts are kept between runs of one source tree (ignored
#: by git; keyed by a fingerprint of the sources, so a changed program
#: starts a fresh record instead of failing against an old one).
STATE_DIR = ROOT / ".perfbench-state"

#: Conservation tolerance: the layers' self times must add up to the
#: traced wall time within this share of it.
CONSERVATION_TOL = 0.05


#: The host-speed probe: a fixed pure-Python loop, and the time it is
#: taken to need at reference speed. Shared hosts drift in speed by
#: tens of percent over seconds; a timed region bracketed by probes is
#: reported as ``raw * CAL_REF_S / probe``, i.e. in seconds at reference
#: speed, which removes most of that drift from run-to-run spreads.
CAL_LOOP = 100_000
CAL_REF_S = 0.010


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, child crashed)."""


def child_env() -> Dict[str, str]:
    """Environment for measured child processes: the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def source_fingerprint() -> str:
    """sha256 over every ``.py`` file of the program and the benchmark."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """The stamp printed with every result, to flag cross-machine compares."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def check_exact_counts(key: str, counts: Mapping[str, int], fingerprint: str) -> List[str]:
    """Compare exact counts with every earlier run of the same tree and inputs.

    ``key`` names the inputs (workload, seed, size). The first run records
    the counts; a later run (traced or not) that differs in any count both
    carry is a determinism failure, returned as messages.
    """
    path = STATE_DIR / fingerprint[:16] / f"{key}.json"
    problems: List[str] = []
    if path.is_file():
        try:
            before = json.loads(path.read_text())
        except (OSError, ValueError):
            before = {}
        for name in sorted(set(before) & set(counts)):
            if before[name] != counts[name]:
                problems.append(
                    f"exact count {name} = {counts[name]} differs from an "
                    f"earlier run's {before[name]} (same sources and inputs: {key})"
                )
        merged = {**counts, **before}
    else:
        merged = dict(counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True))
    os.replace(tmp, path)
    return problems


def layer_metrics(summary: Mapping) -> Dict[str, float]:
    """``<layer>.self_s`` / ``<layer>.calls`` / ``machine.calls.*`` from a summary."""
    from layers import FACADE_CALLS, LAYERS

    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = summary["layers"][name]["self_s"]
        out[f"{name}.calls"] = summary["layers"][name]["calls"]
    for call in FACADE_CALLS:
        out[f"machine.calls.{call}"] = summary["facade"][call]
    return out


def sim_ratios(summary: Mapping, model: Mapping[str, int]) -> Dict[str, float]:
    """Host cost of the simulation normalised by the model's own work."""
    machine_s = sum(
        summary["layers"][name]["self_s"]
        for name in ("machine.aem", "machine.core", "machine.store", "machine.streams")
    )
    io = model["model.Qr"] + model["model.Qw"]
    facade = sum(summary["facade"].values())
    return {
        "sim.s_per_io": machine_s / io if io else 0.0,
        "sim.s_per_T": machine_s / model["model.T"] if model["model.T"] else 0.0,
        "sim.calls_per_io": facade / io if io else 0.0,
    }


def model_totals(records: Iterable[Mapping]) -> Dict[str, int]:
    totals = {"model.Qr": 0, "model.Qw": 0, "model.T": 0, "model.peak_mem": 0}
    for rec in records:
        totals["model.Qr"] += int(rec["Qr"])
        totals["model.Qw"] += int(rec["Qw"])
        totals["model.T"] += int(rec["T"])
        totals["model.peak_mem"] += int(rec["peak_mem"])
    return totals


def conservation_error(summary: Mapping) -> float:
    wall = summary["wall_s"]
    return abs(summary["self_sum_s"] - wall) / wall if wall > 0 else 0.0


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def compile_program() -> None:
    """Byte-compile the program once, so no timed set-up pays for it."""
    import compileall

    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError(f"byte-compiling {SRC} failed")


def calibrate() -> float:
    """Seconds the host-speed probe takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.perf_counter() - t0
