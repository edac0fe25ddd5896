"""The served workload: ``repro-aem serve`` under a zipfian query mix.

One server subprocess (``--jobs 1 --counting --cache``, a fresh
``--cache-dir`` per run, every other setting default) is driven from one
asyncio client that never holds more than two connections (the host has
two cores). Phases, in order:

* **cold** — a pinned set of distinct queries the mix never uses, then
  the mix's most popular queries, sent one at a time. Every one is a
  miss (machine work plus a cache write); the summed latency, in
  reference seconds (see :func:`common.calibrate`), is ``build_s``.
* **A, open loop** — Poisson arrivals at :data:`RATE_RPS`, zipfian over
  a pinned pool of distinct small queries spanning all five registered
  workloads. A request that falls due while both connections are busy
  waits; its latency counts from its due time. Gives the latency
  percentiles. Each pool query misses once; every other request is a
  cache hit or an in-flight dedup.
* **B, closed loop** — two connections on the now-warm cache for a fixed
  number of requests; its wall time is ``query_s`` and the responses
  within :data:`LATENCY_LIMIT_MS` per second are ``max_rps``.

The workload seed drives the instance seeds, the zipfian draw and the
arrival times; the server only ever sees the generated queries.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

#: Phase A offered load. Two connections sustain ~145 rps of warm hits
#: here (each hit waits out the server's 10 ms batch window), so this is
#: a little under half: a host that slows down for a while (this one
#: drifts by tens of percent) still does not saturate the server.
RATE_RPS = 60.0

#: Phase A requests per measured second: phase A lasts about
#: ``--seconds``, and 25 s gives 1500 samples, 15 beyond the 99th
#: percentile.
A_PER_SECOND = 60

#: Phase B requests per measured second.
B_PER_SECOND = 30

#: The closed loop's latency limit for ``max_rps``.
LATENCY_LIMIT_MS = 100.0

#: The most popular pool queries are priced in the cold phase, so phase
#: A's misses are the rarer queries, scattered through the phase instead
#: of one start-up burst whose shape alone would set the tail.
PREFILL = 16

CONNECTIONS = 2
ZIPF_S = 1.0
SETUP_PROBES = 3
HEALTH_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 30.0

_P = {"M": 128, "B": 16}


def _pool_shapes() -> List[dict]:
    """The 48 pinned query shapes of the zipfian mix (no seeds yet).

    Small on purpose: a miss costs a few to a few tens of milliseconds,
    so the tail is made of many miss events rather than a few long ones.
    """
    shapes: List[dict] = []
    for n in (500, 1000, 1500):
        for sorter in ("aem_mergesort", "em_mergesort", "pointer_mergesort", "aem_samplesort"):
            shapes.append({"workload": "sort", "n": n, "sorter": sorter, "omega": 8, **_P})
        for omega in (2, 64):
            shapes.append(
                {"workload": "sort", "n": n, "sorter": "aem_mergesort", "omega": omega, **_P}
            )
        for permuter in ("adaptive", "naive", "sort_based"):
            shapes.append(
                {"workload": "permute", "n": n + 24, "permuter": permuter, "omega": 8, **_P}
            )
        shapes.append(
            {"workload": "permute", "n": n + 24, "permuter": "adaptive", "omega": 64, **_P}
        )
        for algorithm in ("naive", "sort_based"):
            shapes.append(
                {"workload": "spmxv", "n": n // 8, "delta": 4, "algorithm": algorithm,
                 "omega": 8, **_P}
            )
        for omega in (8, 64):
            shapes.append({"workload": "index_build", "n": n, "omega": omega, **_P})
        for mode in ("and", "or"):
            shapes.append(
                {"workload": "search_query", "n": n, "n_queries": 8, "mode": mode,
                 "omega": 8, **_P}
            )
    return shapes


def _cold_shapes() -> List[dict]:
    """Distinct shapes for the cold phase, disjoint from the pool."""
    shapes: List[dict] = []
    for n in (4000, 5000, 6000):
        for sorter in ("aem_mergesort", "em_mergesort", "pointer_mergesort"):
            shapes.append({"workload": "sort", "n": n, "sorter": sorter, "omega": 8, **_P})
        for permuter in ("adaptive", "sort_based"):
            shapes.append(
                {"workload": "permute", "n": n, "permuter": permuter, "omega": 8, **_P}
            )
        shapes.append(
            {"workload": "spmxv", "n": n // 8, "delta": 4, "algorithm": "sort_based",
             "omega": 8, **_P}
        )
        shapes.append({"workload": "index_build", "n": n, "omega": 8, **_P})
        shapes.append(
            {"workload": "search_query", "n": n, "n_queries": 16, "mode": "and",
             "omega": 8, **_P}
        )
    return shapes


#: Popularity rank of each pool query: pinned, not drawn from the seed,
#: so every run has the same hot set and the same misses set the tail.
_RANKS = list(range(len(_pool_shapes())))
random.Random(0).shuffle(_RANKS)


def hottest(n_pool: int, k: int) -> List[int]:
    """Pool indices of the ``k`` most popular queries."""
    return sorted(range(n_pool), key=lambda i: _RANKS[i])[:k]


def instantiate(seed: int, seconds: float) -> dict:
    """Every input of one run, derived from ``seed`` alone."""
    rng = random.Random(seed)
    pool = [dict(s, seed=rng.randrange(2**31)) for s in _pool_shapes()]
    cold = [dict(s, seed=rng.randrange(2**31)) for s in _cold_shapes()]
    weights = [1.0 / (r + 1) ** ZIPF_S for r in _RANKS]
    n_a = int(A_PER_SECOND * seconds)
    n_b = int(B_PER_SECOND * seconds)
    mix_a = rng.choices(range(len(pool)), weights=weights, k=n_a)
    # Phase B is the warm phase: only queries already priced by then.
    warm = sorted(set(mix_a) | set(hottest(len(pool), PREFILL)))
    mix_b = rng.choices(warm, weights=[weights[i] for i in warm], k=n_b)
    offsets, t = [], 0.0
    for _ in range(n_a):
        t += rng.expovariate(RATE_RPS)
        offsets.append(t)
    return {"pool": pool, "cold": cold, "mix_a": mix_a, "mix_b": mix_b, "offsets": offsets}


# ----------------------------------------------------------------------
# The client.
# ----------------------------------------------------------------------
async def _post(port: int, body: bytes) -> Tuple[int, Optional[dict]]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /evaluate HTTP/1.1\r\nhost: bench\r\n"
            b"content-type: application/json\r\nconnection: close\r\n"
            + f"content-length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    try:
        return status, json.loads(payload) if payload else None
    except ValueError:
        return status, None


class Outcomes:
    """Every response of a run: ``(query index, status, record)``."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, int, Optional[dict]]] = []
        self.errors: List[str] = []

    async def send(self, port: int, index: int, body: bytes) -> bool:
        try:
            status, payload = await _post(port, body)
        except OSError as exc:
            self.errors.append(f"request {index}: {type(exc).__name__}: {exc}")
            self.rows.append((index, 0, None))
            return False
        record = payload.get("result") if status == 200 and payload else None
        if status != 200:
            self.errors.append(f"request {index}: HTTP {status}: {payload}")
        self.rows.append((index, status, record))
        return status == 200


async def closed_loop(port: int, bodies: List[Tuple[int, bytes]], out: Outcomes) -> List[float]:
    """Send ``bodies`` over two connections back to back; returns latencies (s)."""
    latencies: List[float] = []
    it = iter(bodies)

    async def worker() -> None:
        for index, body in it:
            t0 = time.perf_counter()
            ok = await out.send(port, index, body)
            latencies.append(time.perf_counter() - t0 if ok else math.inf)

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return latencies


async def open_loop(
    port: int, bodies: List[Tuple[int, bytes]], offsets: List[float], out: Outcomes
) -> Tuple[List[float], float]:
    """Poisson schedule over two connections; returns (latencies from due, max lateness)."""
    latencies: List[float] = []
    late = 0.0
    start = time.perf_counter() + 0.05
    it = iter(zip(bodies, offsets))

    async def worker() -> None:
        nonlocal late
        for (index, body), offset in it:
            free_at = time.perf_counter()
            due = start + offset
            if due > free_at:
                await asyncio.sleep(due - free_at)
            sent = time.perf_counter()
            late = max(late, sent - max(due, free_at))
            ok = await out.send(port, index, body)
            latencies.append(time.perf_counter() - due if ok else math.inf)

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return latencies, late


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------
class Server:
    """One ``repro-aem serve`` subprocess; ``setup_s`` is launch to ``/healthz``."""

    def __init__(self, workdir: Path, *, trace: bool = False, patch: Optional[str] = None):
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.trace_out = workdir / "layers.json" if trace else None
        self.telemetry_dir = workdir / "telemetry" if trace else None
        argv = [sys.executable, str(common.HERE / "server_main.py")]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        if patch:
            argv += ["--patch", patch]
        argv += [
            "--", "serve", "--host", "127.0.0.1", "--port", "0", "--jobs", "1",
            "--counting", "--cache", "--cache-dir", str(self.cache_dir),
        ]
        if self.telemetry_dir is not None:
            argv += ["--telemetry-dir", str(self.telemetry_dir)]
        self.argv = argv
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Server":
        probe = common.calibrate()
        t0 = time.perf_counter()
        self.workdir.mkdir(parents=True, exist_ok=True)
        log = self.workdir / "server.log"
        with log.open("w") as stderr:
            self.proc = subprocess.Popen(
                self.argv,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                env=common.child_env(),
                cwd=str(common.ROOT),
            )
        deadline = t0 + HEALTH_TIMEOUT_S
        while not (self.port and self._healthy()):
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                raise common.BenchError(f"server did not start: {log.read_text()[-2000:]}")
            match = re.search(r"http://[\d.]+:(\d+)", log.read_text())
            if match is not None:
                self.port = int(match.group(1))
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        self.setup_s *= common.CAL_REF_S / ((probe + common.calibrate()) / 2)
        return self

    def _healthy(self) -> bool:
        return self.get("/healthz") is not None

    def get(self, path: str) -> Optional[dict]:
        import socket

        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=5) as sock:
                sock.sendall(f"GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return None
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            return None
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def mark_phase(self) -> None:
        """Ask the traced server for a per-layer snapshot; wait until written."""
        have = len(self.snapshots())
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while len(self.snapshots()) <= have:
            if time.perf_counter() > deadline:
                raise common.BenchError("traced server did not write a snapshot")
            time.sleep(0.005)

    def snapshots(self) -> list:
        if self.trace_out is None or not self.trace_out.is_file():
            return []
        try:
            return json.loads(self.trace_out.read_text())
        except ValueError:  # mid-replace; try again
            return []

    def stop(self) -> None:
        """SIGTERM drains the server; escalate to SIGKILL if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _span_p50s_ms(telemetry_dir: Path) -> Dict[str, float]:
    """p50 durations of the server's own "batch window" and "engine" spans."""
    from repro.serve.server import SERVE_PID

    path = telemetry_dir / "trace.json"
    events = json.loads(path.read_text()) if path.is_file() else []
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    out = {}
    for name, key in (("batch window", "serve.batch_wait_ms"), ("engine", "serve.engine_ms")):
        durs = [
            e["dur"] / 1e3
            for e in events
            if e.get("ph") == "X" and e.get("pid") == SERVE_PID and e.get("name") == name
        ]
        out[key] = common.median(durs) if durs else 0.0
    return out


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, *, patch: Optional[str] = None) -> dict:
    """Run the served workload once; returns its raw measurements."""
    if str(common.SRC) not in sys.path:
        sys.path.insert(0, str(common.SRC))
    inputs = instantiate(seed, seconds)
    workroot = common.ROOT / ".perfbench-work"
    workdir = workroot / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = []
        untraced_cold_s = 0.0
        for i in range(SETUP_PROBES):
            probe = Server(workdir / f"probe{i}", patch=patch).start()
            try:
                if trace and i == SETUP_PROBES - 1:
                    # The untraced twin of the traced cold phase, for
                    # trace.overhead_ratio.
                    untraced_cold_s, _ = asyncio.run(_cold_phase(probe, inputs, Outcomes()))
            finally:
                probe.stop()
            setup.append(probe.setup_s)
        server = Server(workdir / "main", trace=trace, patch=patch).start()
        setup.append(server.setup_s)
        try:
            raw = _drive(server, inputs, trace)
            raw["untraced_cold_s"] = untraced_cold_s
            raw["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()
        if trace:
            snaps = server.snapshots()
            raw["snapshots"] = snaps
            raw.update(_span_p50s_ms(server.telemetry_dir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    raw["setup_samples"] = setup
    _check(raw, inputs)
    return raw


def _encode(query: dict) -> bytes:
    return json.dumps(query, sort_keys=True).encode()


async def _cold_phase(server: Server, inputs: dict, out: Outcomes) -> Tuple[float, float]:
    """Every cold query once, then the hottest pool queries, one at a time.

    Returns ``(seconds, reference seconds)``: each request is bracketed by
    host-speed probes (:func:`common.calibrate`), taken while the server
    is idle, and normalised by them.
    """
    pool = inputs["pool"]
    bodies = [(len(pool) + i, _encode(q)) for i, q in enumerate(inputs["cold"])]
    bodies += [(i, _encode(pool[i])) for i in hottest(len(pool), PREFILL)]
    raw_s = ref_s = 0.0
    probe = common.calibrate()
    for index, body in bodies:
        t0 = time.perf_counter()
        await out.send(server.port, index, body)
        dt = time.perf_counter() - t0
        after = common.calibrate()
        raw_s += dt
        ref_s += dt * common.CAL_REF_S / ((probe + after) / 2)
        probe = after
    return raw_s, ref_s


def _drive(server: Server, inputs: dict, trace: bool) -> dict:
    encoded = [_encode(q) for q in inputs["pool"]]
    out = Outcomes()

    async def phases() -> dict:
        cold_raw_s, cold_s = await _cold_phase(server, inputs, out)
        if trace:
            server.mark_phase()
        lat_a, late = await open_loop(
            server.port, [(i, encoded[i]) for i in inputs["mix_a"]], inputs["offsets"], out
        )
        if trace:
            server.mark_phase()
        t0 = time.perf_counter()
        lat_b = await closed_loop(server.port, [(i, encoded[i]) for i in inputs["mix_b"]], out)
        b_s = time.perf_counter() - t0
        return {
            "cold_raw_s": cold_raw_s,
            "cold_s": cold_s,
            "lat_a": lat_a,
            "late_s": late,
            "lat_b": lat_b,
            "b_s": b_s,
        }

    raw = asyncio.run(phases())
    if trace:
        server.mark_phase()
    raw["stats"] = server.get("/stats") or {}
    raw["rows"] = out.rows
    raw["failures"] = list(out.errors)
    raw["attempted"] = len(out.rows)
    return raw


def _check(raw: dict, inputs: dict) -> None:
    """Served records must repeat per query and equal a direct evaluation."""
    from repro import api
    from repro.engine.core import SweepEngine

    import checks

    queries = inputs["pool"] + inputs["cold"]
    served: Dict[int, dict] = {}
    for index, status, record in raw["rows"]:
        if status != 200 or record is None:
            continue
        first = served.setdefault(index, record)
        if record != first:
            raw["failures"].append(f"query {index} answered {record} and {first}")
    engine = SweepEngine()
    records = []
    for index in sorted(served):
        raw["attempted"] += 1
        query = {**queries[index], "counting": True}
        try:
            direct = api.evaluate(query["workload"], query, engine=engine).as_dict()
        except Exception as exc:  # a referee failure is a check failure
            raw["failures"].append(f"direct evaluation of {query} raised {exc!r}")
            continue
        got = {k: served[index][k] for k in checks.COST_FIELDS}
        want = {k: direct[k] for k in checks.COST_FIELDS}
        if got != want:
            raw["failures"].append(f"served {got} != direct {want} for {query}")
        raw["failures"].extend(checks.record_problems(query, direct))
        records.append(direct)
    raw["records"] = records


def metrics(raw: dict) -> Tuple[Dict[str, float], Dict[str, float]]:
    lat_a = raw["lat_a"]
    lat_b = raw["lat_b"]
    within = sum(1 for x in lat_b if x * 1e3 <= LATENCY_LIMIT_MS)
    e2e = {
        "setup_s": common.median(raw["setup_samples"]),
        "build_s": raw["cold_s"],
        "query_s": raw["b_s"],
        "latency_p50_ms": 1e3 * common.median(lat_a),
        "max_rps": within / raw["b_s"],
        "success_frac": 1.0 - len(raw["failures"]) / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    raw["tail"] = {
        "latency_p99_ms": 1e3 * common.nearest_rank(lat_a, 0.99),
        "samples": len(lat_a),
        "loadgen_late_ms": 1e3 * raw["late_s"],
    }
    layer: Dict[str, float] = {}
    if raw.get("snapshots"):
        import layers

        final = raw["snapshots"][-1]
        model = common.model_totals(raw["records"])
        layer.update(common.layer_metrics(final))
        layer.update(model)
        layer.update(common.sim_ratios(final, model))
        stats = raw["stats"]
        engine = stats.get("engine") or {}
        requests = stats.get("requests") or {}
        measurements = engine.get("measurements", 0)
        batches = requests.get("batches", 0)
        served = len(raw["rows"])
        layer.update(
            {
                "engine.executed": engine.get("executed", 0),
                "engine.cache_hit_ratio": engine.get("cache_hits", 0) / measurements
                if measurements else 0.0,
                "serve.dedup_hit_ratio": requests.get("dedup_hits", 0) / served if served else 0.0,
                "serve.mean_batch_size": measurements / batches if batches else 0.0,
                "serve.rejected": requests.get("rejected", 0),
                "serve.batch_wait_ms": raw["serve.batch_wait_ms"],
                "serve.engine_ms": raw["serve.engine_ms"],
                "loadgen.late_ms": 1e3 * raw["late_s"],
                "trace.overhead_ratio": raw["cold_raw_s"] / raw["untraced_cold_s"],
                "trace.conservation_err": common.conservation_error(final),
            }
        )
        raw["phases"] = {
            "cold": raw["snapshots"][0],
            "A": layers.diff(raw["snapshots"][1], raw["snapshots"][0]),
            "B": layers.diff(raw["snapshots"][2], raw["snapshots"][1]),
        }
    return e2e, layer


def exact_counts(raw: dict) -> Dict[str, int]:
    """Model totals over the distinct served queries (each priced once)."""
    counts = common.model_totals(raw["records"])
    if raw.get("snapshots"):
        final = raw["snapshots"][-1]
        counts.update({f"machine.calls.{k}": v for k, v in final["facade"].items()})
    return counts
