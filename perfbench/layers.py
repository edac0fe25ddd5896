"""Per-layer host-time attribution, measured from outside the program.

The benchmark never edits ``src/``. It attributes the simulator's host
time to the repository's modules with ``cProfile`` and a fixed mapping
from a function's source file to a *layer* (:data:`FILE_LAYERS`).

Two layers are *scopes* rather than files: the output referees
(``verify_*`` / ``reference_*`` functions) and the input generators
(``workloads/generators.py``, ``workloads/search/corpus.py``). Their
time is inclusive: while a scope function runs, the thread's profiler is
swapped for the scope's own profiler, so everything the referee or
generator calls (atoms, builtins, numpy, cost-free machine inspection)
is charged to the scope, not to the layers the algorithms use. Machine
calls made inside a scope are therefore not counted as model work.

The same scope switch drives :class:`CallCounter`, the cheap
profiler-free counter of machine-facade calls used by untraced runs, so
traced and untraced runs count exactly the same calls.
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Every layer, in report order. ``other`` is stdlib, builtins, numpy,
#: the benchmark's own code and any ``repro`` module not named below;
#: ``idle`` is blocking waits (:data:`IDLE_BUILTINS`).
LAYERS: Tuple[str, ...] = (
    "serve",
    "api",
    "engine",
    "engine.cache",
    "workloads.gen",
    "sorting",
    "permute",
    "spmxv",
    "search",
    "atoms",
    "verify",
    "machine.aem",
    "machine.core",
    "machine.store",
    "machine.streams",
    "observe",
    "other",
    "idle",
)

#: Builtins that block rather than compute (event-loop polls, lock and
#: sleep waits). Their time is the ``idle`` layer, so a server's waiting
#: does not drown the ``other`` layer's real work.
IDLE_BUILTINS = (
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'select' of 'select.epoll' objects>",
    "<method 'acquire' of '_thread.lock' objects>",
    "<built-in method time.sleep>",
)

#: ``repro``-relative path prefix -> layer; the first match wins.
FILE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("serve/", "serve"),
    ("api/", "api"),
    ("engine/cache.py", "engine.cache"),
    ("engine/", "engine"),
    ("workloads/generators.py", "workloads.gen"),
    ("workloads/search/corpus.py", "workloads.gen"),
    ("workloads/search/", "search"),
    ("sorting/", "sorting"),
    ("structures/", "sorting"),
    ("primitives/", "sorting"),
    ("permute/", "permute"),
    ("spmxv/", "spmxv"),
    ("atoms/", "atoms"),
    ("machine/aem.py", "machine.aem"),
    ("machine/blockstore.py", "machine.store"),
    ("machine/phantom.py", "machine.store"),
    ("machine/streams.py", "machine.streams"),
    ("machine/", "machine.core"),
    ("observe/", "observe"),
    ("telemetry/", "observe"),
)

#: The machine facade's per-block API, counted exactly in every run.
FACADE_CALLS: Tuple[str, ...] = ("read", "write", "peek", "acquire", "release", "touch")

_MARK = os.sep + "repro" + os.sep
_layer_cache: Dict[str, str] = {}


def layer_of_file(filename: str) -> str:
    """Map a code object's ``co_filename`` to its layer."""
    layer = _layer_cache.get(filename)
    if layer is None:
        layer = "other"
        cut = filename.rfind(_MARK)
        if cut >= 0:
            rel = filename[cut + len(_MARK):].replace(os.sep, "/")
            for prefix, name in FILE_LAYERS:
                if rel.startswith(prefix):
                    layer = name
                    break
        _layer_cache[filename] = layer
    return layer


def _is_facade_file(filename: str) -> bool:
    return filename.replace(os.sep, "/").endswith("/repro/machine/aem.py")


# ----------------------------------------------------------------------
# Scopes: inclusive layers entered through wrapped entry points.
# ----------------------------------------------------------------------
def scope_functions() -> Dict[Callable, str]:
    """Every referee and generator function of the loaded ``repro`` modules."""
    import sys

    found: Dict[Callable, str] = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            code = getattr(value, "__code__", None)
            if code is None or getattr(value, "__module__", None) != name:
                continue
            rel = layer_of_file(code.co_filename)
            if attr.startswith(("verify_", "reference_")):
                found[value] = "verify"
            elif rel == "workloads.gen" and not attr.startswith("_"):
                found[value] = "workloads.gen"
    return found


class Scopes:
    """Installs scope wrappers; tracks the running scope per thread.

    ``on_enter(layer)`` / ``on_exit(layer)`` hooks (set by a
    :class:`Tracer`) run in the calling thread around the outermost
    scope call; nested scope calls run straight through.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self.on_enter: Optional[Callable[[str], None]] = None
        self.on_exit: Optional[Callable[[str], None]] = None
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def current(self) -> Optional[str]:
        return getattr(self._local, "layer", None)

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        local = self._local

        def scoped(*args, **kwargs):
            if getattr(local, "layer", None) is not None:
                return fn(*args, **kwargs)
            local.layer = layer
            if self.on_enter is not None:
                self.on_enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                if self.on_exit is not None:
                    self.on_exit(layer)
                local.layer = None

        scoped.__name__ = fn.__name__
        scoped.__wrapped__ = fn
        return scoped

    def install(self) -> None:
        """Rebind every module-level reference to a scope function."""
        import sys

        targets = scope_functions()
        wrappers = {fn: self._wrap(fn, layer) for fn, layer in targets.items()}
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    @contextmanager
    def installed(self) -> Iterator["Scopes"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ----------------------------------------------------------------------
# Exact facade-call counting without a profiler.
# ----------------------------------------------------------------------
class CallCounter:
    """Counts ``AEMMachine`` facade calls made outside any scope."""

    def __init__(self, scopes: Scopes) -> None:
        self.scopes = scopes
        self.counts: Dict[str, int] = dict.fromkeys(FACADE_CALLS, 0)

    @contextmanager
    def installed(self) -> Iterator["CallCounter"]:
        from repro.machine.aem import AEMMachine

        originals = {name: AEMMachine.__dict__[name] for name in FACADE_CALLS}
        counts = self.counts
        scopes = self.scopes

        def counted(name: str, fn: Callable) -> Callable:
            def method(*args, **kwargs):
                if scopes.current is None:
                    counts[name] += 1
                return fn(*args, **kwargs)

            method.__name__ = name
            return method

        for name, fn in originals.items():
            setattr(AEMMachine, name, counted(name, fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(AEMMachine, name, fn)


# ----------------------------------------------------------------------
# The tracer: one cProfile per (thread, layer-or-scope).
# ----------------------------------------------------------------------
class _ThreadProfiles:
    __slots__ = ("main", "scopes", "active", "wall", "since")

    def __init__(self) -> None:
        self.main = cProfile.Profile()
        self.scopes: Dict[str, cProfile.Profile] = {}
        self.active: Optional[cProfile.Profile] = None
        self.wall = 0.0
        self.since: Optional[float] = None


class Tracer:
    """Per-thread ``cProfile`` with scope switching and wall accounting.

    ``start()`` / ``stop()`` run in the thread being traced; the time
    between them is that thread's profiled wall, which the layers' self
    times must add up to (:func:`summarize` reports the residual).
    """

    def __init__(self, scopes: Scopes) -> None:
        self.scopes = scopes
        self._local = threading.local()
        self._all: List[_ThreadProfiles] = []
        self._lock = threading.Lock()
        scopes.on_enter = self._enter_scope
        scopes.on_exit = self._exit_scope

    def _mine(self) -> _ThreadProfiles:
        tp = getattr(self._local, "tp", None)
        if tp is None:
            tp = self._local.tp = _ThreadProfiles()
            with self._lock:
                self._all.append(tp)
        return tp

    def start(self) -> None:
        tp = self._mine()
        tp.since = time.perf_counter()
        tp.active = tp.main
        tp.main.enable()

    def stop(self) -> None:
        tp = self._mine()
        if tp.active is not None:
            tp.active.disable()
            tp.active = None
        if tp.since is not None:
            tp.wall += time.perf_counter() - tp.since
            tp.since = None

    def _enter_scope(self, layer: str) -> None:
        tp = getattr(self._local, "tp", None)
        if tp is None or tp.active is None:
            return
        tp.active.disable()
        prof = tp.scopes.get(layer)
        if prof is None:
            prof = tp.scopes[layer] = cProfile.Profile()
        tp.active = prof
        prof.enable()

    def _exit_scope(self, layer: str) -> None:
        tp = getattr(self._local, "tp", None)
        if tp is None or tp.active is None:
            return
        tp.active.disable()
        tp.active = tp.main
        tp.main.enable()

    def snapshot(self) -> dict:
        """Cumulative per-layer totals so far, over every traced thread.

        Safe to call from any thread while others are paused between
        bytecodes (the GIL is held throughout); a profiler running in the
        *calling* thread is paused around its own read-out.
        """
        mine = getattr(self._local, "tp", None)
        running = mine.active if mine is not None else None
        if running is not None:
            running.disable()
        try:
            with self._lock:
                threads = list(self._all)
            now = time.perf_counter()
            wall = sum(
                tp.wall + (now - tp.since if tp.since is not None else 0.0)
                for tp in threads
            )
            entries = []
            for tp in threads:
                entries.append((None, tp.main.getstats()))
                for layer, prof in tp.scopes.items():
                    entries.append((layer, prof.getstats()))
            return summarize(entries, wall)
        finally:
            if running is not None:
                running.enable()


def summarize(entries: Iterable[Tuple[Optional[str], list]], wall: float) -> dict:
    """Fold ``getstats()`` lists into per-layer self time and call counts.

    ``entries`` pairs each stats list with its scope layer (``None`` for
    the file-mapped main profile). Returns ``{"layers": {layer:
    {"self_s", "calls"}}, "facade": {call: n}, "wall_s", "self_sum_s"}``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    facade = dict.fromkeys(FACADE_CALLS, 0)
    for scope, stats in entries:
        for entry in stats:
            code = entry.code
            if scope is not None:
                layer = scope
            elif isinstance(code, str):
                layer = "idle" if code in IDLE_BUILTINS else "other"
            else:
                layer = layer_of_file(code.co_filename)
                if (
                    layer == "machine.aem"
                    and code.co_name in facade
                    and _is_facade_file(code.co_filename)
                ):
                    facade[code.co_name] += entry.callcount
            slot = layers[layer]
            slot["self_s"] += entry.inlinetime
            slot["calls"] += entry.callcount
    return {
        "layers": layers,
        "facade": facade,
        "wall_s": wall,
        "self_sum_s": sum(slot["self_s"] for slot in layers.values()),
    }


def diff(later: dict, earlier: dict) -> dict:
    """Per-layer totals accrued between two :meth:`Tracer.snapshot` calls."""
    layers = {
        name: {
            "self_s": later["layers"][name]["self_s"] - earlier["layers"][name]["self_s"],
            "calls": later["layers"][name]["calls"] - earlier["layers"][name]["calls"],
        }
        for name in LAYERS
    }
    return {
        "layers": layers,
        "facade": {k: later["facade"][k] - earlier["facade"][k] for k in FACADE_CALLS},
        "wall_s": later["wall_s"] - earlier["wall_s"],
        "self_sum_s": later["self_sum_s"] - earlier["self_sum_s"],
    }
