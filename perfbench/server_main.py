"""Launch ``repro-aem serve`` for the serve workload, optionally traced.

    python perfbench/server_main.py [--trace-out F] [--patch P] -- serve ARGS...

Without options this is exactly the ``repro-aem`` entry point. With
``--trace-out`` every thread that does server work is profiled: the
event-loop thread from start to drain, and each executor thread for the
duration of each work item (one engine batch), so idle executor waits are
not charged to any layer. ``SIGUSR1`` appends a cumulative per-layer
snapshot to ``F`` (the client marks phase boundaries with it); a final
snapshot is appended after the drain. ``--patch`` runs a Python file
first (fault injection from the benchmark's tests).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path


def _append_snapshot(path: Path, snapshot: dict) -> None:
    snapshots = json.loads(path.read_text()) if path.is_file() else []
    snapshots.append(snapshot)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(snapshots))
    os.replace(tmp, path)


def _install_tracer(out: Path):
    import concurrent.futures.thread as cf_thread

    # Load every module the server can reach, so the scope wrappers see
    # all referees and generators before the first query arrives.
    import repro.api  # noqa: F401
    import repro.serve  # noqa: F401

    import layers

    scopes = layers.Scopes()
    scopes.install()
    tracer = layers.Tracer(scopes)
    run_item = cf_thread._WorkItem.run

    def traced_run(self):
        tracer.start()
        try:
            return run_item(self)
        finally:
            tracer.stop()

    cf_thread._WorkItem.run = traced_run
    signal.signal(signal.SIGUSR1, lambda *_: _append_snapshot(out, tracer.snapshot()))
    return tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--patch", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    if args.patch:
        import runpy

        runpy.run_path(args.patch)
    from repro.cli import main as cli_main

    if args.trace_out is None:
        return cli_main(serve_args)
    tracer = _install_tracer(args.trace_out)
    tracer.start()
    try:
        return cli_main(serve_args)
    finally:
        tracer.stop()
        _append_snapshot(args.trace_out, tracer.snapshot())


if __name__ == "__main__":
    sys.exit(main())
