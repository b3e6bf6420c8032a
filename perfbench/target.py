"""The process that hosts the program under test.

The load generator starts it as ``python3 -m perfbench.target --fd N
--workload W --traced 0|1`` from the repository root, with ``N`` the
inherited socket of the control connection.  Every start pays a fresh
interpreter, the imports and the artifact-cache loads: the set-up a user
of the program pays.  It reports its own phase times and,
when traced, per-layer spans and counter deltas; every other number is
taken by the load generator.

It puts ``DCNServer`` over ``DCNService`` (or over ``ServePool(workers=1)``
on ``serve_pool``) on a loopback port.

Only the standard library is imported at module level, so the import
time this process reports covers NumPy, SciPy and ``repro``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Rows per warm-up request; every bucket a 2-connection stream of 1-4 row
#: requests can coalesce into (1..8 rows) is compiled before timing.
_WARM_BUCKETS = (1, 2, 4, 8)
#: Flagged-row counts whose corrector chunk shapes are compiled in warm-up.
_WARM_FLAGGED = range(1, 11)


def main(conn, workload: str, root: str, traced: bool) -> None:
    """Set up the workload's program, report ready, then obey ``conn``."""
    t0 = time.perf_counter()
    import numpy as np  # noqa: F401  (timed as part of the import phase)

    from perfbench import inputs
    from perfbench.tracing import Tracer

    inputs.python_path_for(Path(root))
    import repro.serve  # noqa: F401

    t_import = time.perf_counter()
    ctx = inputs.load_context()
    t_load = time.perf_counter()
    tracer = Tracer() if traced else None
    host = _ServeHost(ctx, workload, Path(root), tracer)
    t_warm = time.perf_counter()
    conn.send({
        "address": host.address,
        "setup": {"import_s": t_import - t0, "load_s": t_load - t_import, "warm_s": t_warm - t_load},
    })
    while True:
        command = conn.recv()
        if command == "snapshot":
            conn.send(host.snapshot())
        elif command == "stop":
            conn.send(host.stop())
            return
        elif command == "exit":
            # Set-up probes: release the backend but skip the server's
            # stop, whose cost only the measured run's teardown reports.
            host.close()
            conn.send({})
            return
        else:
            raise ValueError(f"unknown command {command!r}")


class _ServeHost:
    def __init__(self, ctx, workload: str, root: Path, tracer):
        from repro.serve import DCNServer, DCNService, ServePool

        dcn = ctx.dcn
        rows = ctx.dataset.x_test
        # Compile the model/detector plans for every bucket and the
        # corrector's chunk shapes once, on a throwaway service; pool
        # workers inherit them through fork.
        warm = DCNService(dcn)
        for size in _WARM_BUCKETS:
            warm.serve_batch([rows[:size]])
        for flagged in _WARM_FLAGGED:
            dcn.corrector.correct_fused(rows[:flagged])

        self.tracer = tracer
        self.dcn = dcn
        self.engine_before = dcn.network.engine.counters.snapshot()
        self.hops: list[float] = []
        self.worker_dump = None
        if tracer is not None:
            tracer.wrap(dcn.network.engine, "logits", "engine", rows_arg=0)
            tracer.wrap(dcn.detector, "is_adversarial", "detector", rows_arg=0)
            tracer.wrap(dcn.corrector, "correct_fused", "corrector", rows_arg=0)
            tracer.wrap(DCNService, "_dispatch", "dispatch")
        if workload == "serve_pool":
            import multiprocessing

            self.ledger = root / ".bench_build" / f"serve-pool-{os.getpid()}.jsonl"
            self.ledger.parent.mkdir(parents=True, exist_ok=True)
            hook = None
            if tracer is not None:
                self.flush = multiprocessing.get_context("fork").Event()
                self.worker_dump = root / ".bench_build" / f"worker-trace-{os.getpid()}.json"
                hook = _WorkerTraceDump(tracer, dcn, self.flush, self.worker_dump)
            self.backend = ServePool(dcn, workers=1, ledger_path=self.ledger, dispatch_hook=hook).start()
            if tracer is not None:
                _time_pool_hops(self.backend, self.hops)
        else:
            self.ledger = None
            self.backend = DCNService(dcn).start()
        self.server = DCNServer(self.backend).start()
        self.address = self.server.address
        self._probe_row = rows[:1]

    def snapshot(self) -> dict:
        out = {"telemetry": self.server.telemetry_snapshot(), "trace": None}
        if self.tracer is None:
            return out
        from repro.nn.engine import counter_delta

        summary = self.tracer.summary()
        engine = self.dcn.network.engine.counters
        if self.worker_dump is not None:
            # The worker writes its spans and counters when it next
            # dispatches after the flag is set; that request itself is
            # not in the dump.
            hops = list(self.hops)
            self.flush.set()
            self.backend.submit(self._probe_row).wait(30.0)
            dump = json.loads(self.worker_dump.read_text())
            self.worker_dump.unlink()
            from perfbench.tracing import merge_summaries
            from repro.nn.engine import EngineCounters

            summary = merge_summaries(summary, dump["summary"])
            engine = EngineCounters(**dump["engine"])
            out["hops_s"] = hops
            out["worker_deaths"] = self.backend.worker_deaths
        out["trace"] = summary
        out["engine"] = counter_delta(self.engine_before, engine)
        return out

    def stop(self) -> dict:
        t0 = time.perf_counter()
        self.server.stop()
        t1 = time.perf_counter()
        self.backend.stop()
        t2 = time.perf_counter()
        if self.ledger is not None:
            self.ledger.unlink(missing_ok=True)
        return {"server_stop_s": t1 - t0, "backend_stop_s": t2 - t1}

    def close(self) -> None:
        self.backend.stop()
        if self.ledger is not None:
            self.ledger.unlink(missing_ok=True)


class _WorkerTraceDump:
    """Pool ``dispatch_hook``: runs in the forked worker before each
    dispatch and writes the worker's span summary and engine counters once
    the front end sets ``flag``."""

    def __init__(self, tracer, dcn, flag, path: Path):
        self.tracer, self.dcn, self.flag, self.path = tracer, dcn, flag, path

    def __call__(self, worker_id: int, n_requests: int) -> None:
        if not self.flag.is_set():
            return
        payload = {
            "summary": self.tracer.summary(),
            "engine": self.dcn.network.engine.counters.as_dict(),
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)
        self.flag.clear()


def _time_pool_hops(pool, hops: list[float]) -> None:
    """Record, per request, the front end's submit-to-result time minus the
    worker-stamped service latency: the pipe hop both ways."""
    submit = pool.submit

    class _Ticket:
        def __init__(self, ticket, start):
            self.ticket, self.start = ticket, start

        def wait(self, timeout=None):
            result = self.ticket.wait(timeout)
            if result.ok:
                hops.append(time.perf_counter() - self.start - result.latency_s)
            return result

    def timed_submit(x):
        start = time.perf_counter()
        return _Ticket(submit(x), start)

    pool.submit = timed_submit


if __name__ == "__main__":
    import argparse
    from multiprocessing.connection import Connection

    parser = argparse.ArgumentParser(description="Host the program under test for perfbench/run.py.")
    parser.add_argument("--fd", type=int, required=True, help="inherited control socket")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    main(Connection(args.fd), args.workload, str(Path(__file__).resolve().parent.parent), bool(args.traced))
