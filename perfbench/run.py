"""The repository benchmark: one command, three serving workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_benign --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs an untraced and a traced window of ``--seconds / 2``
each and prints the per-layer metrics.  The last stdout line is the
result object; the line before it is the run's provenance.  See
``perfbench/README.md`` for what each workload and metric measures.

This process is the load generator.  It builds the artifacts, the seeded
inputs and their reference outputs first, then starts the program under
test in a separate process (``target.py``) and times every call into it
with its own clock.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before NumPy loads anywhere; child
# processes inherit it.  Multi-threaded BLAS on a 2-core machine makes the
# server, its pool worker and the load generator fight for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("serve_benign", "serve_adversarial", "serve_pool")
#: Load-generator connections (= threads), one closed loop each.
CONNECTIONS = 2
#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds any single control-pipe exchange with the target may take.
PIPE_TIMEOUT_S = 120.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ["REPRO_CACHE"] = str(ROOT / ".bench_build" / "artifacts")
    load_cpus, target_cpus = split_cpus()
    os.sched_setaffinity(0, load_cpus)

    from perfbench import inputs

    inputs.python_path_for(ROOT)
    ctx = inputs.load_context()
    provenance = inputs.provenance(ROOT, args.seed)
    provenance["artifacts"] = inputs.prepare_artifacts(ctx)
    provenance.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                      cpus={"load": sorted(load_cpus), "target": sorted(target_cpus)})
    bench = ServeBench(ctx, args.workload, args.seed, target_cpus)
    provenance.update(bench.provenance())
    if args.trace:
        result = bench.traced(args.seconds)
        declared = spec["per_layer"]
    else:
        result = bench.untraced(args.seconds)
        declared = spec["end_to_end"]
    metrics = result.pop("metrics")
    names = [m["name"] for m in declared]
    unknown = sorted(set(metrics) - set(names))
    missing = [name for name in names if name not in metrics and not args.trace]
    if unknown or missing:
        raise RuntimeError(f"metrics not declared: {unknown}; not produced: {missing}")
    provenance.update(result.pop("notes"))
    print(json.dumps({"provenance": provenance}))
    # A layer that does no work on this workload reports 0.
    result["metrics"] = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The program under test, in its own process
# ---------------------------------------------------------------------------


def split_cpus() -> tuple[set[int], set[int]]:
    """CPUs for the load generator and for the program under test: one for
    the load, the rest for the program, so neither steals the other's core
    mid-window."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


@contextlib.contextmanager
def pinned(cpus: set[int]):
    """Run the block on ``cpus``; a process started inside inherits them."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Target:
    """One ``target.py`` process and its control connection.

    A plain child process rather than a ``multiprocessing`` one: the spawn
    start method would also start a resource-tracker process that outlives
    the benchmark by a moment.  It is not a daemon, so ``ServePool`` can
    fork its worker from it, and it leads a process group of its own, so
    :meth:`kill` also ends that worker.
    """

    def __init__(self, workload: str, traced: bool, cpus: set[int]):
        ours, theirs = socket.socketpair()
        self.conn = Connection(ours.detach())
        command = [
            sys.executable, "-m", "perfbench.target",
            "--fd", str(theirs.fileno()), "--workload", workload, "--traced", str(int(traced)),
        ]
        self.started = time.perf_counter()
        try:
            with pinned(cpus):
                # Anything the target prints goes to stderr, never into
                # the result line on stdout.
                self.proc = subprocess.Popen(
                    command, cwd=ROOT, pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                    stdout=sys.stderr, start_new_session=True,
                )
        finally:
            theirs.close()
        try:
            self.ready = self._receive()
        except BaseException:
            self.kill()
            raise

    def call(self, command: str):
        self.conn.send(command)
        return self._receive()

    def _receive(self):
        if not self.conn.poll(PIPE_TIMEOUT_S):
            raise TimeoutError("the program under test stopped answering")
        return self.conn.recv()

    def peak_rss_mb(self) -> float:
        """High-water resident set of the target, read from outside it."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, command: str = "stop") -> tuple[dict, float]:
        """Ask the target to shut down; returns its reply and the seconds
        from the request until the process has exited."""
        start = time.perf_counter()
        reply = self.call(command)
        self.proc.wait(PIPE_TIMEOUT_S)
        return reply, time.perf_counter() - start

    def kill(self) -> None:
        """Make sure the target and every process it started have ended; a
        no-op after :meth:`stop` has seen a clean exit."""
        if self.proc.returncode != 0:
            # The group id stays the target's while the target is unreaped
            # or any process of the group is left.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait(PIPE_TIMEOUT_S)
        self.conn.close()


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


def _span(trace: dict, name: str) -> dict:
    return trace.get(name, {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0})


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


class ServeBench:
    """serve_benign / serve_adversarial / serve_pool: closed-loop clients
    over loopback TCP, every label checked against offline DCN.classify."""

    def __init__(self, ctx, workload: str, seed: int, cpus: set[int]):
        from perfbench import inputs

        self.workload, self.cpus = workload, cpus
        self.table = inputs.serving_table(ctx, workload)
        self.stream = inputs.build_stream(self.table, seed)
        self.refs = inputs.reference_labels(ctx, self.table)
        self.probe_row = ctx.dataset.x_test[:1]

    def provenance(self) -> dict:
        from perfbench import inputs

        return {
            "stream": self.stream.fingerprint(),
            "rows_in_table": int(len(self.table.x)),
            "adversarial_rows_in_table": int(self.table.adversarial.sum()),
            "references": inputs.digest(self.refs),
            "connections": CONNECTIONS,
        }

    def with_target(self, traced: bool, body):
        target = Target(self.workload, traced, self.cpus)
        try:
            return body(target)
        finally:
            target.kill()

    def session(self, traced: bool, seconds: float) -> dict:
        """Start a target, time its set-up and one window, then stop it."""

        def body(target: Target) -> dict:
            window = self.window(target, seconds)
            window["target_setup"] = target.ready["setup"]
            window["snapshot"] = target.call("snapshot")
            window["peak_rss_mb"] = target.peak_rss_mb()
            window["stop"], window["teardown_s"] = target.stop()
            return window

        return self.with_target(traced, body)

    def untraced(self, seconds: float) -> dict:
        from perfbench.tracing import percentile, tail_percentile

        window = self.session(False, seconds)
        setups = [window["setup_s"]] + [self.with_target(False, self.probe) for _ in range(SETUPS - 1)]
        score = self.score(window)
        latencies = score["latencies"]
        return {
            "correct": score["failed"] == 0,
            "attempted": score["attempted"],
            "failed": score["failed"],
            "metrics": {
                "setup_s": statistics.median(setups),
                "rows_per_s": score["rows_per_s"],
                "latency_p50_ms": percentile(latencies, 50) * 1e3,
                "latency_p90_ms": percentile(latencies, 90) * 1e3,
                "served_frac": score["served_frac"],
                "teardown_s": window["teardown_s"],
                "peak_rss_mb": window["peak_rss_mb"],
            },
            "notes": {
                "latency_samples": len(latencies),
                "latency_tail_supported": tail_percentile(len(latencies)),
                "setup_samples_s": setups,
            },
        }

    def traced(self, seconds: float) -> dict:
        plain = self.score(self.session(False, seconds / 2))
        window = self.session(True, seconds / 2)
        score = self.score(window)
        setup, stop = window["target_setup"], window["stop"]
        metrics = self.layers(window, score)
        metrics.update({
            "setup.import_s": setup["import_s"],
            "setup.load_s": setup["load_s"],
            "setup.warm_s": setup["warm_s"],
            "teardown.server_stop_s": stop["server_stop_s"],
            "teardown.backend_stop_s": stop["backend_stop_s"],
            "trace.overhead_frac": 1.0 - score["rows_per_s"] / plain["rows_per_s"],
        })
        return {
            "correct": plain["failed"] == 0 and score["failed"] == 0,
            "attempted": plain["attempted"] + score["attempted"],
            "failed": plain["failed"] + score["failed"],
            "metrics": metrics,
            "notes": {"untraced_rows_per_s": plain["rows_per_s"], "traced_rows_per_s": score["rows_per_s"]},
        }

    def probe(self, target: Target) -> float:
        """One more set-up sample: start, first answer, exit.  The probe
        skips the server's stop, which only the measured session times."""
        from repro.serve import DCNClient

        with DCNClient(target.ready["address"]) as client:
            client.classify(self.probe_row)
        setup_s = time.perf_counter() - target.started
        target.stop("exit")
        return setup_s

    def window(self, target: Target, seconds: float) -> dict:
        """Set-up ends at the first answer.  Then a closed loop per
        connection: connection c sends requests c, c+2, ... of the stream,
        each as soon as the previous reply arrives, until ``seconds`` have
        passed."""
        from repro.serve import DCNClient, RemoteProtocolError

        clients = [DCNClient(target.ready["address"], backoff_seed=c) for c in range(CONNECTIONS)]
        records: list[list[tuple]] = [[] for _ in clients]

        def loop(c: int) -> None:
            client, out = clients[c], records[c]
            for i in range(c, len(self.stream), len(clients)):
                x = self.table.x[self.stream.rows(i)]
                t0 = time.perf_counter()
                if t0 >= deadline:
                    return
                try:
                    result = client.classify(x)
                except RemoteProtocolError as exc:
                    result = exc
                out.append((i, t0, time.perf_counter(), result))

        try:
            clients[0].classify(self.probe_row)
            setup_s = time.perf_counter() - target.started
            threads = [threading.Thread(target=loop, args=(c,)) for c in range(len(clients))]
            start = time.perf_counter()
            deadline = start + seconds
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()
        return {
            "setup_s": setup_s,
            "start": start,
            "seconds": seconds,
            "records": sorted((r for per_client in records for r in per_client), key=lambda r: r[0]),
            "client_counters": [client.counters for client in clients],
        }

    def score(self, window: dict) -> dict:
        """Check every reply against the reference labels and summarise.

        ``rows_per_s`` is the median, over the window's whole seconds, of
        the rows served correctly in that second: one slow second on a
        shared machine moves it less than it moves a mean.
        """
        table, refs = self.table, self.refs
        latencies, overheads = [], []
        per_second = [0] * max(1, int(window["seconds"]))
        ok = rows_ok = 0
        flagged = benign_rows = benign_flagged = adv_rows = adv_recovered = 0
        for i, t0, t1, result in window["records"]:
            latencies.append(t1 - t0)
            ids = self.stream.rows(i)
            if isinstance(result, Exception) or result.status != "ok":
                continue
            if not (result.labels.shape == ids.shape and (result.labels == refs[ids]).all()):
                continue
            ok += 1
            rows_ok += len(ids)
            second = int(t1 - window["start"])
            if second < len(per_second):
                per_second[second] += len(ids)
            overheads.append(t1 - t0 - result.latency_s)
            adv = table.adversarial[ids]
            flagged += int(result.flagged.sum())
            benign_rows += int((~adv).sum())
            benign_flagged += int(result.flagged[~adv].sum())
            adv_rows += int(adv.sum())
            adv_recovered += int((result.labels[adv] == table.source[ids][adv]).sum())
        attempted = len(window["records"])
        return {
            "attempted": attempted,
            "failed": attempted - ok,
            "rows_per_s": statistics.median(per_second),
            "served_frac": ok / attempted,
            "latencies": latencies,
            "overheads": overheads,
            "flag_frac": _per(flagged, rows_ok),
            "false_flag_frac": _per(benign_flagged, benign_rows),
            "recovered_frac": _per(adv_recovered, adv_rows),
        }

    def layers(self, window: dict, score: dict) -> dict:
        from perfbench.tracing import percentile

        snap = window["snapshot"]
        trace, engine = snap["trace"], snap["engine"]
        counters = snap["telemetry"]["counters"]
        dispatch, corrector = _span(trace, "dispatch"), _span(trace, "corrector")
        detector, model = _span(trace, "detector"), _span(trace, "engine")
        codec_us, frame_bytes = self._codec(window["records"])
        hops = snap.get("hops_s", [])
        rows = counters["examples"]
        return {
            "client.call_ms.p50": percentile(score["latencies"], 50) * 1e3,
            "client.retries": sum(c.retries for c in window["client_counters"]),
            "client.shed": sum(c.shed for c in window["client_counters"]),
            "transport.overhead_ms.p50": percentile(score["overheads"], 50) * 1e3,
            "transport.codec_us.p50": percentile(codec_us, 50),
            "transport.frame_bytes.mean": statistics.fmean(frame_bytes),
            "service.latency_ms.p50": snap["telemetry"]["latency"]["p50_ms"],
            "service.rows_per_dispatch": _per(rows, counters["batches"]),
            "service.pad_frac": _per(counters["pad_rows"], rows + counters["pad_rows"]),
            "service.plan_misses": counters["plan_misses"],
            "service.dispatch_self_ms": _per(dispatch["self_s"] * 1e3, dispatch["calls"]),
            "pool.hop_ms.p50": percentile(hops, 50) * 1e3 if hops else 0.0,
            "pool.worker_deaths": snap.get("worker_deaths", 0),
            "engine.ms_per_row": _per(model["total_s"] * 1e3, model["rows"]),
            "engine.rows": engine["examples"],
            "engine.plan_misses": engine["plan_misses"],
            "detector.ms_per_call": _per(detector["total_s"] * 1e3, detector["calls"]),
            "detector.flag_frac": score["flag_frac"],
            "detector.false_flag_frac": score["false_flag_frac"],
            "corrector.ms_per_row": _per(corrector["total_s"] * 1e3, corrector["rows"]),
            "corrector.self_ms_per_row": _per(corrector["self_s"] * 1e3, corrector["rows"]),
            "corrector.forward_rows": _span(trace, "corrector>engine")["rows"],
            "corrector.time_frac": _per(corrector["total_s"], dispatch["total_s"]),
            "dcn_recovered_frac": score["recovered_frac"],
        }

    def _codec(self, records) -> tuple[list[float], list[int]]:
        """Encode + decode time (µs) of each request and reply body of the
        window, and each frame's size on the wire."""
        from repro.serve.transport import _HEADER, decode_body, encode_body

        codec_us, frame_bytes = [], []
        for i, _, _, result in records:
            if isinstance(result, Exception) or result.labels is None:
                continue
            x = self.table.x[self.stream.rows(i)]
            t0 = time.perf_counter()
            request_meta = {"id": i, "deadline_s": 30.0, "attempt": 0}
            request = encode_body(request_meta, x=x)
            decode_body(request_meta, request)
            reply_meta = {"id": i, "status": "ok", "reason": None, "retryable": False, "latency_s": 0.001}
            reply = encode_body(reply_meta, labels=result.labels, flagged=result.flagged)
            decode_body(reply_meta, reply)
            codec_us.append((time.perf_counter() - t0) * 1e6)
            for meta, body in ((request_meta, request), (reply_meta, reply)):
                frame_bytes.append(_HEADER.size + len(json.dumps(meta, separators=(",", ":"))) + len(body))
        return codec_us, frame_bytes


if __name__ == "__main__":
    sys.exit(main())
