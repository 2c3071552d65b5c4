"""The service workloads: closed-loop fetches over loopback UDP.

One ``repro serve`` subprocess serves one object; this process fetches it
again and again, one session at a time, through the public
``fetch_object_async``.  Every fetched object is hashed and compared with an
independently computed copy.  The server is started on a free port for
every set-up, and killed and reaped on every way out of the run.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import (
    OUT,
    SRC,
    Outcome,
    children_usage,
    derive_seed,
    expected_object,
    log,
    median,
    percentile,
    process_cpu_s,
    self_peak_rss_mb,
    udp_rcvbuf_errors,
)
from tracer import Tracer, merge_aggregates, read_aggregates, span_metrics

from repro.net import FetchError
from repro.net.client import fetch_object_async
from repro.net.driver import wire_config
from repro.rq import backend as rq_backend
from repro.rq.block import partition_object

clock = time.perf_counter
HERE = Path(__file__).resolve().parent

#: name -> (object bytes, induced client receive loss, host seconds per fetch
#: on the reference machine).  ``--seconds`` divided by the last fixes the
#: number of timed fetches, so both sides of a comparison do the same work.
SHAPES = {
    "fetch_lossy": (1 << 20, 0.10, 2.0),
    "fetch_large": (4 << 20, 0.0, 6.5),
}
#: Period of the client loop-lag probe.
PROBE_S = 0.005
FETCH_TIMEOUT_S = 40.0
READY_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess serving one object for ``max_sessions``."""

    def __init__(self, name: str, size: int, max_sessions: int, tag: str,
                 spans_path: Path | None = None) -> None:
        self.port = free_port()
        self.telemetry_path = OUT / f"server-{tag}.json"
        self.spans_path = spans_path
        self.telemetry_path.unlink(missing_ok=True)
        serve = ["serve", "--port", str(self.port), "--object", f"{name}={size}",
                 "--max-sessions", str(max_sessions),
                 "--telemetry", str(self.telemetry_path)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(spans_path), *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(OUT / f"server-{tag}.log", "w", encoding="utf-8")
        start = clock()
        try:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
                env=env, cwd=str(OUT),
            )
        except OSError:
            self._log.close()
            raise
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line.startswith(b"serving"):
                raise RuntimeError(f"server did not come up: {line!r}")
        except BaseException:
            self.close()
            raise
        self.ready_s = clock() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def finish(self, timeout: float = 30.0) -> dict | None:
        """Wait for the server to exit after its last session; its counters."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            log("server did not exit after its last session; killing it")
        self.close()
        try:
            return json.loads(self.telemetry_path.read_text())
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        """Stop and reap the server, whatever state it is in."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def reset_client_codec() -> None:
    """Give this process a fresh (cold) default codec context."""
    if hasattr(rq_backend, "set_default_backend"):
        rq_backend.set_default_backend(rq_backend.DEFAULT_BACKEND)


async def _fetch(name: str, port: int, loss: float, loss_seed: int, lags: list) -> bytes:
    """One fetch, with a probe measuring how late the loop wakes a short sleep."""
    loop = asyncio.get_running_loop()

    async def probe() -> None:
        while True:
            due = loop.time() + PROBE_S
            await asyncio.sleep(PROBE_S)
            lags.append(loop.time() - due)

    task = asyncio.ensure_future(probe())
    try:
        return await fetch_object_async(
            name, port=port, loss_rate=loss, loss_seed=loss_seed,
            transfer_timeout_s=FETCH_TIMEOUT_S,
        )
    finally:
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)


class Client:
    """The closed loop: fetch, check the hash, record wall and CPU time."""

    def __init__(self, name: str, expected_sha: str, loss: float, out: Outcome) -> None:
        self.name = name
        self.expected_sha = expected_sha
        self.loss = loss
        self.out = out
        self.lags: list[float] = []

    def fetch(self, port: int, loss_seed: int) -> tuple[float, float] | None:
        """(wall s, client CPU s) of one correct fetch; None if it failed."""
        self.out.attempted += 1
        cpu = time.process_time()
        start = clock()
        try:
            data = asyncio.run(_fetch(self.name, port, self.loss, loss_seed, self.lags))
        except (FetchError, OSError, asyncio.TimeoutError) as exc:
            log(f"fetch failed: {exc!r}")
            self.out.failed += 1
            return None
        wall = clock() - start
        ok = hashlib.sha256(data).hexdigest() == self.expected_sha
        self.out.check("every fetched object hashes as expected", ok)
        if not ok:
            self.out.failed += 1
            return None
        return wall, time.process_time() - cpu


def fetch_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    size, loss, nominal_s = SHAPES[workload]
    fetches = max(3, round(seconds / nominal_s))
    name = f"bench-{seed}"
    expected_sha = hashlib.sha256(expected_object(size, name)).hexdigest()
    config = wire_config()
    source_symbols = partition_object(
        size, config.symbol_size_bytes, config.max_symbols_per_block
    ).total_source_symbols
    OUT.mkdir(parents=True, exist_ok=True)
    out = Outcome()
    client = Client(name, expected_sha, loss, out)

    def loss_seed(phase: str, index: int) -> int:
        return derive_seed(seed, f"{workload}.{phase}", index)

    setups, ready = [], []
    reps = 1 if trace else 3
    server = None
    try:
        for rep in range(reps):
            last = rep == reps - 1
            start = clock()
            server = Server(name, size, 1 + fetches if last else 1, tag=f"{workload}-{rep}")
            ready.append(server.ready_s)
            reset_client_codec()
            client.fetch(server.port, loss_seed("cold", rep))
            setups.append(clock() - start)
            log(f"{workload} set-up {rep}: {setups[-1]:.2f}s (server ready {server.ready_s:.2f}s)")
            if not last:
                server.finish()
                server = None

        context = rq_backend.default_context()
        before = context.stats_dict()
        drops_before = udp_rcvbuf_errors()
        server_cpu_before = process_cpu_s(server.pid) or 0.0
        children_cpu_before, _ = children_usage()
        client.lags.clear()
        timed = []
        start = clock()
        for i in range(fetches):
            sample = client.fetch(server.port, loss_seed("timed", i))
            if sample is not None:
                timed.append(sample)
                log(f"{workload} fetch {i}: {sample[0]:.2f}s")
        loop_s = clock() - start
        drops_after = udp_rcvbuf_errors()
        after = context.stats_dict()
        telemetry = server.finish()
        server = None
        children_cpu_after, children_rss = children_usage()
    finally:
        if server is not None:
            server.close()

    out.check("server exited with its counters", telemetry is not None)
    telemetry = telemetry or {}
    walls = [wall for wall, _ in timed]
    sessions = 1 + fetches
    server_cpu = children_cpu_after - children_cpu_before - server_cpu_before

    def hit_rate(key: str) -> float:
        hits = after[key]["hits"] - before[key]["hits"]
        lookups = hits + after[key]["misses"] - before[key]["misses"]
        return hits / lookups if lookups else 0.0

    out.host_times(
        setup_s=median(setups),
        cell_wall_s=median(walls),
        ms_per_cell=1e3 * loop_s / fetches,
        fetch_p50_s=median(walls),
    )
    out.host_rates(goodput_mbps=len(walls) * size * 8 / sum(walls) / 1e6 if walls else 0.0)
    out.metrics.update({
        "wire_amplification": telemetry.get("net.server.symbols_sent", 0) / (sessions * source_symbols),
        "peak_rss_mb": self_peak_rss_mb() + children_rss,
        "net.client.cpu_s": median(cpu for _, cpu in timed),
        "net.server.cpu_s": server_cpu / fetches,
        "net.kernel.rcvbuf_errors": (drops_after - drops_before) if drops_before is not None else 0,
        "net.client.loop_lag_p99_ms": 1e3 * percentile(client.lags, 99),
        "net.client.loop_lag_max_ms": 1e3 * max(client.lags, default=0.0),
        "net.server.symbols_sent": telemetry.get("net.server.symbols_sent", 0) / sessions,
        "net.server.repair_symbols_sent": telemetry.get("net.server.repair_symbols_sent", 0) / sessions,
        "net.server.pulls_received": telemetry.get("net.server.pulls_received", 0) / sessions,
        "net.server.ready_s": median(ready),
        "rq.blocks_decoded": after["blocks_decoded"] - before["blocks_decoded"],
        "rq.plan_hit_rate": hit_rate("plan_cache"),
        "rq.decode_plan_hit_rate": hit_rate("decode_plan_cache"),
    })
    out.notes["fetches"] = fetches
    out.notes["gf256_kernel_client"] = after.get("kernel")

    if trace:
        _traced_phase(workload, name, size, fetches, client, loss_seed, out, walls)
    return out


def _traced_phase(workload, name, size, fetches, client, loss_seed, out, untraced_walls) -> None:
    """A cold fetch plus the timed loop again, with both processes traced."""
    server_spans = OUT / f"spans-{workload}-server.jsonl"
    server_spans.unlink(missing_ok=True)
    server = Server(name, size, 1 + fetches, tag=f"{workload}-traced", spans_path=server_spans)
    tracer = Tracer()
    walls = []
    try:
        reset_client_codec()
        with tracer:
            client.fetch(server.port, loss_seed("cold", 99))
            for i in range(fetches):
                sample = client.fetch(server.port, loss_seed("timed", i))
                if sample is not None:
                    walls.append(sample[0])
        server.finish()
        server = None
    finally:
        if server is not None:
            server.close()
    try:
        server_aggregates, server_missing = read_aggregates(server_spans)
    except (OSError, ValueError):
        out.check("traced server wrote its spans", False)
        server_aggregates, server_missing = {}, []
    aggregates = merge_aggregates(tracer.aggregates(), server_aggregates)
    out.metrics.update(span_metrics(aggregates))
    out.metrics["trace.overhead"] = median(walls) / median(untraced_walls) - 1.0 if walls else 0.0
    out.notes["missing_hooks"] = sorted(set(tracer.missing) | set(server_missing))
    out.notes["spans"] = tracer
