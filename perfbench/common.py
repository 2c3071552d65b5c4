"""Shared plumbing for the benchmark: seeds, probes, provenance and results.

Everything here observes the program from outside: it reads ``/proc``,
resource usage and public properties, and never changes what the program
does.  The workload modules import it; ``run.py`` turns a workload's
:class:`Outcome` into the single JSON result line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources, imported from the checkout (nothing is installed).
SRC = ROOT / "src"
#: Scratch output of a run (spans, server telemetry, logs); ignored by git.
OUT = ROOT / ".bench_out"

#: A seed kept out of development: confirm a claimed gain on it last, on
#: inputs the change was not tuned on.
HELD_OUT_SEED = 90917


def derive_seed(seed: int, purpose: str, index: int = 0) -> int:
    """A 31-bit seed for ``purpose`` derived from the workload seed.

    Hash-derived, so two purposes never share a stream and a change of
    workload seed moves every derived seed.
    """
    digest = hashlib.sha256(f"{seed}/{purpose}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def expected_object(size: int, name: str) -> bytes:
    """The bytes ``repro serve --object NAME=SIZE`` serves, computed here.

    A SHA-256 counter stream over ``"{name}:{counter}"``.  It is written out
    again rather than imported, so a fetched object is checked against an
    independent computation of what the server should hold.
    """
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{name}:{counter}".encode("utf-8")).digest()
        counter += 1
    return bytes(out[:size])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by nearest rank; 0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


# Process probes ----------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process in MiB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    """Peak RSS of this process in MiB."""
    return vm_hwm_mb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_usage() -> tuple[float, float]:
    """(CPU seconds, largest peak RSS in MiB) over every reaped child."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float | None:
    """utime + stime of a live process from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks



def child_pids() -> list[int]:
    """PIDs of this process's children, running or not yet reaped."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Terminate and reap every child still left; returns their PIDs.

    The workloads stop what they start; this is the last guard on every
    way out of a run, so no process outlives the benchmark.
    """
    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    pending = set(left)
    while pending:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        if not pending:
            break
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            break
        time.sleep(0.05)
    return left

def udp_rcvbuf_errors() -> int | None:
    """The ``Udp RcvbufErrors`` counter of this network namespace."""
    try:
        with open("/proc/net/snmp", encoding="ascii") as handle:
            rows = [line.split() for line in handle if line.startswith("Udp:")]
    except OSError:
        return None
    if len(rows) < 2 or "RcvbufErrors" not in rows[0]:
        return None
    return int(rows[1][rows[0].index("RcvbufErrors")])


# Host speed --------------------------------------------------------------------------

#: CPU seconds one calibration loop takes on the reference machine at its
#: usual speed (2-core x86-64 VM, Python 3.11).
CALIBRATION_REF_S = 0.003
#: Seconds between calibration loops.
CALIBRATION_PERIOD_S = 0.25


def _calibration_loop() -> int:
    total, table = 0, {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """How fast the host runs, from a fixed loop timed throughout a run.

    The reference machine's speed drifts by tens of percent over minutes
    because of load outside the benchmark, and that moves every host time
    alike.  While the ``with`` block runs, a thread wakes every
    :data:`CALIBRATION_PERIOD_S` and times a fixed pure-Python loop in its
    own CPU time (so waiting for the interpreter lock does not count); it
    costs about 1% of one core.  :attr:`slowdown` is the median loop time
    over the reference time.  The loop is the benchmark's own code, so a
    change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(CALIBRATION_PERIOD_S):
            start = time.thread_time()
            _calibration_loop()
            self.samples.append(time.thread_time() - start)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    @property
    def slowdown(self) -> float:
        """Median loop time over the reference time: above 1 on a slow host."""
        if not self.samples:
            return 1.0
        return median(self.samples) / CALIBRATION_REF_S


# Provenance --------------------------------------------------------------------------


def provenance() -> dict:
    """What was measured, where: code version, interpreter, machine, kernel."""
    import numpy

    import repro
    from repro.rq.kernels import default_kernel_name

    try:
        from repro.experiments.parallel import resolve_transport

        transport = resolve_transport(None)
    except (ImportError, ValueError):
        transport = "pickle"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "repro_version": getattr(repro, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "gf256_kernel": default_kernel_name(),
        "executor_transport": transport,
        "held_out_seed": HELD_OUT_SEED,
    }


# Outcome -----------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run produced, before it is printed.

    ``metrics`` maps a metric name to its value; units come from
    ``BENCHMARK.json``.  Host durations and rates are kept raw until
    :meth:`to_reference_time` scales them.  ``checks`` maps a correctness check to whether it
    held; ``notes`` carries diagnostics printed beside the result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    host_durations: dict = field(default_factory=dict)
    host_rate_values: dict = field(default_factory=dict)

    def host_times(self, **durations: float) -> None:
        """Host durations, to be reported in reference time (see :class:`HostSpeed`)."""
        self.host_durations.update(durations)

    def host_rates(self, **rates: float) -> None:
        """Rates of host work, to be reported in reference time."""
        self.host_rate_values.update(rates)

    def to_reference_time(self, speed: HostSpeed) -> None:
        """Fill in host times and rates scaled by the run's slowdown."""
        slowdown = speed.slowdown
        for name, value in self.host_durations.items():
            self.metrics[name] = value / slowdown
        for name, value in self.host_rate_values.items():
            self.metrics[name] = value * slowdown
        self.metrics["host.slowdown"] = slowdown
        self.notes["raw"] = {**self.host_durations, **self.host_rate_values}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(self.checks.get(name, True) and ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True, default=repr) + "\n")


def log(message: str) -> None:
    """Progress to stderr; stdout is reserved for the report and result."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
