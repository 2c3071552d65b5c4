"""The repository benchmark: one workload per run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` measures the per-layer metrics, with span wrappers installed
on each layer's public entry points (see ``perfbench/README.md``).  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric with its unit, the
correctness checks and the provenance of the run.  ``--workload all`` runs
every workload of ``BENCHMARK.json`` (and the ungated ``fetch_large``), each
in its own process, and prints one table.  A run whose correctness checks
fail still prints its result and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workloads measured by the tool but not listed in BENCHMARK.json.
UNGATED = ("fetch_large",)
SIM_WORKLOADS = ("paper_cell", "campaign")
#: Metric prefixes that must read zero on a workload that bypasses them.
ZERO_ON = {
    "sim": ("rq.", "net."),
    "fetch": ("sim.", "network.", "parallel."),
}


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path.name} not found at the checkout root")
    return json.loads(path.read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: the program's sources (src/repro) are not in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import OUT, HostSpeed, log, provenance, stop_children, write_json

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")  # keep worker scratch in the checkout
    import sim_workloads

    import fetch_workloads

    sim_workloads.use_pickle_transport()
    if workload not in SIM_WORKLOADS and workload not in fetch_workloads.SHAPES:
        sys.exit(f"perfbench: unknown workload {workload!r}")
    try:
        with HostSpeed() as speed:
            if workload == "paper_cell":
                outcome = sim_workloads.paper_cell(seed, seconds, trace)
            elif workload == "campaign":
                outcome = sim_workloads.campaign(seed, seconds, trace)
            else:
                outcome = fetch_workloads.fetch_workload(workload, seed, seconds, trace)
    finally:
        left = stop_children()
    if left:
        log(f"stopped child processes the workload left running: {left}")
        outcome.check("the workload stopped every process it started", False)
    outcome.to_reference_time(speed)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = outcome.metrics.get(name)
        if value is None:
            if not trace:
                sys.exit(f"perfbench: workload {workload} did not measure {name}")
            value = 0  # a layer this workload does not use
        metrics[name] = {"value": value, "unit": entry["unit"]}
    if trace:
        kind = "sim" if workload in SIM_WORKLOADS else "fetch"
        stray = sorted(
            name for name, m in metrics.items()
            if name.startswith(ZERO_ON[kind]) and m["value"] != 0
        )
        outcome.check("bypassed layers read zero", not stray)
        if stray:
            outcome.notes["nonzero_bypassed"] = stray

    tracer = outcome.notes.pop("spans", None)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl", extra={"process": "client"})
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(), "checks": outcome.checks, "notes": outcome.notes,
        "all_metrics": outcome.metrics,
    }
    write_json(OUT / f"report-{workload}-{seed}-{int(trace)}.json", report)
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for name, ok in outcome.checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    if outcome.notes.get("missing_hooks"):
        log(f"hooks not found (layer spans read zero): {outcome.notes['missing_hooks']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process; one table at the end."""
    names = [w["name"] for w in load_spec()["workloads"]] + list(UNGATED)
    status, rows = 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            rows[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            rows[name] = None
        if proc.returncode != 0 or rows[name] is None:
            status = 1
    metric_names = sorted({m for row in rows.values() if row for m in row["metrics"]})
    print(f"{'metric':34s}" + "".join(f"{n:>14s}" for n in names))
    for metric in metric_names:
        cells = []
        for name in names:
            m = rows[name]["metrics"].get(metric) if rows[name] else None
            cells.append(f"{m['value']:>14.5g}" if m else f"{'-':>14s}")
        unit = next(rows[n]["metrics"][metric]["unit"] for n in names
                    if rows[n] and metric in rows[n]["metrics"])
        print(f"{metric:34s}" + "".join(cells) + f"  {unit}")
    for name in names:
        row = rows[name]
        verdict = "FAILED TO RUN" if row is None else (
            f"correct={row['correct']} attempted={row['attempted']} failed={row['failed']}")
        print(f"# {name}: {verdict}" + ("  (not gated)" if name in UNGATED else ""))
    return status


def main() -> int:
    # A terminated run unwinds, so servers and workers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
