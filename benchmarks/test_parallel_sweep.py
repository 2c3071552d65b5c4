"""Benchmark: sharded multi-seed figure1a sweep vs sequential execution.

The acceptance contract of the parallel executor is two-sided: a sweep run
with ``jobs=N`` must (a) produce results identical to sequential execution
-- per-series rank curves, summaries and merged plan-cache counters -- and
(b) actually pay for its spawn/IPC overhead.  This benchmark measures both
and records them, with the executor's per-phase profile, in
``BENCH_parallel_sweep.json``.

The determinism half is asserted unconditionally.  The wall-clock half is
honest about the hardware: ``available_cpus()`` reads the scheduler
affinity mask (what a cgroup-limited CI runner can actually use, unlike
``os.cpu_count``), the persistent pool is warmed *outside* the timed
region (that cost is paid once per process, not per sweep, and is recorded
separately as ``pool_warm_s``), and the speedup floor is only enforced
when at least two cores are usable.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import publish
from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1a import run_figure1a
from repro.experiments.parallel import available_cpus, warm_worker_pool
from repro.experiments.report import format_codec_stats, format_exec_profile
from repro.utils.units import KILOBYTE

RESULTS_DIR = Path(__file__).parent / "results"

NUM_SEEDS = 4
JOBS = 4

SWEEP_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=6,
    object_bytes=96 * KILOBYTE,
    background_fraction=0.0,
    offered_load=0.15,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)


def _run(jobs: int):
    start = time.perf_counter()
    result = run_figure1a(SWEEP_CONFIG, replica_counts=(1,), num_seeds=NUM_SEEDS,
                          jobs=jobs)
    return result, time.perf_counter() - start


def _assert_identical(candidate, reference) -> None:
    assert candidate.series == reference.series
    assert candidate.summaries == reference.summaries
    assert candidate.codec_stats == reference.codec_stats


def test_sharded_sweep_is_identical_and_faster(benchmark):
    sequential, sequential_s = _run(jobs=1)
    sequential_profile = sequential.exec_profile

    warm_start = time.perf_counter()
    warm_worker_pool(JOBS)
    pool_warm_s = time.perf_counter() - warm_start

    sharded, sharded_s = benchmark.pedantic(
        lambda: _run(jobs=JOBS), rounds=1, iterations=1
    )
    sharded_profile = sharded.exec_profile

    # Determinism: the sharded sweep must be indistinguishable from the
    # sequential one in every reported number.
    _assert_identical(sharded, sequential)

    cpu_count = available_cpus()
    speedup = sequential_s / sharded_s if sharded_s > 0 else 0.0
    speedup_enforced = cpu_count >= 2
    record = {
        "parameters": {
            "num_seeds": NUM_SEEDS,
            "jobs": JOBS,
            "fattree_k": SWEEP_CONFIG.fattree_k,
            "sessions": SWEEP_CONFIG.num_foreground_transfers,
            "object_kb": SWEEP_CONFIG.object_bytes // KILOBYTE,
            "carry_payload": True,
        },
        "cpu_count": cpu_count,
        "pool_warm_s": pool_warm_s,
        "sequential_s": sequential_s,
        "sharded_s": sharded_s,
        "speedup": speedup,
        "speedup_enforced": speedup_enforced,
        "results_identical": True,
        "profiles": {
            "sequential": sequential_profile,
            "sharded": sharded_profile,
        },
        "merged_plan_cache": sharded.codec_stats["1 Replica RQ"]["plan_cache"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_parallel_sweep.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    publish(
        "parallel_sweep",
        f"Sharded figure1a sweep ({NUM_SEEDS} seeds, jobs={JOBS}, "
        f"{cpu_count} usable cores)\n"
        f"sequential: {sequential_s:.2f}s   sharded: {sharded_s:.2f}s   "
        f"speedup: {speedup:.2f}x "
        f"({'enforced' if speedup_enforced else 'not enforced: single core'})   "
        f"pool warm (untimed): {pool_warm_s:.2f}s\n"
        + format_exec_profile(sharded_profile, title="Sharded executor profile")
        + "\n"
        + format_codec_stats(sharded.codec_stats),
    )

    # Pre-warmed encode plans mean encode never misses; any misses left are
    # decode-side (plans keyed by the canonical loss pattern, which this
    # fault-free sweep does not pre-warm), so they are bounded by the number
    # of decoded blocks.
    stats = sharded.codec_stats["1 Replica RQ"]
    assert stats["plan_cache"]["misses"] <= stats["blocks_decoded"]
    assert stats["plan_cache"]["hits"] >= stats["blocks_encoded"]

    # The profile must expose the per-phase accounting the json promises.
    assert sharded_profile is not None
    for field in ("bytes_shipped", "serialize_s", "worker_init_s", "merge_s",
                  "wall_s", "run_s", "pool_spawn_s", "plans_ship_s"):
        assert field in sharded_profile
    assert sharded_profile["workers"] == JOBS

    if speedup_enforced:
        assert speedup > 1.0, (
            f"expected sharding to beat sequential on {cpu_count} cores, "
            f"got {speedup:.2f}x"
        )
    if cpu_count >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x wall-clock reduction on {cpu_count} cores, got {speedup:.2f}x"
        )
