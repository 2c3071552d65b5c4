"""Determinism tests for the sharded parallel experiment executor.

The contract under test: ``execute_jobs(jobs, num_workers=N)`` returns the
same results, in the same order, for every N -- including the plan-cache
hit/miss counters, because the sequential path and every worker preload the
same pre-warmed plan store.  Workers use the ``spawn`` start method, so these
tests also prove that every job artifact survives pickling.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.figure1a import run_figure1a
from repro.experiments.parallel import (
    RunJob,
    available_cpus,
    execute_jobs,
    last_profile,
    plan_store_for_jobs,
    resolve_jobs,
    run_job,
    set_progress_logger,
    sweep_block_sizes,
)
from repro.experiments.report import merge_codec_stats
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=4,
    object_bytes=64 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)


def _payload_jobs(seeds=(1, 2, 3, 4)) -> list[RunJob]:
    """One payload-carrying Polyraptor job per seed (codec genuinely runs)."""
    jobs = []
    for seed in seeds:
        config = PAYLOAD_CONFIG.with_seed(seed)
        transfers = (
            TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                         peers=("h8",), size_bytes=64_000, start_time=0.0),
            TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                         peers=("h10", "h14"), size_bytes=64_000, start_time=0.0),
        )
        jobs.append(RunJob(key=seed, protocol=Protocol.POLYRAPTOR,
                           config=config, transfers=transfers))
    return jobs


def _transfer_metrics(run):
    """The per-transfer facts the figures are computed from."""
    return [
        (r.transfer_id, r.label, r.transfer_bytes, r.start_time, r.completion_time)
        for r in run.registry.records
    ]


class TestRunJob:
    def test_jobs_are_picklable(self):
        job = _payload_jobs()[0]
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key == job.key
        assert clone.config == job.config
        assert clone.transfers == job.transfers

    def test_run_results_are_picklable(self):
        run = run_job(_payload_jobs(seeds=(1,))[0])
        clone = pickle.loads(pickle.dumps(run))
        assert _transfer_metrics(clone) == _transfer_metrics(run)
        assert clone.codec_stats == run.codec_stats


class TestPlanStoreGating:
    def test_identity_mode_jobs_need_no_store(self):
        config = ExperimentConfig.quick()
        job = RunJob(
            key=0, protocol=Protocol.POLYRAPTOR, config=config,
            transfers=(TransferSpec(transfer_id=1, kind=TransferKind.UNICAST,
                                    client="h0", peers=("h8",),
                                    size_bytes=64_000, start_time=0.0),),
        )
        assert plan_store_for_jobs([job]) is None

    def test_tcp_jobs_need_no_store(self):
        job = RunJob(
            key=0, protocol=Protocol.TCP, config=PAYLOAD_CONFIG,
            transfers=_payload_jobs(seeds=(1,))[0].transfers,
        )
        assert plan_store_for_jobs([job]) is None

    def test_payload_jobs_get_exactly_their_block_sizes(self):
        jobs = _payload_jobs(seeds=(1,))
        store = plan_store_for_jobs(jobs)
        assert store is not None
        assert len(store) == len(sweep_block_sizes(jobs))
        assert len(store) >= 1


class TestShardedDeterminism:
    """--jobs N must be indistinguishable from --jobs 1 in every reported number."""

    @pytest.fixture(scope="class")
    def sequential_and_sharded(self):
        jobs = _payload_jobs()
        return jobs, execute_jobs(jobs, num_workers=1), execute_jobs(jobs, num_workers=4)

    def test_results_arrive_in_job_order(self, sequential_and_sharded):
        jobs, sequential, sharded = sequential_and_sharded
        assert len(sequential) == len(sharded) == len(jobs)

    def test_per_transfer_metrics_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert _transfer_metrics(seq_run) == _transfer_metrics(par_run)

    def test_fabric_counters_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert seq_run.events_processed == par_run.events_processed
            assert seq_run.trimmed_packets == par_run.trimmed_packets
            assert seq_run.dropped_packets == par_run.dropped_packets
            assert seq_run.sim_time_s == par_run.sim_time_s

    def test_per_run_codec_stats_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        for seq_run, par_run in zip(sequential, sharded):
            assert seq_run.codec_stats == par_run.codec_stats

    def test_merged_codec_stats_identical(self, sequential_and_sharded):
        _, sequential, sharded = sequential_and_sharded
        merged_seq = merge_codec_stats([run.codec_stats for run in sequential])
        merged_par = merge_codec_stats([run.codec_stats for run in sharded])
        assert merged_seq == merged_par
        assert merged_seq["shards"] == 4
        # The parent pre-warmed every encode plan, so no shard ever misses.
        assert merged_seq["plan_cache"]["hits"] > 0
        assert merged_seq["plan_cache"]["misses"] == 0

    def test_everything_completed(self, sequential_and_sharded):
        _, sequential, _ = sequential_and_sharded
        for run in sequential:
            assert run.completion_fraction == 1.0


class TestFigureSweepDeterminism:
    def test_figure1a_multi_seed_sweep_matches_sequential(self):
        config = ExperimentConfig(
            fattree_k=4, num_foreground_transfers=3, object_bytes=48 * KILOBYTE,
            background_fraction=0.0, max_sim_time_s=30.0,
            polyraptor=PolyraptorConfig(carry_payload=True),
        )
        sequential = run_figure1a(config, replica_counts=(1,), num_seeds=2, jobs=1)
        sharded = run_figure1a(config, replica_counts=(1,), num_seeds=2, jobs=4)
        assert sequential.series == sharded.series
        assert sequential.summaries == sharded.summaries
        assert sequential.codec_stats == sharded.codec_stats
        label = "1 Replica RQ"
        assert sequential.codec_stats[label]["shards"] == 2
        assert sequential.codec_stats[label]["plan_cache"]["misses"] == 0


class TestMergeCodecStats:
    def test_no_stats_merges_to_none(self):
        assert merge_codec_stats([None, None]) is None
        assert merge_codec_stats([]) is None

    def test_counters_sum_and_hit_rate_recomputes(self):
        one = {"kernel": "native", "blocks_encoded": 2, "blocks_decoded": 1,
               "plan_cache": {"hits": 3, "misses": 1, "evictions": 0, "hit_rate": 0.75},
               "cached_plans": 1}
        two = {"kernel": "native", "blocks_encoded": 4, "blocks_decoded": 0,
               "plan_cache": {"hits": 1, "misses": 3, "evictions": 2, "hit_rate": 0.25},
               "cached_plans": 3}
        merged = merge_codec_stats([one, None, two])
        assert merged["kernel"] == "native"
        assert merged["blocks_encoded"] == 6
        assert merged["blocks_decoded"] == 1
        assert merged["plan_cache"]["hits"] == 4
        assert merged["plan_cache"]["misses"] == 4
        assert merged["plan_cache"]["evictions"] == 2
        assert merged["plan_cache"]["hit_rate"] == pytest.approx(0.5)
        # cached_plans is a max, not a sum: shards hold the same pre-warmed
        # plans, so summing would double-count them.
        assert merged["cached_plans"] == 3
        assert merged["shards"] == 2

    def test_mixed_kernels_are_named(self):
        one = {"kernel": "native", "plan_cache": {}}
        two = {"kernel": "numpy", "plan_cache": {}}
        assert merge_codec_stats([one, two])["kernel"] == "native+numpy"


class TestResolveJobs:
    def test_ints_and_decimal_strings_pass_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5

    def test_auto_resolves_to_available_cpus(self):
        # Affinity-aware, not raw cpu_count: a taskset/cgroup-limited runner
        # must not spawn more workers than it can actually schedule.
        assert resolve_jobs("auto") == available_cpus()
        assert resolve_jobs(" AUTO ") == resolve_jobs("auto")

    def test_available_cpus_respects_affinity(self):
        import os

        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == max(1, len(os.sched_getaffinity(0)))
        else:  # pragma: no cover - non-Linux
            assert available_cpus() == max(1, os.cpu_count() or 1)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs("many")


class TestProgressLogging:
    def test_progress_fires_once_per_job_in_order(self):
        jobs = _payload_jobs(seeds=(1, 2))
        calls = []
        execute_jobs(jobs, num_workers=1,
                     progress=lambda i, n, job, run: calls.append((i, n, job.key)))
        assert calls == [(0, 2, 1), (1, 2, 2)]

    def test_default_progress_logger_is_consulted(self):
        jobs = _payload_jobs(seeds=(1,))
        calls = []
        set_progress_logger(lambda i, n, job, run: calls.append(i))
        try:
            execute_jobs(jobs, num_workers=1)
        finally:
            set_progress_logger(None)
        assert calls == [0]

    def test_progress_fires_for_sharded_runs(self):
        jobs = _payload_jobs(seeds=(1, 2, 3))
        calls = []
        execute_jobs(jobs, num_workers=2,
                     progress=lambda i, n, job, run: calls.append(i))
        assert calls == [0, 1, 2]


class TestExecutorProfile:
    def test_sequential_run_records_inline_profile(self):
        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs, num_workers=1, label="unit")
        profile = last_profile()
        assert profile is not None
        assert profile.transport == "inline"
        assert profile.label == "unit"
        assert profile.jobs_total == 1
        assert profile.bytes_shipped == 0
        assert profile.run_s > 0
        assert profile.wall_s >= profile.run_s

    def test_profile_round_trips_through_as_dict(self):
        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs, num_workers=1)
        snapshot = last_profile().as_dict()
        for key in ("transport", "workers", "jobs_total", "bytes_shipped",
                    "prewarm_s", "pool_spawn_s", "worker_init_s", "plans_ship_s",
                    "serialize_s", "merge_s", "run_s", "wall_s", "cpu_count"):
            assert key in snapshot

    def test_format_exec_profile_renders_and_handles_none(self):
        from repro.experiments.report import format_exec_profile

        jobs = _payload_jobs(seeds=(1,))
        execute_jobs(jobs, num_workers=1)
        table = format_exec_profile(last_profile().as_dict())
        assert "transport" in table and "inline" in table
        assert "no executor profile" in format_exec_profile(None)


class TestCliJobs:
    def test_jobs_and_seeds_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure1a", "--jobs", "4", "--seeds", "2"])
        assert args.jobs == 4
        assert args.seeds == 2

    def test_jobs_auto_parses_to_available_cpus(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["figure1a", "--jobs", "auto"])
        assert args.jobs == available_cpus()

    def test_shm_and_chunk_flags_rejected(self):
        from repro.cli import build_parser

        for flags in (["--shm"], ["--no-shm"], ["--chunk", "3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["mix", *flags])

    def test_jobs_garbage_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure1a", "--jobs", "lots"])

    def test_jobs_defaults_to_sequential(self):
        from repro.cli import build_parser

        for command in ("figure1a", "figure1b", "figure1c", "ablations",
                        "hotspot", "mix", "resilience", "all"):
            args = build_parser().parse_args([command])
            assert args.jobs == 1
            assert args.progress is False

    @pytest.mark.parametrize(
        "option",
        ["--plan-cache", "--plan-cache PATH", "codec_backend", "canonical_decode_plans",
         "backend"],
    )
    def test_removed_codec_options_rejected(self, option):
        from repro.cli import build_parser
        from repro.rq.backend import CodecContext

        if option.startswith("--"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["mix", *option.replace("PATH", "p.pkl").split()])
        elif option == "codec_backend":
            with pytest.raises(TypeError):
                PolyraptorConfig(codec_backend="planned")
        else:
            with pytest.raises(TypeError):
                CodecContext(**{option: True})

    def test_seeds_only_accepted_by_multi_seed_sweeps(self):
        from repro.cli import build_parser

        for command in ("figure1a", "figure1b", "figure1c", "resilience", "all"):
            assert build_parser().parse_args([command]).seeds is None
        for command in ("ablations", "hotspot", "mix"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--seeds", "2"])

    def test_resilience_intensities_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["resilience", "--intensities", "0", "0.5", "1"])
        assert args.intensities == [0.0, 0.5, 1.0]
