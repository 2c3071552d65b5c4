"""Tests for the persistent worker pool of the sharded executor.

Three contracts:

* the persistent pool reuses its worker processes across sweeps, ships the
  plan store once per sweep shape, and keeps results byte-identical to the
  sequential path for every worker count (and so every derived batch size);
* a job that raises inside a worker surfaces as :class:`WorkerJobError`
  naming the job, and the pool that ran it is torn down so the next sweep
  starts on fresh workers;
* the canonical decode-plan pre-warm stores exactly the keys a live lossy
  decode looks up.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import (
    ExecutorProfile,
    RunJob,
    WorkerJobError,
    execute_jobs,
    get_worker_pool,
    last_profile,
    plan_store_for_jobs,
    shutdown_worker_pool,
    warm_worker_pool,
)
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test starts and ends without a persistent pool."""
    shutdown_worker_pool()
    yield
    shutdown_worker_pool()


PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=3,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)


def _payload_jobs(seeds=(1, 2, 3, 4)) -> list[RunJob]:
    jobs = []
    for seed in seeds:
        config = PAYLOAD_CONFIG.with_seed(seed)
        transfers = (
            TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                         peers=("h8",), size_bytes=48_000, start_time=0.0),
            TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                         peers=("h10", "h14"), size_bytes=48_000, start_time=0.0),
        )
        jobs.append(RunJob(key=seed, protocol=Protocol.POLYRAPTOR,
                           config=config, transfers=transfers))
    return jobs


def _fingerprints(runs) -> list[str]:
    """Canonical byte-comparable serialisation of each run (order preserved)."""
    return [json.dumps(run.canonical_dict(), sort_keys=True, default=repr)
            for run in runs]


def _exited(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestWorkerFailure:
    def test_worker_error_names_the_job_and_replaces_the_pool(self):
        jobs = _payload_jobs(seeds=(1, 2))
        # A host that does not exist in the k=4 fabric: the worker's topology
        # lookup raises mid-sweep while sibling batches are still running.
        bad = RunJob(
            key="bad-h999", protocol=Protocol.POLYRAPTOR,
            config=PAYLOAD_CONFIG.with_seed(9),
            transfers=(TransferSpec(transfer_id=1, kind=TransferKind.UNICAST,
                                    client="h999", peers=("h0",),
                                    size_bytes=48_000, start_time=0.0),),
        )
        old_pids = warm_worker_pool(2).worker_pids
        with pytest.raises(WorkerJobError, match="bad-h999"):
            execute_jobs(jobs + [bad], num_workers=2)
        assert all(_exited(pid) for pid in old_pids)

        runs = execute_jobs(jobs, num_workers=2)
        assert not last_profile().pool_reused
        assert not set(get_worker_pool(2)[0].worker_pids) & set(old_pids)
        assert _fingerprints(runs) == _fingerprints(execute_jobs(jobs, num_workers=1))


class TestPersistentPool:
    def test_pool_is_reused_across_sweeps(self):
        jobs = _payload_jobs(seeds=(1, 2))
        execute_jobs(jobs, num_workers=2)
        pool, reused = get_worker_pool(2)
        pids = pool.worker_pids
        assert reused
        execute_jobs(jobs, num_workers=2)
        profile = last_profile()
        assert profile.pool_reused
        assert profile.pool_spawn_s == 0.0
        pool, reused = get_worker_pool(2)
        assert reused and pool.worker_pids == pids

    def test_plan_store_ships_once_per_sweep_shape(self):
        jobs = _payload_jobs(seeds=(1, 2))
        execute_jobs(jobs, num_workers=2)
        first = last_profile()
        execute_jobs(jobs, num_workers=2)
        second = last_profile()
        assert first.plans_ship_s > 0.0  # shipped on the first sweep
        assert second.plans_ship_s == 0.0  # identical store: not re-shipped

    def test_shape_change_restarts_pool(self):
        jobs = _payload_jobs(seeds=(1, 2))
        execute_jobs(jobs, num_workers=2)
        old = get_worker_pool(2)[0].worker_pids
        execute_jobs(jobs, num_workers=3)
        new = get_worker_pool(3)[0].worker_pids
        assert len(new) == 3
        assert set(new) != set(old)


class TestWorkerCounts:
    """Every worker count and every batch size matches jobs=1."""

    #: 25 jobs at ~4 batches per worker: the batch size differs per count.
    CHUNK_FOR_WORKERS = {2: 4, 3: 3, 4: 2}

    @pytest.fixture(scope="class")
    def baseline(self):
        jobs = _payload_jobs(seeds=range(1, 26))
        return jobs, _fingerprints(execute_jobs(jobs, num_workers=1))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_unicast_fetch_sweep_matches_sequential(self, baseline, workers):
        jobs, expected = baseline
        runs = execute_jobs(jobs, num_workers=workers)
        assert last_profile().chunk_size == self.CHUNK_FOR_WORKERS[workers]
        assert _fingerprints(runs) == expected

    def test_chunk_size_never_affects_results(self, baseline):
        """Batch sizes ``execute_jobs`` never derives, driven on the pool."""
        jobs, expected = baseline
        pool = warm_worker_pool(2)
        pool.ship_plan_store(plan_store_for_jobs(jobs))
        for chunk in (1, 3, 64):
            profile = ExecutorProfile()
            runs = pool.run_jobs(jobs, chunk, None, profile)
            assert profile.num_batches == -(-len(jobs) // chunk)
            assert _fingerprints(runs) == expected


class TestScenarioDeterminism:
    """Whole-scenario determinism with payload coding, jobs in {1, 2, 4}."""

    CONFIG = ExperimentConfig(
        fattree_k=4, num_foreground_transfers=3, object_bytes=48 * KILOBYTE,
        background_fraction=0.0, max_sim_time_s=30.0,
        polyraptor=PolyraptorConfig(carry_payload=True),
    )

    def test_figure1a_matches_for_all_worker_counts(self):
        from repro.experiments.figure1a import run_figure1a

        results = [run_figure1a(self.CONFIG, replica_counts=(1,), num_seeds=2,
                                jobs=jobs)
                   for jobs in (1, 2, 4)]
        for other in results[1:]:
            assert other.series == results[0].series
            assert other.summaries == results[0].summaries
            assert other.codec_stats == results[0].codec_stats

    def test_figure1b_matches_for_all_worker_counts(self):
        from repro.experiments.figure1b import run_figure1b

        results = [run_figure1b(self.CONFIG, sender_counts=(3,), num_seeds=2,
                                jobs=jobs)
                   for jobs in (1, 2, 4)]
        for other in results[1:]:
            assert other.series == results[0].series
            assert other.summaries == results[0].summaries
            assert other.codec_stats == results[0].codec_stats

    def test_sharded_figure_records_profile(self):
        from repro.experiments.figure1a import run_figure1a

        result = run_figure1a(self.CONFIG, replica_counts=(1,), num_seeds=2, jobs=2)
        assert result.exec_profile is not None
        assert result.exec_profile["workers"] == 2
        assert result.exec_profile["jobs_total"] == 4
        assert result.exec_profile["transport"] == "pickle"


class TestDecodePrewarm:
    def test_common_loss_patterns_orders_singletons_first(self):
        from repro.rq.backend import common_loss_patterns

        patterns = common_loss_patterns(4, max_missing=2, budget=None)
        assert patterns[:4] == [(0,), (1,), (2,), (3,)]
        assert patterns[4:7] == [(0, 1), (0, 2), (0, 3)]
        assert len(patterns) == 4 + 6

    def test_budget_truncates_deterministically(self):
        from repro.rq.backend import common_loss_patterns

        assert common_loss_patterns(10, budget=12) == common_loss_patterns(
            10, budget=None
        )[:12]

    def test_prewarmed_keys_hit_a_live_lossy_decode(self):
        import random

        from repro.rq.backend import CodecContext, prewarm_canonical_decode_plans
        from repro.rq.decoder import BlockDecoder
        from repro.rq.encoder import BlockEncoder
        from tests.rq.reference import ReferenceContext

        k, symbol_size = 12, 64
        store = prewarm_canonical_decode_plans([k])
        context = CodecContext(preload=store)
        rng = random.Random(3)
        source = [bytes(rng.getrandbits(8) for _ in range(symbol_size))
                  for _ in range(k)]
        encoder = BlockEncoder(source, context=ReferenceContext())
        # Lose source symbol 3; receive the rest plus repair ESIs k..k+2 --
        # exactly the received set the singleton pre-warm pattern models.
        decoder = BlockDecoder(k, symbol_size, context=context)
        for esi in [e for e in range(k) if e != 3] + [k, k + 1, k + 2]:
            decoder.add_symbol(esi, encoder.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert b"".join(result.source_symbols) == b"".join(source)
        stats = context.stats_dict()
        assert stats["decode_plan_cache"]["hits"] >= 1
        assert stats["decode_plan_cache"]["misses"] == 0

    def test_lossy_payload_sweep_triggers_auto_decode_prewarm(self):
        from repro.experiments.parallel import plan_store_for_jobs
        from repro.faults.schedule import gray_failure_schedule
        from repro.network.topology import FatTreeTopology
        from repro.sim.randomness import RandomStreams

        jobs = _payload_jobs(seeds=(1,))
        plain = plan_store_for_jobs(jobs)
        schedule = gray_failure_schedule(
            FatTreeTopology(4), RandomStreams(1).stream("gray"),
            loss_probability=0.05,
        )
        lossy = [RunJob(key=job.key, protocol=job.protocol, config=job.config,
                        transfers=job.transfers, fault_schedule=schedule)
                 for job in jobs]
        warmed = plan_store_for_jobs(lossy)
        decode_keys = [key for key in warmed.plans if key[0] == "decode"]
        assert decode_keys, "lossy payload sweep should pre-warm decode plans"
        assert not [key for key in plain.plans if key[0] == "decode"]
