"""The simulator workloads: ``paper_cell`` and ``campaign``.

Both run with payload off, so the codec (``repro.rq``) and the UDP service
(``repro.net``) do no work here; the traced run checks that their span
counts stay zero.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from common import Outcome, derive_seed, log, median, self_peak_rss_mb, vm_hwm_mb
from tracer import Tracer, span_metrics

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments import parallel
from repro.experiments.parallel import RunJob, execute_jobs, last_profile, run_job
from repro.experiments.runner import build_environment, offer_transfers, run_transfers
from repro.faults.schedule import gray_failure_schedule, shared_risk_group_schedule
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.units import KILOBYTE, MEGABYTE
from repro.workloads.background import background_transfers
from repro.workloads.spec import TransferKind, TransferSpec
from repro.workloads.storage import StorageWorkload

clock = time.perf_counter

#: Host seconds of one paper cell on the reference machine (2-core x86);
#: ``--seconds`` divided by this fixes how many distinct cells a run measures.
CELL_NOMINAL_S = 10.0
#: Set-ups timed per paper_cell run (set-up is short and noisy).
CELL_SETUPS = 5
#: Campaign cells per measured second on the reference machine.
CAMPAIGN_CELLS_PER_S = 150
#: Campaign cells re-run sequentially for the determinism check.
CAMPAIGN_SAMPLE = 30


def use_pickle_transport() -> None:
    """Keep executor payloads in pipes, not ``/dev/shm`` segments.

    The benchmark writes only inside its checkout, and a shared-memory
    segment lives outside it.  Ignored once the program has a single
    transport and no longer offers the setting.
    """
    if hasattr(parallel, "set_transport"):
        parallel.set_transport("pickle")


def stop_worker_processes() -> None:
    """Stop the executor's workers and the resource tracker they share.

    ``spawn`` workers start a ``multiprocessing`` resource-tracker process
    that would otherwise outlive the run: it exits only once its parent
    has, and nothing waits for it then.  Closing its pipe here ends it, and
    the wait reaps it.
    """
    parallel.shutdown_worker_pool()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


class RunnerProbe:
    """Time ``build_environment``/``offer_transfers`` inside ``run_transfers``.

    Rebinds the two runner functions for the duration of a ``with`` block
    and keeps the last environment built, so counters the ``RunResult``
    does not carry (sender symbol counts, forwarded packets) can be read
    after the run.  It observes only; results are unchanged.
    """

    def __enter__(self) -> "RunnerProbe":
        from repro.experiments import runner

        self._runner = runner
        self._build, self._offer = runner.build_environment, runner.offer_transfers
        self.env = None
        self.build_s = self.offer_s = 0.0

        def build(*args, **kwargs):
            start = clock()
            env = self._build(*args, **kwargs)
            self.build_s = clock() - start
            self.env = env
            return env

        def offer(*args, **kwargs):
            start = clock()
            self._offer(*args, **kwargs)
            self.offer_s = clock() - start

        runner.build_environment, runner.offer_transfers = build, offer
        return self

    def __exit__(self, *exc) -> None:
        self._runner.build_environment, self._runner.offer_transfers = self._build, self._offer


def sender_symbols(env) -> tuple[int, int]:
    """(symbols sent, source symbols) summed over every transfer of a run."""
    sent = 0
    source: dict[int, int] = {}
    for agent in env.polyraptor_agents.values():
        for session in agent.all_sender_sessions:
            core = session.core
            sent += core.symbols_sent
            source[core.session_id] = core.oti.total_source_symbols
    return sent, sum(source.values())


def fingerprint(result) -> str:
    text = json.dumps(result.canonical_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# paper_cell ---------------------------------------------------------------------------


def paper_cell_config(seed: int, index: int = 0) -> ExperimentConfig:
    """The paper fabric: k=10 FatTree, 1 Gbps / 10 us, load 0.33, 20% background."""
    return ExperimentConfig(
        fattree_k=10,
        num_foreground_transfers=16,
        object_bytes=1 * MEGABYTE,
        background_fraction=0.2,
        offered_load=0.33,
        seed=derive_seed(seed, "paper_cell", index),
        max_sim_time_s=20.0,
    )


def paper_cell_transfers(config: ExperimentConfig):
    """8 three-replica multicast writes, 8 three-source reads, and background.

    Writes and reads are generated as in figures 1a and 1b, from their own
    random streams, and share one arrival process rate; background is 20% of
    all transfers.
    """
    topology = FatTreeTopology(config.fattree_k)
    streams = RandomStreams(config.seed)
    half = config.num_foreground_transfers // 2
    transfers = []
    for kind in (TransferKind.REPLICATE, TransferKind.FETCH):
        workload = StorageWorkload(
            kind=kind,
            num_replicas=3,
            object_bytes=config.object_bytes,
            arrival_rate_per_second=config.arrival_rate_per_second,
        )
        transfers += workload.generate(
            topology, half, streams.stream(f"storage.{kind.value}.3"),
            first_transfer_id=len(transfers), label="foreground",
        )
    transfers += background_transfers(
        topology, config.num_background_transfers, config.object_bytes,
        config.arrival_rate_per_second, streams.stream("background"),
        first_transfer_id=len(transfers),
    )
    return topology, transfers


def _run_cell(config: ExperimentConfig):
    """One cell: (set-up seconds, RunResult, environment, transfers)."""
    start = clock()
    topology, transfers = paper_cell_transfers(config)
    generate_s = clock() - start
    with RunnerProbe() as probe:
        result = run_transfers(Protocol.POLYRAPTOR, config, transfers, topology=topology)
    return generate_s + probe.build_s + probe.offer_s, result, probe.env, transfers


def _cell_counts(result, env, transfers) -> dict:
    """Exact counts of one cell run, pooled across the distinct cells."""
    records = [r for r in result.registry.records if r.label == "foreground" and r.completed]
    kinds = {t.transfer_id: t.kind for t in transfers}
    sent, source = sender_symbols(env)
    return {
        "reads": [r.flow_completion_time for r in records if kinds[r.transfer_id] is TransferKind.FETCH],
        "writes": [r.flow_completion_time for r in records if kinds[r.transfer_id] is TransferKind.REPLICATE],
        "bytes": sum(r.transfer_bytes for r in records),
        "busy": sum(r.flow_completion_time for r in records),
        "sent": sent,
        "source": source,
        "events": result.events_processed,
        "wall": result.wall_time_s,
        "forwarded": env.network.total_forwarded_packets,
        "trimmed": env.network.total_trimmed_packets,
        "dropped": env.network.total_dropped_packets,
    }


def paper_cell(seed: int, seconds: float, trace: bool) -> Outcome:
    """Distinct cells from the seed, then the first one again for determinism.

    The traced run measures one cell and repeats it with tracing on.
    """
    distinct = 1 if trace else max(2, round(seconds / CELL_NOMINAL_S))
    configs = [paper_cell_config(seed, i) for i in range(distinct)]
    if not trace:
        configs.append(configs[0])
    out = Outcome()
    setups, walls, per_cell_ms, counts = [], [], [], []
    digests: dict[int, set] = {}
    for index, config in enumerate(configs):
        setup_s, result, env, transfers = _run_cell(config)
        log(f"paper_cell cell {index}: setup {setup_s:.2f}s run {result.wall_time_s:.2f}s "
            f"events {result.events_processed}")
        setups.append(setup_s)
        walls.append(result.wall_time_s)
        per_cell_ms.append(1e3 * (setup_s + result.wall_time_s))
        digests.setdefault(config.seed, set()).add(fingerprint(result))
        out.attempted += len(transfers)
        out.failed += sum(1 for r in result.registry.records if not r.completed)
        if index < distinct:
            counts.append(_cell_counts(result, env, transfers))
        del env, result
    # Set up without running, so set-up time is a median of several.
    while len(setups) < CELL_SETUPS:
        start = clock()
        topology, transfers = paper_cell_transfers(configs[0])
        env = build_environment(Protocol.POLYRAPTOR, configs[0], topology=topology)
        offer_transfers(env, Protocol.POLYRAPTOR, transfers)
        setups.append(clock() - start)
        del env

    def pooled(key):
        return [value for c in counts for value in c[key]]

    def total(key):
        return sum(c[key] for c in counts)

    first = counts[0]
    out.host_times(
        setup_s=median(setups),
        cell_wall_s=median(walls),
        ms_per_cell=median(per_cell_ms),
    )
    out.metrics.update({
        # Reads finish near one of two times (uncontended, or sharing a
        # link), so a median over reads jumps between the modes from seed to
        # seed; the median over cells of each cell's mean read time does not.
        "fetch_p50_s": median(sum(c["reads"]) / len(c["reads"]) for c in counts),
        "goodput_mbps": total("bytes") * 8 / total("busy") / 1e6,
        "wire_amplification": total("sent") / total("source"),
        "peak_rss_mb": self_peak_rss_mb(),
        "sim.events": first["events"],
        "sim.events_per_s": total("events") / total("wall"),
        "sim.write_fct_p50_ms": 1e3 * median(pooled("writes")),
        "sim.read_fct_p50_ms": 1e3 * median(pooled("reads")),
        "network.forwarded_packets": first["forwarded"],
        "network.trimmed_packets": first["trimmed"],
        "network.dropped_packets": first["dropped"],
    })
    if trace:
        tracer = Tracer()
        with tracer:
            _, traced, _, _ = _run_cell(configs[0])
        digests[configs[0].seed].add(fingerprint(traced))
        aggregates = tracer.aggregates()
        out.metrics.update(span_metrics(aggregates))
        out.metrics["network.build_s"] = aggregates["network.build"]["total_s"]
        out.metrics["trace.overhead"] = traced.wall_time_s / walls[0] - 1.0
        out.notes["missing_hooks"] = tracer.missing
        out.notes["spans"] = tracer
    out.check("a repeated cell fingerprints identically",
              all(len(found) == 1 for found in digests.values()))
    out.check("every transfer completed", out.failed == 0)
    out.notes["cell_digests"] = {seed: sorted(found) for seed, found in digests.items()}
    return out


# campaign -----------------------------------------------------------------------------

CAMPAIGN_KINDS = (TransferKind.UNICAST, TransferKind.FETCH)
CAMPAIGN_FAULTS = ("none", "srlg", "gray")
CAMPAIGN_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=1,
    object_bytes=8 * KILOBYTE,
    background_fraction=0.0,
    offered_load=0.15,
    max_sim_time_s=5.0,
)


def campaign_job(base_seed: int, index: int, topology: FatTreeTopology) -> RunJob:
    """The ``index``-th cell: a unicast or 2-source fetch under one fault regime."""
    seed = base_seed + index
    kind = CAMPAIGN_KINDS[index % len(CAMPAIGN_KINDS)]
    fault = CAMPAIGN_FAULTS[(index // len(CAMPAIGN_KINDS)) % len(CAMPAIGN_FAULTS)]
    config = CAMPAIGN_CONFIG.with_seed(seed)
    streams = RandomStreams(seed)
    rng = streams.stream("campaign.workload")
    hosts = list(topology.hosts)
    client = hosts[rng.randrange(len(hosts))]
    peers = [host for host in hosts if host != client]
    if kind is TransferKind.UNICAST:
        chosen = (peers[rng.randrange(len(peers))],)
    else:
        first = peers[rng.randrange(len(peers))]
        rest = [p for p in peers if p != first]
        chosen = (first, rest[rng.randrange(len(rest))])
    transfer = TransferSpec(
        transfer_id=0, kind=kind, client=client, peers=chosen,
        size_bytes=config.object_bytes, start_time=0.0, label="campaign",
    )
    fault_rng = streams.stream("campaign.faults")
    schedule = None
    if fault == "srlg":
        schedule = shared_risk_group_schedule(
            topology, fault_rng, group_size=2, start_time=0.0, duration=0.01
        )
    elif fault == "gray":
        schedule = gray_failure_schedule(
            topology, fault_rng, loss_probability=0.01, start_time=0.0, duration=0.01
        )
    return RunJob(
        key=(seed, kind.value, fault), protocol=Protocol.POLYRAPTOR, config=config,
        transfers=(transfer,), fault_schedule=schedule,
    )


def campaign(seed: int, seconds: float, trace: bool) -> Outcome:
    base_seed = derive_seed(seed, "campaign")
    cells = max(60, 6 * round(seconds * CAMPAIGN_CELLS_PER_S / 6))
    workers = max(2, parallel.available_cpus())
    out = Outcome()
    setups, warms = [], []
    try:
        for _ in range(1 if trace else 3):
            parallel.shutdown_worker_pool()
            start = clock()
            topology = FatTreeTopology(CAMPAIGN_CONFIG.fattree_k)
            jobs = [campaign_job(base_seed, i, topology) for i in range(cells)]
            warm_start = clock()
            pool = parallel.warm_worker_pool(workers)
            warms.append(clock() - warm_start)
            setups.append(clock() - start)
        start = clock()
        try:
            results = execute_jobs(jobs, num_workers=workers, label="campaign")
        except Exception as exc:  # a worker failure counts every cell as failed
            log(f"campaign: execute_jobs failed: {exc!r}")
            results = []
        wall = clock() - start
        profile = last_profile()
        worker_rss = sum(vm_hwm_mb(pid) for pid in pool.worker_pids)
    finally:
        stop_worker_processes()
    log(f"campaign: {cells} cells on {workers} workers in {wall:.2f}s")

    out.attempted = cells
    done = [run for run in results if all(r.completed for r in run.registry.records)]
    out.failed = cells - len(done)
    records = [r for run in done for r in run.registry.records]
    # Every healthy 8 KB fetch completes in the same simulated time, so the
    # campaign's fetch time is the host time to simulate one fetch cell.
    fetch_walls = [run.wall_time_s for run, job in zip(results, jobs)
                   if job.transfers[0].kind is TransferKind.FETCH]
    busy = sum(r.flow_completion_time for r in records)

    # Determinism: a spread sample, re-run sequentially here, must
    # fingerprint identically to the pooled results.  Outside timing.
    sample = sorted({round(i * (cells - 1) / (CAMPAIGN_SAMPLE - 1)) for i in range(CAMPAIGN_SAMPLE)})
    sent = source = forwarded = trimmed = dropped = 0
    replay_start = clock()
    replayed = {}
    for index in sample:
        with RunnerProbe() as probe:
            replayed[index] = run_job(jobs[index])
        s, k = sender_symbols(probe.env)
        sent, source = sent + s, source + k
        forwarded += probe.env.network.total_forwarded_packets
        trimmed += probe.env.network.total_trimmed_packets
        dropped += probe.env.network.total_dropped_packets
    replay_s = clock() - replay_start
    if results:
        out.check("sampled cells fingerprint identically when re-run sequentially",
                  all(fingerprint(replayed[i]) == fingerprint(results[i]) for i in sample))
    out.check("every cell completed", out.failed == 0)

    run_s = sum(run.wall_time_s for run in results)
    events = sum(run.events_processed for run in results)
    out.host_times(
        setup_s=median(setups),
        cell_wall_s=median(run.wall_time_s for run in results),
        ms_per_cell=1e3 * wall / cells,
        fetch_p50_s=median(fetch_walls),
    )
    out.metrics.update({
        "goodput_mbps": sum(r.transfer_bytes for r in records) * 8 / busy / 1e6 if busy else 0.0,
        "wire_amplification": sent / source if source else 0.0,
        "peak_rss_mb": self_peak_rss_mb() + worker_rss,
        "sim.events": events,
        "sim.events_per_s": events / run_s if run_s else 0.0,
        "network.forwarded_packets": forwarded,
        "network.trimmed_packets": trimmed,
        "network.dropped_packets": dropped,
        "parallel.pool_warm_s": median(warms),
    })
    if profile is not None:
        out.metrics.update({
            "parallel.serialize_s": profile.serialize_s,
            "parallel.dispatch_s": profile.dispatch_s,
            "parallel.merge_s": profile.merge_s,
            "parallel.prewarm_s": profile.prewarm_s,
            "parallel.busy_share": profile.run_s / (profile.workers * profile.wall_s),
        })
        out.notes["executor_transport"] = profile.transport
        out.notes["executor_profile"] = profile.as_dict()
    if trace:
        tracer = Tracer()
        start = clock()
        with tracer:
            traced = {index: run_job(jobs[index]) for index in sample}
        traced_s = clock() - start
        out.check("traced replay fingerprints identically",
                  all(fingerprint(traced[i]) == fingerprint(replayed[i]) for i in sample))
        aggregates = tracer.aggregates()
        out.metrics.update(span_metrics(aggregates))
        out.metrics["network.build_s"] = aggregates["network.build"]["total_s"] / len(sample)
        out.metrics["parallel.cell_build_ms"] = 1e3 * aggregates["runner.build"]["total_s"] / len(sample)
        out.metrics["parallel.cell_run_ms"] = 1e3 * aggregates["sim.dispatch"]["total_s"] / len(sample)
        out.metrics["trace.overhead"] = traced_s / replay_s - 1.0
        out.notes["missing_hooks"] = tracer.missing
        out.notes["spans"] = tracer
    return out
