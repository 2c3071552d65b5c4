"""Micro-benchmarks of the pluggable GF(256) kernel layer.

Measures warm repeated-block encode/decode per registered-and-available
kernel -- the steady state of any real transfer mix, where the elimination
plan is cached and the batched kernel matmul is the whole cost -- and a
decode plan-cache hit-rate comparison between canonical missing-source keys
and keys on the exact received-ESI set under >= 10% loss.  Results land in
``benchmarks/results/BENCH_gf_kernels.json`` so future PRs can track kernel
throughput over time.

The headline assertion: the best available kernel (``native`` whenever a C
compiler or a prebuilt library is present) is at least ``SPEEDUP_FLOOR``
times faster than the ``numpy`` ground-truth kernel on warm repeated-block
work.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import available_kernels, best_kernel_name
from repro.rq.params import for_k
from tests.rq.reference import ReferenceContext

SYMBOL_SIZE = 1408
RESULTS_DIR = Path(__file__).parent / "results"

#: Warm-block speedup the best available kernel must reach over ``numpy`` on
#: combined encode+decode time at the largest K'.  On an AVX2 x86-64 host the
#: ``native`` kernel measures 17-22x here (its replay matmul alone 21-28x);
#: the floor assumes that vector path -- the scalar table loop other CPUs run
#: is only ~1.7x ``numpy``.
SPEEDUP_FLOOR = 10.0


def _source_blocks(k: int, count: int = 5) -> list[list[bytes]]:
    blocks = []
    for seed in range(count):
        rng = random.Random(seed)
        blocks.append(
            [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]
        )
    return blocks


def _lossy_esis(k: int, seed: int = 2) -> list[int]:
    rng = random.Random(seed)
    kept = [esi for esi in range(k) if rng.random() > 0.3]
    return kept + list(range(k, k + (k - len(kept)) + 2))


def _time_per_block(action, blocks, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds per block.

    Taking the minimum over repeated timing windows is the standard defence
    against scheduler noise on shared CI runners: interference can only
    inflate a window, so the minimum is the closest estimate of true cost,
    and the speedup gate below stays stable without weakening the floor.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for block in blocks:
            action(block)
        best = min(best, (time.perf_counter() - start) / len(blocks))
    return best


def _measure_kernel(name: str, k: int, blocks, esis) -> tuple[float, float]:
    """Warm-block (encode_s, decode_s) for one kernel at one K'."""
    context = CodecContext(kernel=name)
    warm_encoder = BlockEncoder(blocks[0], context=context)
    symbols = [(esi, warm_encoder.symbol(esi)) for esi in esis]

    def decode(_block):
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        assert decoder.decode().success

    decode(blocks[0])  # warm the decode-side plan as well
    encode_s = _time_per_block(
        lambda block: BlockEncoder(block, context=context), blocks
    )
    decode_s = _time_per_block(decode, blocks)
    return encode_s, decode_s


def _canonical_hit_rates(k: int = 16) -> dict:
    """Decode hit rates, canonical vs exact keys, over a >=10%-loss stream.

    The canonical side is read from a live context's counters.  Keying by
    the exact received-ESI set would hit only on a repeated set, so that
    side is computed from the stream itself: each distinct set is one miss.
    """
    source = _source_blocks(k, count=1)[0]
    encoder = BlockEncoder(source, context=ReferenceContext())
    patterns = [(0, 1), (2, 9), (5, 11, 14), (3, 8)]
    sessions = []
    for surplus in (2, 3, 4):
        for missing in patterns:
            kept = [esi for esi in range(k) if esi not in missing]
            repairs = list(range(k, k + len(missing) + surplus))
            sessions.append([(esi, encoder.symbol(esi)) for esi in kept + repairs])
    context = CodecContext()
    for symbols in sessions:
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        assert decoder.decode().success
    distinct_sets = len({tuple(esi for esi, _ in symbols) for symbols in sessions})
    return {
        "canonical": {
            "hits": context.decode_stats.hits,
            "misses": context.decode_stats.misses,
            "hit_rate": context.decode_stats.hit_rate,
        },
        "exact_esi": {
            "hits": len(sessions) - distinct_sets,
            "misses": distinct_sets,
            "hit_rate": (len(sessions) - distinct_sets) / len(sessions),
        },
    }


def test_kernel_throughput_and_canonical_hit_rate(benchmark):
    """Warm-block throughput per kernel + the canonical-keying hit-rate win."""
    kernels = available_kernels()
    best = best_kernel_name()
    series = []
    for k in (32, 128):
        for_k(k)  # exclude the cached parameter search from every measurement
        blocks = _source_blocks(k)
        esis = _lossy_esis(k)
        encode_times: dict[str, float] = {}
        decode_times: dict[str, float] = {}
        for name in kernels:
            encode_times[name], decode_times[name] = _measure_kernel(
                name, k, blocks, esis
            )
        point = {
            "k": k,
            "encode_s_per_block": encode_times,
            "decode_s_per_block": decode_times,
            "best_kernel": best,
            "best_speedup_vs_numpy": {
                "encode": encode_times["numpy"] / encode_times[best],
                "decode": decode_times["numpy"] / decode_times[best],
                "combined": (encode_times["numpy"] + decode_times["numpy"])
                / (encode_times[best] + decode_times[best]),
            },
        }
        series.append(point)
        print(
            f"\nK'={k}: best={best} "
            f"encode {point['best_speedup_vs_numpy']['encode']:.2f}x, "
            f"decode {point['best_speedup_vs_numpy']['decode']:.2f}x vs numpy"
        )

    hit_rates = _canonical_hit_rates()
    print(
        f"decode plan-cache hit rate: canonical "
        f"{hit_rates['canonical']['hit_rate']:.3f} vs exact-ESI "
        f"{hit_rates['exact_esi']['hit_rate']:.3f}"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gf_kernels.json").write_text(
        json.dumps(
            {
                "symbol_size": SYMBOL_SIZE,
                "unit": "seconds_per_block_warm",
                "kernels_measured": kernels,
                "best_kernel": best,
                "series": series,
                "canonical_decode_hit_rates": hit_rates,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Register the headline path (warm encode on the best kernel) with
    # pytest-benchmark so --benchmark-only runs select this test.
    best_context = CodecContext(kernel=best)
    blocks = _source_blocks(128, count=1)
    BlockEncoder(blocks[0], context=best_context)  # warm
    benchmark.pedantic(
        lambda: BlockEncoder(blocks[0], context=best_context), rounds=3, iterations=1
    )

    assert hit_rates["canonical"]["hit_rate"] > hit_rates["exact_esi"]["hit_rate"], (
        "canonical decode keys must strictly raise the plan-cache hit rate"
    )
    big = series[-1]
    combined = big["best_speedup_vs_numpy"]["combined"]
    assert best == "numpy" or combined >= SPEEDUP_FLOOR, (
        f"best kernel {best!r} only reached {combined:.2f}x the numpy kernel "
        f"on warm K'=128 blocks (floor: {SPEEDUP_FLOOR}x)"
    )


@pytest.mark.parametrize("name", sorted(set(available_kernels()) - {"numpy"}))
def test_each_kernel_decodes_byte_identically(name):
    """Sanity companion to the timing: accelerated kernels change no bytes."""
    k = 32
    blocks = _source_blocks(k, count=1)
    esis = _lossy_esis(k)
    decoded = {}
    for kernel in ("numpy", name):
        context = CodecContext(kernel=kernel)
        encoder = BlockEncoder(blocks[0], context=context)
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
        for esi in esis:
            decoder.add_symbol(esi, encoder.symbol(esi))
        decoded[kernel] = decoder.decode().source_symbols
    assert decoded[name] == decoded["numpy"]
