"""Tests for the picklable PlanStore and plan pre-warming.

The store is the artifact that lets sharded experiment runs share one set of
elimination plans: these tests pin down the bytes round-trip, the
cache <-> store conversions, that pre-warming eliminates on the process
kernel, and the guarantee that a preloaded context produces byte-identical
symbols with zero misses.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.rq.backend import (
    CodecContext,
    prewarm_canonical_decode_plans,
    prewarm_decode_plans,
    prewarm_encode_plans,
)
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import KERNEL_ENV_VAR, available_kernels, get_kernel
from repro.rq.params import for_k
from repro.rq.plan import (
    PlanCache,
    PlanStore,
    build_plan,
    constraint_matrix,
    received_matrix,
)

K = 16
SYMBOL_SIZE = 32


def _source_symbols(seed: int = 3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(K)]


class TestPlanStoreRoundTrip:
    def test_loaded_operators_are_read_only(self):
        store = prewarm_encode_plans([K])
        loaded = PlanStore.from_bytes(store.to_bytes())
        plan = next(iter(loaded.plans.values()))
        assert not plan.operator.flags.writeable

    def test_bytes_round_trip(self):
        store = prewarm_encode_plans([K])
        assert len(PlanStore.from_bytes(store.to_bytes())) == len(store)

    def test_from_bytes_rejects_other_objects(self):
        with pytest.raises(TypeError):
            PlanStore.from_bytes(pickle.dumps({"not": "a store"}))

class TestCacheStoreConversions:
    def test_snapshot_contains_lazily_built_plans(self):
        context = CodecContext()
        BlockEncoder(_source_symbols(), context=context)
        store = context.snapshot_plans()
        assert ("encode", for_k(K)) in store

    def test_prewarm_matches_lazily_built_keys(self):
        context = CodecContext()
        BlockEncoder(_source_symbols(), context=context)
        lazy = context.snapshot_plans()
        warmed = prewarm_encode_plans([K])
        assert set(warmed.plans) == set(lazy.plans)
        for key in warmed.plans:
            assert np.array_equal(warmed.plans[key].operator, lazy.plans[key].operator)

    def test_preload_counts_neither_hits_nor_misses(self):
        context = CodecContext(preload=prewarm_encode_plans([K]))
        assert context.stats.hits == 0
        assert context.stats.misses == 0
        assert context.cached_plans == 1

    def test_preloaded_context_encodes_with_zero_misses(self):
        source = _source_symbols()
        cold = CodecContext()
        cold_encoder = BlockEncoder(source, context=cold)
        warm = CodecContext(preload=prewarm_encode_plans([K]))
        warm_encoder = BlockEncoder(source, context=warm)
        assert cold.stats.misses == 1
        assert warm.stats.misses == 0
        assert warm.stats.hits == 1
        esis = list(range(K + 4))
        assert np.array_equal(cold_encoder.symbol_block(esis),
                              warm_encoder.symbol_block(esis))

    def test_plan_cache_preload_respects_capacity(self):
        cache = PlanCache(max_entries=1)
        inserted = cache.preload(prewarm_encode_plans([K, K + 1, K + 2]))
        assert inserted == 3
        assert len(cache) == 1
        assert cache.evictions == 2


class TestDecodePrewarm:
    def test_prewarmed_decode_plan_hits_and_decodes(self):
        source = _source_symbols(seed=9)
        encoder = BlockEncoder(source)
        # Lose the first two source symbols; receive two repair symbols.
        esis = tuple(range(2, K)) + (K, K + 1)
        store = prewarm_decode_plans(K, [esis])
        context = CodecContext(preload=store)
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi in esis:
            decoder.add_symbol(esi, encoder.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source
        assert context.stats.misses == 0
        assert context.stats.hits == 1

    def test_store_reusable_across_contexts(self):
        store = prewarm_encode_plans([K])
        for _ in range(2):
            context = CodecContext(preload=store)
            BlockEncoder(_source_symbols(), context=context)
            assert context.stats.misses == 0

    @pytest.mark.parametrize("name", available_kernels())
    def test_prewarm_eliminates_on_the_process_kernel(self, name, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, name)
        kernel_class = type(get_kernel(None))
        assert get_kernel(None).name == name
        calls = []
        original = kernel_class.addmul_rows

        def spy(self, *args, **kwargs):
            calls.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(kernel_class, "addmul_rows", spy)
        encode = prewarm_encode_plans([K])
        assert calls and set(calls) == {name}
        calls.clear()
        decode = prewarm_canonical_decode_plans([K], budget_per_k=6)
        assert calls and set(calls) == {name}
        monkeypatch.undo()

        # Byte-equal to plans eliminated on the numpy ground truth.
        for (_, params), plan in encode.plans.items():
            truth = build_plan(constraint_matrix(params))
            assert plan.operator.tobytes() == truth.operator.tobytes()
        assert len(decode) == 6
        for (_, params, missing, repairs), plan in decode.plans.items():
            used = tuple(esi for esi in range(K) if esi not in missing) + repairs
            truth = build_plan(
                received_matrix(params, used), num_unknowns=params.num_intermediate_symbols
            )
            assert plan.operator.tobytes() == truth.operator.tobytes()
