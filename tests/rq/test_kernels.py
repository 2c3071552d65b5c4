"""Tests for the GF(256) kernel registry and canonical decode-plan keys.

Three load-bearing properties:

1. **Kernel equivalence.**  The ``native`` kernel produces byte-identical
   ``matmul`` / ``matvec`` / ``addmul_rows`` results vs the ``numpy`` ground
   truth -- property-tested over odd widths, zero and one coefficients,
   empty shapes, strided views and every one of the 256 factors -- and
   plans and full lossy decode sessions come out identical across kernels.

2. **The native build is lazy, once, and optional.**  Nothing compiles
   until a byte operation runs (a payload-off simulation never does),
   concurrent first users compile once, and with no compiler everything
   falls back to ``numpy``.

3. **Canonical decode keys raise the hit rate under loss** (strictly, with
   counters straight from :class:`~repro.rq.backend.CodecContext`): blocks
   that lose the same source pattern share one elimination plan no matter
   how many surplus repair symbols each happened to receive, where keying
   by the exact received-ESI set would build a fresh plan per surplus count.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import RunJob, run_job
from repro.rq import kernels
from repro.rq.backend import CodecContext, prewarm_decode_plans
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.gf256 import MUL_TABLE, gf_addmul_rows, gf_matmul, gf_matvec
from repro.rq.kernels import (
    KERNEL_ENV_VAR,
    available_kernels,
    best_kernel_name,
    default_kernel_name,
    get_kernel,
    registered_kernels,
)
from repro.rq.params import for_k
from repro.rq.solver import gaussian_rank
from repro.rq.plan import (
    build_plan,
    canonical_decode_candidates,
    canonical_decode_key,
    constraint_matrix,
    missing_source_pattern,
    received_matrix,
)
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec
from tests.rq.reference import ReferenceContext

K = 16
SYMBOL_SIZE = 64
ACCELERATED = sorted(set(available_kernels()) - {"numpy"})
needs_native = pytest.mark.skipif(
    "native" not in available_kernels(), reason="no C compiler and no prebuilt library"
)


def source_block(k: int = K, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


@pytest.fixture
def unloaded(monkeypatch):
    """A process that has neither loaded nor failed to build the native library."""
    monkeypatch.setattr(kernels, "_LIBRARY", None)
    monkeypatch.setattr(kernels, "_BUILD_ERROR", None)


@pytest.fixture
def no_native(unloaded, monkeypatch, tmp_path):
    """A platform with no compiler and no prebuilt native library."""
    monkeypatch.setattr(kernels, "_can_build", lambda: False)
    monkeypatch.setattr(kernels, "library_path", lambda source=None: tmp_path / "absent.so")


class TestKernelRegistry:
    def test_registry_is_numpy_and_native(self):
        assert registered_kernels() == ["native", "numpy"]

    def test_pure_python_kernels_always_available(self):
        assert "numpy" in available_kernels()

    @needs_native
    def test_best_kernel_prefers_acceleration(self):
        assert best_kernel_name() == "native"

    def test_get_kernel_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown GF\\(256\\) kernel"):
            get_kernel("does-not-exist")

    @pytest.mark.parametrize("removed", ["blocked", "numba"])
    def test_removed_kernels_are_rejected_with_the_valid_names(self, removed):
        with pytest.raises(ValueError, match="'auto' or one of: native, numpy"):
            get_kernel(removed)
        with pytest.raises(ValueError, match="choose 'auto' or one of: native, numpy"):
            PolyraptorConfig(codec_kernel=removed)

    def test_get_kernel_passes_instances_through(self):
        kernel = get_kernel("numpy")
        assert get_kernel(kernel) is kernel

    def test_instances_are_shared(self):
        assert get_kernel("numpy") is get_kernel("numpy")

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "numpy")
        assert default_kernel_name() == "numpy"
        assert CodecContext().kernel_name == "numpy"

    def test_env_var_bogus_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "not-a-kernel")
        with pytest.warns(RuntimeWarning, match="not an available"):
            assert default_kernel_name() == best_kernel_name()

    def test_explicit_unavailable_kernel_raises(self, no_native):
        with pytest.raises(ValueError, match="not available"):
            get_kernel("native")

    def test_context_reports_kernel_in_stats(self):
        context = CodecContext(kernel="numpy")
        stats = context.stats_dict()
        assert stats["kernel"] == "numpy"


class TestNativeFallback:
    """Without a compiler (or when the build fails) everything runs on numpy."""

    def test_no_compiler_means_numpy_only(self, no_native, monkeypatch):
        assert available_kernels() == ["numpy"]
        assert best_kernel_name() == "numpy"
        assert CodecContext().kernel_name == "numpy"
        with pytest.raises(ValueError, match="not available"):
            get_kernel("native")
        monkeypatch.setenv(KERNEL_ENV_VAR, "native")
        with pytest.warns(RuntimeWarning, match="not an available"):
            assert default_kernel_name() == "numpy"

    def test_missing_source_means_numpy_only(self, unloaded, monkeypatch):
        def no_source(source=None):
            raise FileNotFoundError("_gf256.c")

        monkeypatch.setattr(kernels, "library_path", no_source)
        assert available_kernels() == ["numpy"]

    def test_no_compiler_codec_results_are_identical(self, no_native):
        source = source_block(seed=3)
        esis = list(range(3, K)) + list(range(K, K + 5))
        encoder = BlockEncoder(source, context=CodecContext())
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=CodecContext())
        for esi in esis:
            decoder.add_symbol(esi, encoder.symbol(esi))
        assert decoder.decode().source_symbols == source

    def test_failed_build_raises_then_falls_back(self, no_native, monkeypatch):
        monkeypatch.setattr(kernels, "_can_build", lambda: True)
        assert "native" in available_kernels()
        native = get_kernel("native")

        def broken_build(source=None):
            raise RuntimeError("compiler exploded")

        monkeypatch.setattr(kernels, "build_library", broken_build)
        with pytest.raises(RuntimeError, match="compiler exploded"):
            native.matmul(np.ones((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=np.uint8))
        assert available_kernels() == ["numpy"]
        assert best_kernel_name() == "numpy"


class TestLazyBuild:
    def test_resolution_and_empty_operations_never_build(self, unloaded, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "build_library", lambda source=None: calls.append(1))
        monkeypatch.setattr(kernels, "_can_build", lambda: True)
        kernels.available_kernels()
        kernels.best_kernel_name()
        native = kernels.NativeKernel()
        assert native.matmul(np.zeros((0, 3), np.uint8), np.zeros((3, 5), np.uint8)).shape == (0, 5)
        native.addmul_rows(np.zeros((3, 4), np.uint8), 0, np.array([], np.intp), np.array([], np.uint8))
        assert calls == []

    @needs_native
    def test_payload_off_simulation_never_builds(self, unloaded, monkeypatch):
        calls = []

        def recording_build(source=None):
            calls.append(source)
            raise RuntimeError("the build must not run")

        monkeypatch.setattr(kernels, "build_library", recording_build)
        config = ExperimentConfig(
            fattree_k=4, num_foreground_transfers=2, object_bytes=64 * KILOBYTE,
            background_fraction=0.0, max_sim_time_s=30.0,
            polyraptor=PolyraptorConfig(carry_payload=False, codec_kernel="native"),
        )
        transfers = (
            TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                         peers=("h8",), size_bytes=64_000, start_time=0.0),
            TransferSpec(transfer_id=2, kind=TransferKind.FETCH, client="h2",
                         peers=("h10", "h14"), size_bytes=64_000, start_time=0.0),
        )
        run = run_job(RunJob(key=1, protocol=Protocol.POLYRAPTOR, config=config,
                             transfers=transfers))
        assert run.completion_fraction == 1.0
        assert run.codec_stats["kernel"] == "native"
        assert calls == []
        # Control: the first byte operation does reach the build.
        with pytest.raises(RuntimeError, match="must not run"):
            get_kernel("native").matmul(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8))
        assert len(calls) == 1

    @needs_native
    def test_build_is_keyed_by_source_hash(self, tmp_path):
        source = tmp_path / "_gf256.c"
        shutil.copy(kernels._SOURCE, source)
        first = kernels.library_path(source)
        assert first.parent == tmp_path
        assert first.name.startswith("_gf256-") and first.suffix == ".so"
        edited = tmp_path / "edited" / "_gf256.c"
        edited.parent.mkdir()
        edited.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        assert kernels.library_path(edited).name != first.name

    @needs_native
    def test_concurrent_first_users_compile_once(self, tmp_path):
        """Processes racing for a cold build: one compile, one complete file."""
        source = tmp_path / "lib" / "_gf256.c"
        source.parent.mkdir()
        shutil.copy(kernels._SOURCE, source)
        bindir = tmp_path / "bin"
        bindir.mkdir()
        log = tmp_path / "compiles.log"
        wrapper = bindir / "cc"
        wrapper.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec "{shutil.which("cc")}" "$@"\n')
        wrapper.chmod(0o755)
        env = dict(os.environ, PATH=f"{bindir}{os.pathsep}{os.environ['PATH']}",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        script = (
            "import ctypes, sys; from pathlib import Path; "
            "from repro.rq.kernels import build_library; "
            "path = build_library(Path(sys.argv[1])); ctypes.CDLL(str(path)); print(path)"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(source)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(3)
        ]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outputs
        assert len({out.strip() for out, _ in outputs}) == 1
        assert log.read_text().count("x") == 1
        assert sorted(p.name for p in source.parent.iterdir()) == sorted(
            ["_gf256.c", kernels.library_path(source).name]
        )

    @needs_native
    def test_threads_share_one_build(self, tmp_path, monkeypatch):
        source = tmp_path / "_gf256.c"
        shutil.copy(kernels._SOURCE, source)
        real_run = subprocess.run
        compiles = []

        def counting_run(*args, **kwargs):
            compiles.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(kernels.subprocess, "run", counting_run)
        paths = []
        threads = [
            threading.Thread(target=lambda: paths.append(kernels.build_library(source)))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert len(paths) == len(threads)
        assert len(compiles) == 1
        assert len(set(paths)) == 1 and paths[0].exists()


# Equivalence vs the numpy ground truth ------------------------------------------

@st.composite
def matrices(draw, rows, cols):
    """A uint8 (rows x cols) matrix rich in 0 and 1, sometimes a strided view."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
    special = rng.random((rows, cols))
    matrix[special < 0.2] = 0
    matrix[(special >= 0.2) & (special < 0.3)] = 1
    if rows and draw(st.booleans()):
        matrix[draw(st.integers(0, rows - 1))] = 0  # a zero row
    layout = draw(st.sampled_from(["contiguous", "column-offset", "row-step", "transposed"]))
    if layout == "column-offset":
        padded = np.zeros((rows, cols + 3), dtype=np.uint8)
        padded[:, 3:] = matrix
        return padded[:, 3:]
    if layout == "row-step":
        spread = np.zeros((2 * rows, cols), dtype=np.uint8)
        spread[::2] = matrix
        return spread[::2]
    if layout == "transposed":
        return np.ascontiguousarray(matrix.T).T
    return matrix


#: Symbol widths around the 16- and 32-byte vector lanes.
widths = st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 100, 1408])


@needs_native
class TestNativeEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matmul_matches_numpy(self, data):
        m, n, t = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6)), data.draw(widths)
        a, b = data.draw(matrices(m, n)), data.draw(matrices(n, t))
        assert np.array_equal(get_kernel("native").matmul(a, b), gf_matmul(a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matvec_matches_numpy(self, data):
        m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 40))
        matrix, vector = data.draw(matrices(m, n)), data.draw(matrices(1, n))[0]
        assert np.array_equal(get_kernel("native").matvec(matrix, vector),
                              gf_matvec(matrix, vector))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_addmul_rows_matches_numpy(self, data):
        rows, width = data.draw(st.integers(1, 8)), data.draw(widths)
        offset = data.draw(st.integers(0, min(width, 5)))
        work = np.array(data.draw(matrices(rows, width)))
        source = data.draw(st.integers(0, rows - 1))
        others = [row for row in range(rows) if row != source]
        targets = np.array(
            data.draw(st.lists(st.sampled_from(others), unique=True)) if others else [],
            dtype=np.intp,
        )
        factors = data.draw(matrices(1, targets.size))[0]
        expected, actual = work.copy(), work.copy()
        # The solver passes a column slice (the columns right of the pivot).
        gf_addmul_rows(expected[:, offset:], source, targets, factors)
        get_kernel("native").addmul_rows(actual[:, offset:], source, targets, factors)
        assert np.array_equal(actual, expected)

    def test_every_factor_and_byte_value(self):
        """All 256 x 256 products, plus a tail that is not a multiple of 32."""
        values = np.concatenate([np.arange(256), np.arange(7)]).astype(np.uint8)
        work = np.zeros((257, values.size), dtype=np.uint8)
        work[256] = values
        work[:256] = np.random.default_rng(11).integers(0, 256, (256, values.size))
        targets = np.arange(256, dtype=np.intp)
        factors = np.arange(256, dtype=np.uint8)
        expected, actual = work.copy(), work.copy()
        gf_addmul_rows(expected, 256, targets, factors)
        get_kernel("native").addmul_rows(actual, 256, targets, factors)
        assert np.array_equal(actual, expected)
        assert np.array_equal(actual[:256] ^ work[:256], MUL_TABLE[:, values])

    def test_scalar_path_matches_vector_path(self):
        """The table loop other CPUs run gives the same bytes as AVX2."""
        library = kernels._load_library()
        rng = np.random.default_rng(12)
        a = rng.integers(0, 256, (9, 40), dtype=np.uint8)
        b = rng.integers(0, 256, (40, 1419), dtype=np.uint8)
        native = get_kernel("native")
        try:
            library.gf256_init(MUL_TABLE.ctypes.data, 0)
            scalar = native.matmul(a, b)
        finally:
            library.gf256_init(MUL_TABLE.ctypes.data, 1)
        assert np.array_equal(scalar, native.matmul(a, b))
        assert np.array_equal(scalar, gf_matmul(a, b))

    def test_addmul_rows_validates_indices(self):
        work = np.zeros((3, 8), dtype=np.uint8)
        native = get_kernel("native")
        with pytest.raises(IndexError):
            native.addmul_rows(work, 0, np.array([3]), np.array([1], np.uint8))
        with pytest.raises(IndexError):
            native.addmul_rows(work, 5, np.array([1]), np.array([1], np.uint8))
        with pytest.raises(IndexError):
            native.addmul_rows(work, 1, np.array([0, 1]), np.array([1, 1], np.uint8))
        with pytest.raises(ValueError):
            native.addmul_rows(work.T, 0, np.array([1]), np.array([1], np.uint8))

    def test_rank_matches_numpy(self):
        rng = np.random.default_rng(13)
        native = get_kernel("native")
        for rows, cols, rank in [(12, 12, 12), (20, 14, 9), (9, 30, 6)]:
            matrix = gf_matmul(rng.integers(0, 256, (rows, rank), dtype=np.uint8),
                               rng.integers(0, 256, (rank, cols), dtype=np.uint8))
            assert gaussian_rank(matrix, kernel=native) == gaussian_rank(matrix)

    def test_plans_are_byte_identical_across_kernels(self):
        params = for_k(40)
        esis = [esi for esi in range(40) if esi % 7] + list(range(40, 48))
        for matrix in (constraint_matrix(params), received_matrix(params, esis)):
            unknowns = params.num_intermediate_symbols
            numpy_plan = build_plan(matrix, unknowns, kernel=get_kernel("numpy"))
            native_plan = build_plan(matrix, unknowns, kernel=get_kernel("native"))
            assert numpy_plan.operator.tobytes() == native_plan.operator.tobytes()

    def test_plan_stores_are_byte_identical_across_kernels(self):
        stores = {}
        for name in ("numpy", "native"):
            context = CodecContext(kernel=name)
            encoder = BlockEncoder(source_block(seed=9), context=context)
            decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
            for esi in list(range(2, K)) + [K, K + 1, K + 2]:
                decoder.add_symbol(esi, encoder.symbol(esi))
            assert decoder.decode().success
            stores[name] = context.snapshot_plans().to_bytes()
        assert stores["native"] == stores["numpy"]


class TestKernelEquivalence:
    """Byte-identical results vs the numpy ground truth, for every kernel."""

    def _cases(self):
        rng = np.random.default_rng(7)
        cases = []
        for m, n, t in [(1, 1, 1), (5, 8, 3), (34, 16, 130), (51, 40, 257)]:
            a = rng.integers(0, 256, (m, n), dtype=np.uint8)
            b = rng.integers(0, 256, (n, t), dtype=np.uint8)
            cases.append((a, b))
        # Zero rows / zero columns / all-zero operands must short-circuit
        # identically.
        a = rng.integers(0, 256, (6, 9), dtype=np.uint8)
        b = rng.integers(0, 256, (9, 11), dtype=np.uint8)
        a[2] = 0
        a[:, 4] = 0
        b[1] = 0
        cases.append((a, b))
        cases.append((np.zeros((4, 5), dtype=np.uint8), b[:5]))
        return cases

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_matmul_matches_numpy(self, name):
        kernel = get_kernel(name)
        for a, b in self._cases():
            assert np.array_equal(kernel.matmul(a, b), gf_matmul(a, b)), name

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_matmul_accepts_noncontiguous_views(self, name):
        # Plan replay passes operator[:, first_row:] -- a non-contiguous view.
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, (20, 30), dtype=np.uint8)
        b = rng.integers(0, 256, (18, 40), dtype=np.uint8)
        kernel = get_kernel(name)
        assert np.array_equal(kernel.matmul(a[:, 12:], b), gf_matmul(a[:, 12:], b))

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_matvec_matches_numpy(self, name):
        kernel = get_kernel(name)
        rng = np.random.default_rng(9)
        for m, n in [(1, 1), (7, 5), (33, 20)]:
            matrix = rng.integers(0, 256, (m, n), dtype=np.uint8)
            vector = rng.integers(0, 256, n, dtype=np.uint8)
            matrix[0] = 0
            vector[-1] = 0
            assert np.array_equal(kernel.matvec(matrix, vector), gf_matvec(matrix, vector))

    @pytest.mark.parametrize("name", ACCELERATED)
    def test_addmul_rows_matches_numpy(self, name):
        kernel = get_kernel(name)
        rng = np.random.default_rng(10)
        work = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        work[4] = 0
        targets = np.array([0, 2, 3, 5, 8], dtype=np.intp)
        factors = rng.integers(0, 256, 5, dtype=np.uint8)
        factors[0] = 0
        factors[3] = 1
        for source in (4, 6):  # an all-zero and a random pivot row
            expected, actual = work.copy(), work.copy()
            gf_addmul_rows(expected, source, targets, factors)
            kernel.addmul_rows(actual, source, targets, factors)
            assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("name", sorted(available_kernels()))
    def test_shape_validation_preserved(self, name):
        kernel = get_kernel(name)
        with pytest.raises(ValueError):
            kernel.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 2), dtype=np.uint8))

    @pytest.mark.parametrize("name", sorted(available_kernels()))
    def test_lossy_decode_identical_across_kernels(self, name):
        source = source_block()
        baseline_encoder = BlockEncoder(source, context=CodecContext(kernel="numpy"))
        rng = random.Random(4)
        kept = [esi for esi in range(K) if rng.random() > 0.3]
        repairs = list(range(K, K + (K - len(kept)) + 2))
        symbols = [(esi, baseline_encoder.symbol(esi)) for esi in kept + repairs]

        context = CodecContext(kernel=name)
        encoder = BlockEncoder(source, context=context)
        for esi, _ in symbols:
            assert encoder.symbol(esi) == baseline_encoder.symbol(esi)
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source


class TestCanonicalDecodeKeys:
    def test_missing_source_pattern(self):
        params = for_k(8)
        assert missing_source_pattern(params, [0, 1, 3, 4, 6, 7, 8, 9]) == (2, 5)
        assert missing_source_pattern(params, range(8)) == ()

    def test_candidates_widen_from_minimal_system(self):
        params = for_k(8)
        esis = [0, 1, 3, 4, 6, 7, 8, 9, 10, 11]  # missing {2, 5}, four repairs
        candidates = list(canonical_decode_candidates(params, esis))
        keys = [key for key, _ in candidates]
        used = [u for _, u in candidates]
        assert keys[0] == ("decode", params, (2, 5), (8, 9))
        assert used[0] == (0, 1, 3, 4, 6, 7, 8, 9)
        assert keys[-1] == ("decode", params, (2, 5), (8, 9, 10, 11))
        assert used[-1] == tuple(sorted(esis))
        assert len(candidates) == 3

    def test_key_ignores_surplus_repairs(self):
        params = for_k(8)
        lean, _ = canonical_decode_key(params, [0, 1, 3, 4, 6, 7, 8, 9])
        fat, _ = canonical_decode_key(params, [0, 1, 3, 4, 6, 7, 8, 9, 10, 11, 12])
        assert lean == fat

    def test_key_distinguishes_loss_patterns_and_repair_rows(self):
        params = for_k(8)
        one, _ = canonical_decode_key(params, [0, 1, 3, 4, 6, 7, 8, 9])
        other_pattern, _ = canonical_decode_key(params, [0, 1, 2, 4, 6, 7, 8, 9])
        other_repairs, _ = canonical_decode_key(params, [0, 1, 3, 4, 6, 7, 9, 10])
        assert one != other_pattern
        assert one != other_repairs

    def _lossy_sessions(self, encoder, patterns, surpluses):
        """(esis, symbols) per (pattern, surplus) combination, round-robin."""
        sessions = []
        for index, missing in enumerate(patterns * len(surpluses)):
            surplus = surpluses[index // len(patterns)]
            kept = [esi for esi in range(K) if esi not in missing]
            repairs = list(range(K, K + len(missing) + surplus))
            esis = kept + repairs
            sessions.append([(esi, encoder.symbol(esi)) for esi in esis])
        return sessions

    def test_canonical_hit_rate_strictly_beats_exact_keys_under_loss(self):
        """The acceptance check: >= 10% loss, counters from CodecContext.

        Keying by the exact received-ESI set would hit only on a repeated
        set, so its hit rate is computed from the session stream itself:
        every distinct set is one miss.
        """
        encoder = BlockEncoder(source_block(), context=ReferenceContext())
        # Four recurring >=12.5% loss patterns (2-3 of 16 sources lost), each
        # seen with 0, 1 and 2 surplus repair symbols beyond the minimum.
        patterns = [(0, 1), (2, 9), (5, 11, 14), (3,)]
        sessions = self._lossy_sessions(encoder, patterns, surpluses=[2, 3, 4])

        source = source_block()
        context = CodecContext()
        for symbols in sessions:
            decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
            for esi, data in symbols:
                decoder.add_symbol(esi, data)
            result = decoder.decode()
            assert result.success and result.used_gaussian_elimination
            assert result.source_symbols == source
        assert context.decode_stats.lookups > 0
        canonical = context.decode_stats.hit_rate
        distinct_sets = len({tuple(esi for esi, _ in symbols) for symbols in sessions})
        exact = (len(sessions) - distinct_sets) / len(sessions)
        assert canonical > exact, (
            f"canonical decode hit rate {canonical:.3f} must strictly beat "
            f"exact-ESI keying {exact:.3f}"
        )

    def test_same_pattern_different_surplus_shares_one_plan(self):
        encoder = BlockEncoder(source_block(), context=ReferenceContext())
        context = CodecContext()
        missing = (1, 7)
        for surplus in (2, 4):
            kept = [esi for esi in range(K) if esi not in missing]
            repairs = list(range(K, K + len(missing) + surplus))
            decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
            for esi in kept + repairs:
                decoder.add_symbol(esi, encoder.symbol(esi))
            assert decoder.decode().success
        # One decode-plan build total; the second, wider session hit it.
        assert context.decode_stats.misses <= 1 + context.decode_plan_retries
        assert context.decode_stats.hits >= 1

    def test_prewarmed_canonical_plan_covers_other_surpluses(self):
        source = source_block(seed=5)
        encoder = BlockEncoder(source, context=ReferenceContext())
        missing = (0, 4)
        kept = [esi for esi in range(K) if esi not in missing]
        # Prewarm from a session with 3 surplus repairs...
        warm_esis = kept + list(range(K, K + len(missing) + 3))
        store = prewarm_decode_plans(K, [warm_esis])
        context = CodecContext(preload=store)
        # ... and decode a session with zero surplus: same canonical plan.
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi in kept + list(range(K, K + len(missing))):
            decoder.add_symbol(esi, encoder.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source
        if context.decode_plan_retries == 0:
            assert context.decode_stats.misses == 0
            assert context.decode_stats.hits == 1
