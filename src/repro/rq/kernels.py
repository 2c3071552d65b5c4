"""Pluggable GF(256) kernels: the byte-crunching layer under the codec.

Everything above this module decides *what* linear algebra to run (which
elimination plan, which symbol rows); this module decides *how* the bytes
are crunched.  A :class:`GFKernel` bundles the three operations the codec's
hot paths consume:

* ``matmul``      -- batched GF(256) matrix product, the workhorse of
  elimination-plan replay (``R . D`` over a whole symbol plane);
* ``matvec``      -- matrix-vector product (single-symbol paths, tests);
* ``addmul_rows`` -- the fused multiply-XOR of Gaussian elimination,
  ``work[targets] ^= factors * work[source_row]``, in place.

Two kernels register here:

* ``numpy``  -- the table-lookup implementations from :mod:`repro.rq.gf256`,
  kept as ground truth;
* ``native`` -- a small C library (``_gf256.c``: split-nibble ``PSHUFB``
  multiply-XOR with AVX2 chosen at run time, a scalar table loop
  elsewhere), loaded with :mod:`ctypes`.

The native library is built lazily with the system C compiler
(``cc -O2 -shared -fPIC``) on the kernel's *first byte operation* --
importing this module, resolving a kernel or asking what is available never
compiles or loads anything.  The build lands next to the C file as
``_gf256-<sha12>.so``, keyed by the hash of the source, the flags and the
platform, so it happens once per checkout; it is written to a temporary
name and moved into place with :func:`os.replace` under an exclusive
``flock`` on the source, so concurrent first users (a client and its
server, pool workers) neither compile twice nor load a half-written file.
``native`` is *available* when that library exists, or when a compiler is
on ``PATH`` and the directory is writable.

Selection is by name through :func:`get_kernel`: an explicit name wins,
otherwise the ``REPRO_GF_KERNEL`` environment variable, otherwise the best
available kernel by :attr:`GFKernel.priority` (``native`` when available,
else ``numpy``).  An unavailable *explicit* choice raises; an unavailable
*environment* choice warns and falls back, so ambient configuration can
never break a run.  Every kernel produces byte-identical results (GF(256)
arithmetic is exact), which ``tests/rq/test_kernels.py`` enforces against
the ``numpy`` ground truth.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import threading
import warnings
from abc import ABC, abstractmethod
from functools import lru_cache
from pathlib import Path
from typing import ClassVar, Optional, Union

import numpy as np

from repro.rq.gf256 import MUL_TABLE, gf_addmul_rows, gf_matmul, gf_matvec

try:  # POSIX only; elsewhere concurrent first builds just both compile
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

#: Environment variable consulted when no kernel is named explicitly.
KERNEL_ENV_VAR = "REPRO_GF_KERNEL"

_KERNELS: dict[str, type["GFKernel"]] = {}
_INSTANCES: dict[str, "GFKernel"] = {}


def register_kernel(cls: type["GFKernel"]) -> type["GFKernel"]:
    """Class decorator: add a kernel to the registry under ``cls.name``."""
    if not getattr(cls, "name", None):
        raise ValueError(f"kernel {cls!r} must define a non-empty name")
    _KERNELS[cls.name] = cls
    return cls


def registered_kernels() -> list[str]:
    """Names of every registered kernel (available on this platform or not)."""
    return sorted(_KERNELS)


def available_kernels() -> list[str]:
    """Names of the kernels that can actually run here, sorted."""
    return sorted(name for name, cls in _KERNELS.items() if cls.is_available())


def best_kernel_name() -> str:
    """The highest-priority available kernel (``native`` > ``numpy``)."""
    names = available_kernels()
    return max(names, key=lambda name: _KERNELS[name].priority)


def default_kernel_name() -> str:
    """Resolve the process default: ``REPRO_GF_KERNEL`` if usable, else the best.

    An environment choice that names an unavailable or unknown kernel warns
    and falls back to auto-selection rather than failing the run -- ambient
    configuration must never be load-bearing.
    """
    choice = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if choice and choice.lower() != "auto":
        cls = _KERNELS.get(choice)
        if cls is not None and cls.is_available():
            return choice
        warnings.warn(
            f"{KERNEL_ENV_VAR}={choice!r} is not an available GF(256) kernel "
            f"(available: {', '.join(available_kernels())}); auto-selecting instead",
            RuntimeWarning,
            stacklevel=2,
        )
    return best_kernel_name()


def get_kernel(choice: Union[str, "GFKernel", None] = None) -> "GFKernel":
    """Resolve a kernel choice to a (shared) kernel instance.

    Args:
        choice: an already-built :class:`GFKernel` (returned as-is), a
            registered kernel name, ``"auto"``, or ``None``.  ``"auto"`` and
            ``None`` consult ``REPRO_GF_KERNEL`` and then auto-select.

    Raises:
        ValueError: for an unknown name, or an explicit name whose kernel is
            not available on this platform (``"native"`` without a compiler
            or a prebuilt library).
    """
    if isinstance(choice, GFKernel):
        return choice
    if choice is None or choice == "auto":
        choice = default_kernel_name()
    cls = _KERNELS.get(choice)
    if cls is None:
        raise ValueError(
            f"unknown GF(256) kernel {choice!r}; choose 'auto' or one of: "
            f"{', '.join(registered_kernels())}"
        )
    if not cls.is_available():
        raise ValueError(
            f"GF(256) kernel {choice!r} is registered but not available on this "
            f"platform (available: {', '.join(available_kernels())})"
        )
    instance = _INSTANCES.get(choice)
    if instance is None:
        instance = _INSTANCES[choice] = cls()
    return instance


class GFKernel(ABC):
    """Strategy interface for the codec's GF(256) byte work.

    Kernels are stateless and shared process-wide (:func:`get_kernel` caches
    one instance per name); they never cross process boundaries -- each
    worker of a sharded sweep resolves its own from the job's config.
    """

    name: ClassVar[str] = ""
    #: Auto-selection rank; higher wins among available kernels.
    priority: ClassVar[int] = 0

    @classmethod
    def is_available(cls) -> bool:
        """Whether this kernel can run on the current platform."""
        return True

    @abstractmethod
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF(256) matrix product ``(m, n) . (n, t) -> (m, t)`` (uint8)."""

    @abstractmethod
    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """GF(256) matrix-vector product (uint8 in, uint8 out)."""

    @abstractmethod
    def addmul_rows(
        self, work: np.ndarray, source_row: int, targets: np.ndarray, factors: np.ndarray
    ) -> None:
        """In place: ``work[targets] ^= factors[:, None] * work[source_row]``.

        ``targets`` are distinct rows other than ``source_row``; ``work`` may
        be a column slice of a larger array (its rows must each be contiguous).
        """


@register_kernel
class NumpyKernel(GFKernel):
    """The :mod:`repro.rq.gf256` implementations -- ground truth."""

    name = "numpy"
    priority = 0

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return gf_matmul(a, b)

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        return gf_matvec(matrix, vector)

    def addmul_rows(
        self, work: np.ndarray, source_row: int, targets: np.ndarray, factors: np.ndarray
    ) -> None:
        gf_addmul_rows(work, source_row, targets, factors)


# Native library: lazy, hash-keyed, once-per-checkout build ------------------------

_SOURCE = Path(__file__).with_name("_gf256.c")
_COMPILER = "cc"
_CFLAGS = ("-O2", "-shared", "-fPIC")
#: Serialises building and loading within the process (the ``flock`` below
#: covers other processes); re-entrant because loading builds.
_BUILD_LOCK = threading.RLock()
_LIBRARY: Optional[ctypes.CDLL] = None
#: Set when a build failed in this process; ``native`` is then unavailable.
_BUILD_ERROR: Optional[str] = None


@lru_cache(maxsize=None)
def library_path(source: Path = _SOURCE) -> Path:
    """Where the build of ``source`` lives: next to it, keyed by content hash."""
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join((_COMPILER, *_CFLAGS, sysconfig.get_platform())).encode())
    return source.with_name(f"{source.stem}-{digest.hexdigest()[:12]}.so")


def _find_compiler() -> Optional[str]:
    return shutil.which(_COMPILER)


@lru_cache(maxsize=None)
def _can_build() -> bool:
    """A compiler is on ``PATH`` and the source's directory is writable.

    Checked once per process: kernel resolution asks on every
    :class:`~repro.rq.backend.CodecContext`, and a ``PATH`` scan costs far
    more than the rest of it.
    """
    return _find_compiler() is not None and os.access(_SOURCE.parent, os.W_OK)


def build_library(source: Path = _SOURCE) -> Path:
    """Compile ``source`` unless its hash-keyed build already exists.

    Safe under concurrency: builders serialise on an exclusive ``flock`` of
    the source file and re-check before compiling, and the output is
    written to a temporary name and :func:`os.replace`-d into place, so a
    reader never sees a partial file.
    """
    target = library_path(source)
    with _BUILD_LOCK, open(source, "rb") as handle:
        if fcntl is not None:
            fcntl.flock(handle, fcntl.LOCK_EX)
        if target.exists():
            return target
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError(f"no C compiler ({_COMPILER!r}) on PATH to build {source.name}")
        temp = str(target.with_name(f".{target.name}.{os.getpid()}.tmp"))
        try:
            result = subprocess.run(
                [compiler, *_CFLAGS, "-o", temp, str(source)],
                capture_output=True, text=True,
            )
            if result.returncode != 0:
                raise RuntimeError(f"building {source.name} failed:\n{result.stderr.strip()}")
            os.replace(temp, target)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    return target


def _load_library() -> ctypes.CDLL:
    """Build (at most once) and load the native library; set up its table."""
    global _LIBRARY
    if _LIBRARY is not None:
        return _LIBRARY
    with _BUILD_LOCK:
        if _LIBRARY is None:
            _LIBRARY = _open_library()
    return _LIBRARY


def _open_library() -> ctypes.CDLL:
    global _BUILD_ERROR
    try:
        library = ctypes.CDLL(str(build_library()))
    except (OSError, RuntimeError) as exc:
        _BUILD_ERROR = str(exc)
        raise RuntimeError(f"the native GF(256) kernel is unavailable: {exc}") from exc
    pointer, size = ctypes.c_void_p, ctypes.c_size_t
    library.gf256_init.argtypes = [pointer, ctypes.c_int]
    library.gf256_init.restype = ctypes.c_int
    library.gf256_matmul.argtypes = [
        pointer, ctypes.c_ssize_t, pointer, ctypes.c_ssize_t, pointer, size, size, size,
    ]
    library.gf256_matmul.restype = None
    library.gf256_addmul_rows.argtypes = [
        pointer, size, ctypes.c_ssize_t, size, size, pointer, pointer, size,
    ]
    library.gf256_addmul_rows.restype = ctypes.c_int
    library.gf256_init(MUL_TABLE.ctypes.data, 1)
    return library


def _unit_stride_rows(array: np.ndarray) -> np.ndarray:
    """``array`` as uint8 with contiguous rows at a positive row stride."""
    if array.dtype != np.uint8 or array.strides[1] != 1 or array.strides[0] < 0:
        return np.ascontiguousarray(array, dtype=np.uint8)
    return array


@register_kernel
class NativeKernel(GFKernel):
    """The C split-nibble kernel (``_gf256.c``), built and loaded on first use.

    ``matmul`` runs one fused multiply-XOR per non-zero coefficient straight
    into the output row; ``addmul_rows`` does elimination's row operation
    in place, so the solver allocates nothing per pivot.
    """

    name = "native"
    priority = 10

    @classmethod
    def is_available(cls) -> bool:
        """The library exists, or a compiler and a writable directory can make it."""
        if _BUILD_ERROR is not None:
            return False
        try:
            path = library_path()
        except OSError:  # the C source was not installed
            return False
        return _can_build() or path.exists()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("gf matmul needs two 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
        (m, n), t = a.shape, b.shape[1]
        out = np.zeros((m, t), dtype=np.uint8)
        if m and n and t:
            a, b = _unit_stride_rows(a), _unit_stride_rows(b)
            _load_library().gf256_matmul(
                a.ctypes.data, a.strides[0], b.ctypes.data, b.strides[0],
                out.ctypes.data, m, n, t,
            )
        return out

    def matvec(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        if matrix.ndim != 2 or vector.ndim != 1:
            raise ValueError("gf matvec needs a 2-D matrix and a 1-D vector")
        return self.matmul(matrix, vector.reshape(-1, 1))[:, 0]

    def addmul_rows(
        self, work: np.ndarray, source_row: int, targets: np.ndarray, factors: np.ndarray
    ) -> None:
        if work.ndim != 2:
            raise ValueError("work must be a 2-D array")
        rows, width = work.shape
        targets = np.ascontiguousarray(targets, dtype=np.intp)
        factors = np.ascontiguousarray(factors, dtype=np.uint8)
        if targets.shape != factors.shape or targets.ndim != 1:
            raise ValueError("targets and factors must be matching 1-D arrays")
        if not targets.size or not width:
            return
        if work.dtype != np.uint8 or work.strides[1] != 1 or not work.flags.writeable:
            raise ValueError("work must be a writable uint8 array with contiguous rows")
        status = _load_library().gf256_addmul_rows(
            work.ctypes.data, rows, work.strides[0], width, source_row,
            targets.ctypes.data, factors.ctypes.data, targets.size,
        )
        if status:
            raise IndexError(
                f"addmul_rows needs a source row and targets in range({rows}), "
                f"and no target equal to the source row {source_row}"
            )
