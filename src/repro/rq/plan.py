"""Cached elimination plans: factorise once per K', replay per block.

The RFC 6330 style codec spends nearly all of its CPU in Gaussian
elimination, yet the matrix being eliminated depends only on the code
parameters (encode side: the L x L constraint matrix is a pure function of
K') or on the parameters plus the set of received ESIs (decode side).  An
:class:`EliminationPlan` captures one elimination as its fused **solution
operator** ``R``, obtained by eliminating ``A`` once against an identity
right-hand side, so that for any symbol plane ``D`` the
solution of ``A . X = D`` is simply ``R . D``.

Replaying a plan over the (n x symbol_size) symbol plane of a block is one
batched GF(256) matrix product -- no pivot searches, no matrix-side row
operations, no per-step allocations.  The byte work of that product (and of
elimination itself) executes on a pluggable :mod:`repro.rq.kernels` kernel;
every kernel computes identical bytes, so plans and kernels compose freely.
Plans are immutable and safe to share across sessions, simulations and
processes.

Decode-side plans are keyed **canonically** by the *missing-source pattern*
plus the repair rows actually consumed (:func:`canonical_decode_candidates`)
rather than by the raw received-ESI set: a receiver that lost source
symbols {2, 5} decodes with the same elimination plan whether it received
two or five surplus repair symbols, which is what keeps the decode plan
cache hot under heavy loss.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.rq.gf256 import gf_matmul
from repro.rq.matrix import build_constraint_matrix, hdpc_rows, ldpc_rows, lt_row
from repro.rq.params import CodeParameters
from repro.rq.solver import solve

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.kernels import GFKernel


@dataclass(frozen=True)
class EliminationPlan:
    """The fused solution operator of one fixed matrix's Gaussian elimination."""

    num_rows: int
    num_unknowns: int
    operator: np.ndarray

    def apply(self, rhs: np.ndarray, kernel: Optional["GFKernel"] = None) -> np.ndarray:
        """Solve for the unknowns given a full (num_rows x T) right-hand side.

        ``kernel`` selects the :mod:`repro.rq.kernels` implementation of the
        batched product; ``None`` uses the numpy ground truth.  The result is
        byte-identical for every kernel.
        """
        if rhs.shape[0] != self.num_rows:
            raise ValueError(f"plan expects {self.num_rows} rhs rows, got {rhs.shape[0]}")
        matmul = gf_matmul if kernel is None else kernel.matmul
        return matmul(self.operator, rhs)

    def apply_from_row(
        self, rhs_tail: np.ndarray, first_row: int, kernel: Optional["GFKernel"] = None
    ) -> np.ndarray:
        """Solve when rhs rows ``0 .. first_row-1`` are all-zero.

        Both codec systems have this shape: the S + H constraint rows carry a
        zero right-hand side, so only the operator columns for the symbol
        rows contribute.
        """
        if first_row + rhs_tail.shape[0] != self.num_rows:
            raise ValueError(
                f"plan expects {self.num_rows - first_row} tail rows, got {rhs_tail.shape[0]}"
            )
        matmul = gf_matmul if kernel is None else kernel.matmul
        return matmul(self.operator[:, first_row:], rhs_tail)


def build_plan(
    matrix: np.ndarray,
    num_unknowns: Optional[int] = None,
    kernel: Optional["GFKernel"] = None,
) -> EliminationPlan:
    """Eliminate ``matrix`` once, keeping the fused solution operator.

    ``kernel`` runs the elimination's row operations on a
    :mod:`repro.rq.kernels` kernel; the resulting operator is byte-identical
    for every kernel.

    Raises :class:`repro.rq.solver.SingularMatrixError` when the matrix does
    not have full column rank, exactly like a direct solve would.
    """
    rows = matrix.shape[0]
    identity = np.eye(rows, dtype=np.uint8)
    operator = solve(matrix, identity, num_unknowns, kernel=kernel)
    operator.setflags(write=False)
    return EliminationPlan(num_rows=rows, num_unknowns=operator.shape[0], operator=operator)


# Structure caches ------------------------------------------------------------------
#
# These depend only on the (frozen, hashable) CodeParameters, so they are
# process-global: every context, session and simulation shares them.  The
# returned arrays are marked read-only; callers copy before mutating.


@lru_cache(maxsize=None)
def constraint_matrix(params: CodeParameters) -> np.ndarray:
    """The L x L pre-code constraint matrix A for one parameter set."""
    matrix = build_constraint_matrix(params)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def precode_rows(params: CodeParameters) -> np.ndarray:
    """The (S + H) x L LDPC + HDPC constraint rows for one parameter set."""
    s = params.num_ldpc_symbols
    h = params.num_hdpc_symbols
    rows = np.zeros((s + h, params.num_intermediate_symbols), dtype=np.uint8)
    rows[:s] = ldpc_rows(params)
    rows[s:] = hdpc_rows(params)
    rows.setflags(write=False)
    return rows


def received_matrix(params: CodeParameters, esis: Sequence[int]) -> np.ndarray:
    """The decode-side coefficient matrix for one set of received ESIs."""
    l = params.num_intermediate_symbols
    constraints = precode_rows(params)
    matrix = np.zeros((constraints.shape[0] + len(esis), l), dtype=np.uint8)
    matrix[: constraints.shape[0]] = constraints
    for offset, esi in enumerate(esis):
        matrix[constraints.shape[0] + offset] = lt_row(params, esi)
    return matrix


# Canonical decode-plan keys ---------------------------------------------------------
#
# The decode-side matrix is fully determined by which rows go into it, so the
# *plan key* only needs to name those rows -- and the rows worth using are a
# canonical function of the loss pattern, not of everything that happened to
# arrive.  A receiver that lost source symbols {2, 5} needs exactly the
# surviving sources plus (at least) two repair rows; any surplus repair
# symbols beyond those change the raw ESI set without changing the system
# that actually has to be solved, so they must not change the key either.


def missing_source_pattern(params: CodeParameters, esis: Sequence[int]) -> tuple[int, ...]:
    """The canonical loss fingerprint: source ESIs *not* in ``esis``, ascending."""
    received = {esi for esi in esis if esi < params.num_source_symbols}
    return tuple(esi for esi in range(params.num_source_symbols) if esi not in received)


def canonical_decode_candidates(
    params: CodeParameters, esis: Sequence[int]
) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Yield ``(plan_key, used_esis)`` candidates for one received-ESI set.

    Candidates are ordered from the minimal system outward: the first uses
    the surviving source rows plus exactly ``len(missing)`` repair rows (the
    smallest full-rank candidate, and the key most likely to be shared with
    other blocks), each later one adds one more received repair row.  A
    caller walks the sequence until a candidate's matrix turns out to be
    non-singular; the last candidate uses every received symbol.

    Keys have the shape ``("decode", params, missing_sources, used_repairs)``
    -- the missing-source pattern plus the ascending repair ESIs consumed.
    The row *selection* (which rows of a caller's received plane feed the
    plan) is recomputed per call from ``used_esis``, so one plan serves any
    superset of received symbols that shares the pattern.
    """
    ordered = sorted(set(esis))
    k = params.num_source_symbols
    sources = tuple(esi for esi in ordered if esi < k)
    repairs = [esi for esi in ordered if esi >= k]
    missing = missing_source_pattern(params, ordered)
    for needed in range(min(len(missing), len(repairs)), len(repairs) + 1):
        used_repairs = tuple(repairs[:needed])
        yield ("decode", params, missing, used_repairs), sources + used_repairs


def canonical_decode_key(
    params: CodeParameters, esis: Sequence[int]
) -> tuple[tuple, tuple[int, ...]]:
    """The first (minimal-system) candidate of :func:`canonical_decode_candidates`."""
    return next(canonical_decode_candidates(params, esis))


@dataclass
class PlanStore:
    """A picklable bag of elimination plans, keyed like the live plan cache.

    This is the artifact that crosses process boundaries: the parent of a
    sharded experiment snapshots (or pre-warms) a store, serialises it once,
    and every worker preloads its per-run :class:`PlanCache` from it so warm
    -block speedups apply from the first block of the first transfer.  Plans
    are immutable, so a store can be shared by any number of caches.

    Keys follow the convention of :mod:`repro.rq.backend`:
    ``("encode", params)`` for encode-side plans and
    ``("decode", params, missing_sources, used_repairs)`` (see
    :func:`canonical_decode_candidates`) for decode-side plans.
    """

    plans: dict[Hashable, EliminationPlan] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.plans)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.plans

    def add(self, key: Hashable, plan: EliminationPlan) -> None:
        """Insert (or replace) one plan."""
        self.plans[key] = plan

    def to_bytes(self) -> bytes:
        """Serialise the store (pickle) for shipping to worker processes."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PlanStore":
        """Rebuild a store serialised with :meth:`to_bytes`."""
        store = pickle.loads(payload)
        if not isinstance(store, cls):
            raise TypeError(f"payload does not contain a PlanStore (got {type(store)!r})")
        return store

    def __setstate__(self, state: Mapping) -> None:
        # Unpickled numpy arrays come back writable; re-freeze the operators
        # so shared plans stay immutable in every process.
        self.__dict__.update(state)
        for plan in self.plans.values():
            plan.operator.setflags(write=False)


class PlanCache:
    """A bounded LRU mapping of plan keys to :class:`EliminationPlan` objects.

    One instance is shared by every session of a simulation (via the
    :class:`repro.rq.backend.CodecContext`); because plans are immutable the
    cache needs no locking for the single-threaded simulator, and its
    contents can be exported to / imported from a :class:`PlanStore` for
    multi-process shards.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.evictions = 0
        self._plans: "OrderedDict[Hashable, EliminationPlan]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    def get_or_build(
        self, key: Hashable, builder: Callable[[], EliminationPlan]
    ) -> tuple[EliminationPlan, bool]:
        """Return ``(plan, was_cache_hit)`` for ``key``, building on miss."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan, True
        plan = builder()
        self._plans[key] = plan
        if len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan, False

    def snapshot(self) -> PlanStore:
        """Export the current contents as an immutable, picklable store."""
        return PlanStore(dict(self._plans))

    def preload(self, store: PlanStore) -> int:
        """Seed the cache from a store; returns how many plans were inserted.

        Preloading does not count as hits or misses (nothing was looked up)
        but does respect ``max_entries``: if the store is larger than the
        cache, the oldest insertions are evicted as usual.
        """
        inserted = 0
        for key, plan in store.plans.items():
            if key in self._plans:
                continue
            self._plans[key] = plan
            inserted += 1
            if len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return inserted
