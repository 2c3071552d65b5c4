"""The shared :class:`CodecContext`: one plan cache, one kernel, one codec path.

The encoder and decoder do not run Gaussian elimination themselves; they
hand the codec's two linear-algebra problems to a context:

* :meth:`CodecContext.encode_intermediate` -- solve ``A . C = [0; source]``
  for the (L x symbol_size) intermediate-symbol plane of one block, by
  replaying the cached elimination plan of its K';
* :meth:`CodecContext.decode_intermediate` -- solve the stacked
  LDPC/HDPC/LT-row system for the intermediate symbols given whatever
  encoding symbols arrived, by replaying the plan cached under the block's
  **canonical** key: the missing-source pattern plus the repair rows
  consumed (see :func:`~repro.rq.plan.canonical_decode_candidates`).

Each replay is one batched GF(256) matrix product on the context's
:mod:`~repro.rq.kernels` kernel.  A context also keeps the plan cache's
hit/miss counters (overall plus decode-side, so canonical-key effectiveness
is observable in experiment reports).  All sessions of a simulation share a
single context, so the first block of the first transfer pays for
elimination and every later block with the same parameters rides the cache;
under loss, every block that lost the same source pattern rides the same
decode plan no matter how many surplus repair symbols it happened to
receive.

Because plans are immutable they can also cross process boundaries: a
context can export its cache as a picklable :class:`~repro.rq.plan.PlanStore`
(:meth:`CodecContext.snapshot_plans`) and a fresh context can be seeded from
one (the ``preload`` constructor argument).  :func:`prewarm_encode_plans` /
:func:`prewarm_decode_plans` build stores ahead of time; the parallel
experiment executor (:mod:`repro.experiments.parallel`) uses them so every
worker process starts with a warm cache.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.rq.kernels import GFKernel, get_kernel
from repro.rq.params import CodeParameters, for_k
from repro.rq.plan import (
    EliminationPlan,
    PlanCache,
    PlanStore,
    build_plan,
    canonical_decode_candidates,
    constraint_matrix,
    received_matrix,
)
from repro.rq.solver import SingularMatrixError
from repro.sim.stats import CacheStats

#: The only name :func:`set_default_backend` accepts (a cold-reset hook).
DEFAULT_BACKEND = "planned"


def _constraint_rows(params: CodeParameters) -> int:
    """S + H: the leading rows of both codec systems, whose rhs is all-zero."""
    return params.num_ldpc_symbols + params.num_hdpc_symbols


def _build_decode_plan(
    params: CodeParameters, used: tuple[int, ...], kernel: GFKernel
) -> EliminationPlan:
    return build_plan(
        received_matrix(params, used),
        num_unknowns=params.num_intermediate_symbols,
        kernel=kernel,
    )


class CodecContext:
    """One GF(256) kernel + one shared plan cache + its counters.

    Create one per simulation (the experiment runner does) and hand it to
    every agent so all sessions amortise plan construction; the module-level
    :func:`default_context` serves library users who do not manage contexts.

    Args:
        max_cached_plans: LRU capacity of the elimination-plan cache.
        preload: optional :class:`~repro.rq.plan.PlanStore` whose plans seed
            the cache before any block is processed (used by sharded runs so
            workers start warm; preloading counts neither hits nor misses).
        kernel: a :mod:`repro.rq.kernels` kernel name, ``"auto"``/``None``
            (honour ``REPRO_GF_KERNEL``, then pick the best available), or a
            pre-built :class:`~repro.rq.kernels.GFKernel`.  Every kernel
            produces byte-identical symbols; only wall-clock changes.
    """

    def __init__(
        self,
        *,
        max_cached_plans: int = 256,
        preload: Optional[PlanStore] = None,
        kernel: Union[str, GFKernel, None] = None,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.stats = CacheStats(name="rq_plan_cache")
        self.decode_stats = CacheStats(name="rq_decode_plan_cache")
        #: Canonical decode keys whose matrix turned out singular; remembered
        #: so repeated loss patterns skip doomed eliminations.
        self.singular_decode_keys: set[Hashable] = set()
        #: Canonical decode candidates abandoned as singular (fresh or memoised).
        self.decode_plan_retries = 0
        self._plans = PlanCache(max_entries=max_cached_plans)
        self.blocks_encoded = 0
        self.blocks_decoded = 0
        if preload is not None:
            self._plans.preload(preload)

    @property
    def kernel_name(self) -> str:
        """Name of the active GF(256) kernel."""
        return self.kernel.name

    @property
    def cached_plans(self) -> int:
        """Number of plans currently held by the cache."""
        return len(self._plans)

    def plan_for(self, key, builder, decode: bool = False) -> EliminationPlan:
        """Fetch a plan from the shared cache, counting hits and misses.

        ``decode=True`` additionally books the lookup on the decode-side
        counters (``decode_stats``), which is what experiment reports use to
        show how well canonical keys hold up under loss.
        """
        plan, hit = self._plans.get_or_build(key, builder)
        if hit:
            self.stats.record_hit()
            if decode:
                self.decode_stats.record_hit()
        else:
            self.stats.record_miss()
            if decode:
                self.decode_stats.record_miss()
        self.stats.evictions = self._plans.evictions
        return plan

    def encode_intermediate(self, params: CodeParameters, source: np.ndarray) -> np.ndarray:
        """Return the (L x T) intermediate plane for a (K x T) source plane."""
        self.blocks_encoded += 1
        plan = self.plan_for(
            ("encode", params),
            lambda: build_plan(constraint_matrix(params), kernel=self.kernel),
        )
        return plan.apply_from_row(source, _constraint_rows(params), kernel=self.kernel)

    def decode_intermediate(
        self, params: CodeParameters, esis: Sequence[int], received: np.ndarray
    ) -> np.ndarray:
        """Return the (L x T) intermediate plane from received symbol values.

        ``esis`` are the received encoding-symbol ids in ascending order and
        ``received`` the matching (len(esis) x T) symbol plane.

        Candidates run from the minimal system (surviving sources plus
        exactly as many repair rows as sources went missing -- the key most
        likely to be shared across blocks) outward, adding one received
        repair row per step.  A candidate whose matrix is singular is
        remembered in the context so later blocks with the same pattern skip
        straight to the first workable width instead of re-running a doomed
        elimination.
        """
        self.blocks_decoded += 1
        esis = tuple(esis)
        position = {esi: index for index, esi in enumerate(esis)}
        last_error: Optional[SingularMatrixError] = None
        for key, used in canonical_decode_candidates(params, esis):
            if key in self.singular_decode_keys:
                self.decode_plan_retries += 1
                last_error = SingularMatrixError(
                    f"known-singular decode system for {len(used)} received symbols"
                )
                continue
            try:
                plan = self.plan_for(
                    key,
                    lambda used=used: _build_decode_plan(params, used, self.kernel),
                    decode=True,
                )
            except SingularMatrixError as error:
                self.singular_decode_keys.add(key)
                self.decode_plan_retries += 1
                last_error = error
                continue
            if used == esis:
                rhs_tail = received
            else:
                rows = np.fromiter(
                    (position[esi] for esi in used), dtype=np.intp, count=len(used)
                )
                rhs_tail = received[rows]
            return plan.apply_from_row(rhs_tail, _constraint_rows(params), kernel=self.kernel)
        raise last_error if last_error is not None else SingularMatrixError(
            "no received symbols to decode from"
        )

    def snapshot_plans(self) -> PlanStore:
        """Export the current plan cache as a picklable :class:`PlanStore`."""
        return self._plans.snapshot()

    def preload_plans(self, store: PlanStore) -> int:
        """Seed the plan cache from a store; returns how many plans were new."""
        return self._plans.preload(store)

    def stats_dict(self) -> dict:
        """A JSON-friendly snapshot for experiment reports."""
        return {
            "kernel": self.kernel_name,
            "blocks_encoded": self.blocks_encoded,
            "blocks_decoded": self.blocks_decoded,
            "plan_cache": self.stats.as_dict(),
            "decode_plan_cache": self.decode_stats.as_dict(),
            "decode_plan_retries": self.decode_plan_retries,
            "cached_plans": self.cached_plans,
        }


_default_context: Optional[CodecContext] = None


def default_context() -> CodecContext:
    """The process-wide context used when callers do not supply one."""
    global _default_context
    if _default_context is None:
        _default_context = CodecContext()
    return _default_context


def set_default_backend(name: str) -> CodecContext:
    """Replace the process-wide default context with a fresh (cold) one.

    Kept for callers that reset the default context between measurements by
    this name; ``name`` must be :data:`DEFAULT_BACKEND`, as the codec has a
    single path.
    """
    global _default_context
    if name != DEFAULT_BACKEND:
        raise ValueError(f"unknown codec backend {name!r}; the only one is {DEFAULT_BACKEND!r}")
    _default_context = CodecContext()
    return _default_context


# Plan pre-warming -------------------------------------------------------------------
#
# These build the same plans, under the same keys, that a CodecContext would
# build lazily, so a store produced here is indistinguishable from one
# snapshotted after a run.  Elimination runs on the process-default kernel,
# as live encodes and decodes do; every kernel yields byte-identical plans.


def prewarm_encode_plans(
    k_values: Iterable[int], store: Optional[PlanStore] = None
) -> PlanStore:
    """Build the encode-side elimination plan for each block size K.

    The encode-side matrix is a pure function of K, so pre-warming is exact:
    every block of ``k`` source symbols anywhere in a run will hit.  Returns
    the (possibly supplied) store with the plans added.
    """
    store = store if store is not None else PlanStore()
    kernel = get_kernel(None)
    for k in sorted(set(k_values)):
        params = for_k(k)
        key = ("encode", params)
        if key not in store:
            store.add(key, build_plan(constraint_matrix(params), kernel=kernel))
    return store


def prewarm_decode_plans(
    k: int,
    esi_sets: Iterable[Sequence[int]],
    store: Optional[PlanStore] = None,
) -> PlanStore:
    """Build decode-side plans for explicit received-ESI sets of a K-symbol block.

    Decode plans depend on which packets the network lost -- the parent
    cannot enumerate them in general.  This helper exists for callers that do
    know their loss patterns (tests, replay tooling, and the common-pattern
    pre-warm of :func:`prewarm_canonical_decode_plans`).

    Each ESI set is reduced to the same candidate ladder
    :meth:`CodecContext.decode_intermediate` walks -- minimal system first,
    widening past singular matrices -- so the stored key is exactly the one
    a live decode of that pattern will look up.  One canonical plan
    therefore pre-warms *every* ESI set sharing the missing-source pattern,
    not just the literal set given.
    """
    store = store if store is not None else PlanStore()
    params = for_k(k)
    kernel = get_kernel(None)
    for esis in esi_sets:
        for key, used in canonical_decode_candidates(params, esis):
            if key in store:
                break
            try:
                plan = _build_decode_plan(params, used, kernel)
            except SingularMatrixError:
                continue
            store.add(key, plan)
            break
    return store


#: Per-K cap on pre-warmed loss patterns.  Singletons always fit (K of
#: them); the pair budget bounds the quadratic tail for large blocks so
#: pre-warming stays a fraction of the sweep it accelerates.
DEFAULT_PREWARM_PATTERNS = 192


def common_loss_patterns(
    k: int, max_missing: int = 2, budget: Optional[int] = DEFAULT_PREWARM_PATTERNS
) -> list[tuple[int, ...]]:
    """The most common missing-source patterns of a K-symbol block.

    Under independent per-packet loss every singleton is more likely than
    any pair, so patterns are ordered all singletons first, then pairs in
    lexicographic order, truncated to ``budget`` (``None`` = no cap).  The
    order is deterministic -- the executor's jobs-N determinism contract
    extends to which plans get pre-warmed.
    """
    if max_missing < 1:
        return []
    patterns: list[tuple[int, ...]] = [(esi,) for esi in range(k)]
    if max_missing >= 2:
        for first in range(k):
            if budget is not None and len(patterns) >= budget:
                break
            for second in range(first + 1, k):
                if budget is not None and len(patterns) >= budget:
                    break
                patterns.append((first, second))
    if budget is not None:
        patterns = patterns[:budget]
    return patterns


def prewarm_canonical_decode_plans(
    k_values: Iterable[int],
    store: Optional[PlanStore] = None,
    max_missing: int = 2,
    budget_per_k: Optional[int] = DEFAULT_PREWARM_PATTERNS,
) -> PlanStore:
    """Pre-warm canonical decode plans for the common loss patterns of each K.

    For every block size and every pattern from :func:`common_loss_patterns`
    this synthesises the received-ESI set a receiver would hold after losing
    exactly those sources -- the surviving sources plus the first
    ``len(missing) + 2`` repair ESIs, enough headroom for the candidate
    ladder to widen past a singular minimal system -- and stores the first
    non-singular canonical plan.  Keys are exactly what a live decode of
    that pattern looks up, so a lossy sweep's workers start with their hot
    paths solved.
    """
    store = store if store is not None else PlanStore()
    for k in sorted(set(k_values)):
        esi_sets = []
        for missing in common_loss_patterns(k, max_missing=max_missing, budget=budget_per_k):
            gone = set(missing)
            surviving = [esi for esi in range(k) if esi not in gone]
            repairs = list(range(k, k + len(missing) + 2))
            esi_sets.append(surviving + repairs)
        prewarm_decode_plans(k, esi_sets, store=store)
    return store
