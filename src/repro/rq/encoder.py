"""Block encoder: systematic + rateless encoding-symbol generation.

A :class:`BlockEncoder` takes the K source symbols of one source block,
computes the L intermediate symbols once (delegated to its
:class:`~repro.rq.backend.CodecContext`, which caches elimination plans per
K') and can then generate *any* encoding symbol on demand:

* ESIs ``0 .. K-1`` are the source symbols themselves (systematic property,
  verified at construction time);
* ESIs ``K, K+1, ...`` are repair symbols, generated by the LT encoder over
  the intermediate symbols; there is no practical limit on how many can be
  produced (the code is rateless).

The whole block lives in the **symbol plane**: source, intermediate and
batched encoding symbols are (rows x symbol_size) uint8 matrices, so
producing a run of symbols is a handful of vectorised XORs instead of a
Python loop per byte.  The intermediate-symbol solve runs on the context's
pluggable GF(256) kernel (:mod:`repro.rq.kernels`); every kernel emits
byte-identical symbols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.rq.params import CodeParameters, for_k
from repro.rq.tuples import lt_neighbours

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.backend import CodecContext


class BlockEncoder:
    """Encoder for a single source block."""

    def __init__(
        self,
        source_symbols: Sequence[bytes],
        params: CodeParameters | None = None,
        context: Optional["CodecContext"] = None,
    ) -> None:
        if not source_symbols:
            raise ValueError("a source block needs at least one source symbol")
        symbol_size = len(source_symbols[0])
        if symbol_size == 0:
            raise ValueError("source symbols must be non-empty")
        if any(len(symbol) != symbol_size for symbol in source_symbols):
            raise ValueError("all source symbols must have the same size")

        if context is None:
            from repro.rq.backend import default_context

            context = default_context()
        self.context = context
        self.params = params if params is not None else for_k(len(source_symbols))
        if self.params.num_source_symbols != len(source_symbols):
            raise ValueError(
                f"parameters are for K={self.params.num_source_symbols} but "
                f"{len(source_symbols)} source symbols were given"
            )
        self.symbol_size = symbol_size
        self._source = np.frombuffer(b"".join(source_symbols), dtype=np.uint8).reshape(
            len(source_symbols), symbol_size
        )
        self._intermediate = self.context.encode_intermediate(self.params, self._source)

    @property
    def num_source_symbols(self) -> int:
        """K: number of source symbols in this block."""
        return self.params.num_source_symbols

    @property
    def source_plane(self) -> np.ndarray:
        """The (K x symbol_size) source symbol matrix (do not mutate)."""
        return self._source

    @property
    def intermediate_plane(self) -> np.ndarray:
        """The (L x symbol_size) intermediate symbol matrix (do not mutate)."""
        return self._intermediate

    def source_symbol(self, esi: int) -> bytes:
        """Return source symbol ``esi`` (0 <= esi < K) directly."""
        if not 0 <= esi < self.num_source_symbols:
            raise IndexError(f"source symbol index {esi} out of range")
        return self._source[esi].tobytes()

    def repair_symbol(self, esi: int) -> bytes:
        """Return repair symbol ``esi`` (esi >= K)."""
        if esi < self.num_source_symbols:
            raise ValueError(f"repair symbols start at ESI {self.num_source_symbols}, got {esi}")
        return self._lt_encode_row(esi).tobytes()

    def symbol(self, esi: int) -> bytes:
        """Return the encoding symbol with the given ESI (source or repair).

        For source ESIs this returns the stored source symbol directly (no
        coding work), which mirrors what a Polyraptor sender does on the wire.
        """
        if esi < self.num_source_symbols:
            return self.source_symbol(esi)
        return self._lt_encode_row(esi).tobytes()

    def symbol_block(self, esis: Sequence[int]) -> np.ndarray:
        """Return the (len(esis) x symbol_size) plane of encoding symbols.

        Source ESIs are copied straight from the source plane; repair ESIs
        are XOR-accumulated from the intermediate plane.  This is the batched
        path used when a whole run of symbols is needed at once (initial
        window pushes, one-shot object encoding, tests).
        """
        out = np.empty((len(esis), self.symbol_size), dtype=np.uint8)
        k = self.num_source_symbols
        for row, esi in enumerate(esis):
            if esi < 0:
                raise ValueError(f"ESI must be non-negative, got {esi}")
            if esi < k:
                out[row] = self._source[esi]
            else:
                out[row] = self._lt_encode_row(esi)
        return out

    def encoded_symbol_via_lt(self, esi: int) -> bytes:
        """Return the LT-encoded value for any ESI (including source ESIs).

        Used by tests to verify the systematic property: for ``esi < K`` this
        must equal :meth:`source_symbol`.
        """
        return self._lt_encode_row(esi).tobytes()

    def _lt_encode_row(self, internal_symbol_id: int) -> np.ndarray:
        indices = list(lt_neighbours(self.params, internal_symbol_id))
        return np.bitwise_xor.reduce(self._intermediate[indices], axis=0)

    def lt_row_for(self, internal_symbol_id: int) -> np.ndarray:
        """Expose the GF(2) LT row of an ESI (used by the decoder and tests)."""
        from repro.rq.matrix import lt_row

        return lt_row(self.params, internal_symbol_id)
