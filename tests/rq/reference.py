"""A direct-solve oracle for the planned codec path.

:class:`ReferenceContext` is a :class:`~repro.rq.backend.CodecContext` whose
encode and decode rebuild the full constraint (or received) matrix and run
Gaussian elimination from scratch for every block: no plan, no cache, no
canonical candidate ladder.  Byte-equality tests and the codec benchmark
compare the planned path against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.rq.backend import CodecContext
from repro.rq.matrix import build_constraint_matrix
from repro.rq.params import CodeParameters
from repro.rq.plan import received_matrix
from repro.rq.solver import solve


class ReferenceContext(CodecContext):
    """Full per-block elimination on the context's kernel (ground truth)."""

    def encode_intermediate(self, params: CodeParameters, source: np.ndarray) -> np.ndarray:
        self.blocks_encoded += 1
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        rhs = np.zeros((params.num_intermediate_symbols, source.shape[1]), dtype=np.uint8)
        rhs[constraints:] = source
        return solve(build_constraint_matrix(params), rhs, kernel=self.kernel)

    def decode_intermediate(
        self, params: CodeParameters, esis: Sequence[int], received: np.ndarray
    ) -> np.ndarray:
        self.blocks_decoded += 1
        matrix = received_matrix(params, tuple(esis))
        constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
        rhs = np.zeros((constraints + len(esis), received.shape[1]), dtype=np.uint8)
        rhs[constraints:] = received
        return solve(
            matrix, rhs, num_unknowns=params.num_intermediate_symbols, kernel=self.kernel
        )
