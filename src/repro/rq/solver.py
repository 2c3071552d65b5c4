"""Gaussian elimination over GF(256).

The solver is shared by the encoder (square system: constraint matrix ->
intermediate symbols) and the decoder (overdetermined system: received
encoding symbols + static constraints -> intermediate symbols).  Row
operations are vectorised with numpy so that the cost is dominated by
``O(L^2)`` row-XOR/scale operations rather than Python-level loops over
matrix cells.  :mod:`repro.rq.plan` solves against an identity right-hand
side to capture a fixed matrix's elimination as one reusable operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.rq.gf256 import gf_addmul_rows, gf_inv, gf_scale_vector

if TYPE_CHECKING:  # pragma: no cover
    from repro.rq.kernels import GFKernel


class SingularMatrixError(ValueError):
    """Raised when the system does not have full column rank."""


def gaussian_rank(matrix: np.ndarray, kernel: Optional["GFKernel"] = None) -> int:
    """Return the rank of ``matrix`` over GF(256) (the input is not modified).

    ``kernel`` runs the row operations, as in :func:`solve`; every kernel
    gives the same rank.
    """
    addmul_rows = gf_addmul_rows if kernel is None else kernel.addmul_rows
    work = matrix.astype(np.uint8).copy()
    rows, cols = work.shape
    rank = 0
    for col in range(cols):
        candidates = np.flatnonzero(work[rank:, col])
        if not candidates.size:
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        # Rows from ``rank`` down are zero left of ``col`` (forward elimination).
        active = work[:, col:]
        pivot_value = int(active[rank, 0])
        if pivot_value != 1:
            active[rank] = gf_scale_vector(active[rank], gf_inv(pivot_value))
        targets = rank + 1 + np.flatnonzero(active[rank + 1 :, 0])
        addmul_rows(active, rank, targets, active[targets, 0])
        rank += 1
        if rank == rows:
            break
    return rank


def solve(
    matrix: np.ndarray,
    values: np.ndarray,
    num_unknowns: Optional[int] = None,
    kernel: Optional["GFKernel"] = None,
) -> np.ndarray:
    """Solve ``matrix . X = values`` for X over GF(256).

    Elimination runs on one augmented ``[matrix | values]`` array, so each
    pivot costs a single fused multiply-XOR call over both halves.  Columns
    left of the pivot are already zero in the pivot row (Gauss-Jordan), so
    each row operation only touches the columns from the pivot rightwards.

    Args:
        matrix: (n, L) uint8 coefficient matrix; ``n >= L`` is required.
        values: (n, T) uint8 right-hand sides (one row of T bytes per equation).
        num_unknowns: L; defaults to ``matrix.shape[1]``.
        kernel: optional :class:`~repro.rq.kernels.GFKernel` whose
            ``addmul_rows`` executes the fused multiply-XOR row operations;
            defaults to the numpy ground truth.  Every kernel computes the
            exact same field arithmetic, so the solution (and any plan
            built from it) is byte-identical regardless of the choice.

    Returns:
        (L, T) uint8 array of solved unknowns.

    Raises:
        SingularMatrixError: if the system does not have full column rank.
    """
    addmul_rows = gf_addmul_rows if kernel is None else kernel.addmul_rows
    rows, cols = matrix.shape
    unknowns = cols if num_unknowns is None else num_unknowns
    if values.shape[0] != rows:
        raise ValueError(f"matrix has {rows} rows but values has {values.shape[0]}")
    if rows < unknowns:
        raise SingularMatrixError(
            f"not enough equations: {rows} rows for {unknowns} unknowns"
        )
    work = np.empty((rows, cols + values.shape[1]), dtype=np.uint8)
    work[:, :cols] = matrix
    work[:, cols:] = values

    for col in range(unknowns):
        candidates = np.flatnonzero(work[col:, col])
        if not candidates.size:
            raise SingularMatrixError(f"no pivot available for column {col}")
        # Column ``col`` has its pivot in row ``col``: every earlier column
        # found one, in order.
        pivot = col + int(candidates[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
        active = work[:, col:]
        pivot_value = int(active[col, 0])
        if pivot_value != 1:
            active[col] = gf_scale_vector(active[col], gf_inv(pivot_value))
        # Eliminate the pivot column from every other row (Gauss-Jordan) so the
        # solution can be read off directly at the end.
        column = active[:, 0].copy()
        column[col] = 0
        targets = np.flatnonzero(column)
        if targets.size:
            addmul_rows(active, col, targets, column[targets])

    return work[:unknowns, cols:].copy()
