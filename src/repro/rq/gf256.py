"""GF(256) arithmetic used by the HDPC rows and the decoder.

The field is GF(2^8) defined by the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D) with generator alpha = 2, matching
RFC 6330 section 5.7.  Addition is XOR; multiplication uses exp/log tables.

The module exposes scalar operations plus numpy-vectorised helpers used by
the Gaussian-elimination solver (scaling whole rows, scaling a batch of rows
by per-row factors, the fused multiply-XOR row operation).
"""

from __future__ import annotations

import numpy as np

_PRIMITIVE_POLYNOMIAL = 0x11D
_FIELD_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(256) with generator alpha = 2."""
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLYNOMIAL
    # Duplicate the exp table so that exp[log(a) + log(b)] never needs a modulo.
    for power in range(255, 510):
        exp[power] = exp[power - 255]
    log[0] = 0  # never used for zero operands; guarded explicitly
    return exp, log


OCT_EXP, OCT_LOG = _build_tables()

#: alpha (the field generator) as an integer, exposed for the HDPC construction.
ALPHA = 2


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(OCT_EXP[int(OCT_LOG[a]) + int(OCT_LOG[b])])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b`` (``b`` must be non-zero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(OCT_EXP[(int(OCT_LOG[a]) - int(OCT_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse of a non-zero field element."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(OCT_EXP[(255 - int(OCT_LOG[a])) % 255])


def gf_pow(a: int, exponent: int) -> int:
    """Raise a field element to an integer power (exponent may exceed 255)."""
    if a == 0:
        return 0 if exponent != 0 else 1
    return int(OCT_EXP[(int(OCT_LOG[a]) * exponent) % 255])


def alpha_power(exponent: int) -> int:
    """Return alpha**exponent, the conventional HDPC coefficient."""
    return int(OCT_EXP[exponent % 255])


def gf_scale_vector(vector: np.ndarray, factor: int) -> np.ndarray:
    """Return ``factor * vector`` element-wise over GF(256).

    ``vector`` must be a uint8 numpy array; the result is a new array.
    """
    if factor == 0:
        return np.zeros_like(vector)
    if factor == 1:
        return vector.copy()
    result = np.zeros_like(vector)
    nonzero = vector != 0
    if np.any(nonzero):
        logs = OCT_LOG[vector[nonzero]] + int(OCT_LOG[factor])
        result[nonzero] = OCT_EXP[logs]
    return result


def gf_scale_rows(rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Scale each row of ``rows`` by the corresponding entry of ``factors``.

    Used by the solver to eliminate a pivot column from many rows at once:
    ``rows[i] <- factors[i] * pivot_row`` is computed for every i in one
    vectorised pass.

    Args:
        rows: (n, m) uint8 array (each row will be scaled independently).
        factors: (n,) uint8 array of per-row scale factors.

    Returns:
        A new (n, m) uint8 array.
    """
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D array")
    result = np.zeros_like(rows)
    nonzero_factor = factors != 0
    if not np.any(nonzero_factor):
        return result
    active_rows = rows[nonzero_factor]
    active_factors = factors[nonzero_factor]
    nonzero_cells = active_rows != 0
    factor_logs = OCT_LOG[active_factors].astype(np.int64)
    logs = OCT_LOG[active_rows] + factor_logs[:, None]
    scaled = np.where(nonzero_cells, OCT_EXP[logs], 0).astype(np.uint8)
    result[nonzero_factor] = scaled
    return result


def gf_addmul_rows(
    work: np.ndarray, source_row: int, targets: np.ndarray, factors: np.ndarray
) -> None:
    """In place: ``work[targets] ^= factors[:, None] * work[source_row]``.

    The fused multiply-XOR of Gaussian elimination: eliminate a pivot column
    from many rows at once.  ``targets`` must be distinct row indices other
    than ``source_row``.
    """
    if work.ndim != 2:
        raise ValueError("work must be a 2-D array")
    targets = np.asarray(targets, dtype=np.intp)
    if targets.size:
        work[targets] ^= gf_scale_rows(
            np.tile(work[source_row], (targets.size, 1)), np.asarray(factors, dtype=np.uint8)
        )


def _build_mul_table() -> np.ndarray:
    """Build the full 256 x 256 GF(256) multiplication table (64 KiB)."""
    logs = OCT_LOG[np.arange(256)]
    table = OCT_EXP[logs[:, None] + logs[None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    return table


#: Full multiplication table: ``MUL_TABLE[a, b] == gf_mul(a, b)``.  One fancy
#: index replaces the log/exp/zero-mask dance, which is what makes the batched
#: matrix product below fast enough for whole-block symbol planes.
MUL_TABLE = _build_mul_table()


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two GF(256) matrices: ``(m, n) . (n, t) -> (m, t)`` (uint8).

    Vectorised column-by-column: for each k the outer product of ``a[:, k]``
    and ``b[k]`` is one table gather plus one XOR-accumulate, so the Python
    loop is O(n) regardless of the symbol size t.  This is the workhorse of
    elimination-plan replay, where ``a`` is a cached solution operator and
    ``b`` is the (n x symbol_size) symbol plane of a block.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gf_matmul needs two 2-D arrays")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} . {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for k in range(a.shape[1]):
        column = a[:, k]
        if not column.any():
            continue
        value_row = b[k]
        if not value_row.any():
            continue
        # Two-stage gather: expand the column against the full table first
        # ((m, 256), cheap), then index by the value row.  Roughly 4x faster
        # than one broadcast 2-D fancy index over the same data.
        products = MUL_TABLE[column]
        out ^= products[:, value_row]
    return out


def gf_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Multiply a GF(256) matrix by a GF(256) column vector (both uint8)."""
    result = np.zeros(matrix.shape[0], dtype=np.uint8)
    for row_index in range(matrix.shape[0]):
        accumulator = 0
        row = matrix[row_index]
        nonzero_columns = np.nonzero(row)[0]
        for column in nonzero_columns:
            accumulator ^= gf_mul(int(row[column]), int(vector[column]))
        result[row_index] = accumulator
    return result
