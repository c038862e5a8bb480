"""Small dense linear-algebra helpers on float64 numpy arrays.

Vectors are 1-D arrays, matrices 2-D row-major arrays. Every routine is a
thin shape-checked wrapper around numpy/LAPACK, so callers get actionable
dimension errors.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


def as_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {out.shape}")
    return out


def as_matrix(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {out.shape}")
    return out


def matvec(a, v) -> np.ndarray:
    """Matrix-vector product with explicit shape checking."""
    a = as_matrix(a)
    v = as_vector(v)
    if a.shape[1] != v.shape[0]:
        raise DimensionError(
            f"matvec shape mismatch: matrix {a.shape} x vector {v.shape}"
        )
    return a @ v


def spectral_norm(a) -> float:
    """Largest singular value, from LAPACK's SVD (``np.linalg.norm(a, 2)``).

    Exact to rounding, repeated top singular values included. Entries must
    be finite: LAPACK raises on NaN and returns nan on Inf, so callers check.
    """
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError("spectral_norm of an empty matrix")
    return float(np.linalg.norm(a, 2))
