"""The spectral norm of a dense float64 matrix, or of each matrix of a stack,
and ``DimensionError``, the error every module raises on operands of the
wrong shape.

``spectral_norm`` is a shape-checked wrapper around LAPACK, so callers get
an actionable dimension error instead of a numpy one.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


def spectral_norm(a) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix of a stack.

    ``a`` is (m, n), which gives a float, or (..., m, n), which gives one
    norm per matrix, shaped like the leading axes; an empty stack gives an
    empty array, and an empty matrix raises ``DimensionError``. Every norm
    comes from one ``np.linalg.svd(a, compute_uv=False)`` call, LAPACK's
    SVD, the routine ``np.linalg.norm(a, 2)`` uses: singular values come
    sorted in descending order, so the first is the norm, with the bits of
    ``np.linalg.norm`` of that matrix alone. Exact to rounding, repeated
    top singular values included. Entries must be finite: LAPACK raises on
    NaN and returns nan on Inf, so callers check.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if 0 in a.shape[-2:]:
        raise DimensionError(f"spectral_norm of an empty matrix, shape {a.shape}")
    sigma = np.linalg.svd(a, compute_uv=False)[..., 0]
    return sigma if a.ndim > 2 else float(sigma)
