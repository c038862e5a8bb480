"""The spectral norm of a dense float64 matrix, and ``DimensionError``, the
error every module raises on operands of the wrong shape.

``spectral_norm`` is a shape-checked wrapper around LAPACK, so callers get
an actionable dimension error instead of a numpy one.
"""

from __future__ import annotations

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


def spectral_norm(a) -> float:
    """Largest singular value, from LAPACK's SVD (``np.linalg.norm(a, 2)``).

    Exact to rounding, repeated top singular values included. Entries must
    be finite: LAPACK raises on NaN and returns nan on Inf, so callers check.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError("spectral_norm of an empty matrix")
    return float(np.linalg.norm(a, 2))
