"""Array-level spectral transforms: real 2-D FFT and orthonormal DCT.

These operate on plain numpy arrays over the last two axes and preserve the
floating-point precision of their input.  The half-spectrum convention of
``rfft2`` stores all row frequencies but only the non-negative column
frequencies; ``_column_weights`` gives the multiplicity of each stored
column when summing energies or forming adjoints.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.fft as _fft

_WORKERS = min(2, os.cpu_count() or 1)


def rfft2(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward real FFT over the last two axes (H, W even)."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"rfft2: extents must be even, got {(h, w)}")
    return _fft.rfft2(x, axes=(-2, -1), workers=_WORKERS)


def irfft2(X: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`rfft2`; ``s`` is the spatial output shape."""
    h, w = s
    if h % 2 or w % 2:
        raise ValueError(f"irfft2: extents must be even, got {(h, w)}")
    return _fft.irfft2(X, s=s, axes=(-2, -1), workers=_WORKERS)


def _column_weights(w: int, dtype=np.float64) -> np.ndarray:
    """Multiplicity of each rfft2 column in the full spectrum (w even)."""
    wh = w // 2 + 1
    weights = np.full(wh, 2.0, dtype=dtype)
    weights[0] = 1.0
    weights[-1] = 1.0
    return weights


def rfft2_adjoint(g: np.ndarray, w_full: int) -> np.ndarray:
    """Adjoint of ``rfft2`` under the real inner product: half-spectrum -> field."""
    n = g.shape[-2] * w_full
    weights = _column_weights(w_full, dtype=g.real.dtype)
    return n * irfft2(g / weights, s=(g.shape[-2], w_full))


def irfft2_adjoint(g: np.ndarray, w_full: int) -> np.ndarray:
    """Adjoint of ``irfft2`` under the real inner product: field -> half-spectrum."""
    n = g.shape[-2] * g.shape[-1]
    weights = _column_weights(w_full, dtype=g.dtype)
    return (weights / n) * rfft2(g)


def idct2(X: np.ndarray) -> np.ndarray:
    """Orthonormal type-III DCT over the last two axes (inverse of the type-II DCT)."""
    return _fft.idctn(X, type=2, norm="ortho", axes=(-2, -1))
