"""Array-level spectral transforms: truncated real 2-D DFT and orthonormal DCT.

These act on numpy arrays over the last two axes and keep the precision of
their input.  ``rfft2`` computes only a retained block of the half-spectrum,
the row frequencies ``rows`` by the first ``m2`` columns, as two dense
products with bases built per call: O(HW (m1 + m2)), exact on odd extents.
It equals ``np.fft.rfft2(x)[..., rows, :m2]``; ``irfft2`` equals
``np.fft.irfft2`` of the half-spectrum holding the block and zeros elsewhere.
``rfft2`` is the analysis (the basis products) and its adjoint the synthesis
(their conjugate transposes); ``irfft2`` and its adjoint weight those two.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft


def _bases(rows: np.ndarray, h: int, w: int, m2: int, real):
    """Row basis [m1, H] exp(-2 pi i r h / H), complex, and column basis [W, 2*m2]:
    exp(-2 pi i l w / W) as interleaved (cos, -sin) reals, so ``x @ col`` viewed
    as complex is the column DFT of a real ``x``."""
    cplx = np.result_type(real, np.complex64)
    row = np.exp((-2j * np.pi / h) * (np.outer(rows, np.arange(h)) % h)).astype(cplx)
    col = np.exp((-2j * np.pi / w) * (np.outer(np.arange(w), np.arange(m2)) % w)).astype(cplx)
    return row, col.view(real)


def _analysis(x: np.ndarray, rows: np.ndarray, m2: int) -> np.ndarray:
    """Row and column basis products: [..., H, W] -> [..., len(rows), m2], complex."""
    row, col = _bases(rows, *x.shape[-2:], m2, np.result_type(x, np.float32))
    return np.matmul(row, np.matmul(x, col).view(row.dtype))


def _synthesis(X: np.ndarray, rows: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """Conjugate transposes of the basis products: block -> real field of shape ``s``."""
    real = np.finfo(X.dtype).dtype
    row, col = _bases(rows, *s, X.shape[-1], real)
    return np.matmul(np.matmul(row.conj().T, X).view(real), col.T)


def _weights(m2: int, s: tuple[int, int], dtype) -> np.ndarray:
    """Multiplicity of each of the first ``m2`` rfft2 columns in the full spectrum
    over H*W: 1 for column 0 and the Nyquist column (even W only), 2 for others."""
    weights = np.full(m2, 2.0, dtype=dtype)
    weights[0] = 1.0
    if 2 * (m2 - 1) == s[1]:
        weights[-1] = 1.0
    return weights / (s[0] * s[1])


def rfft2(x: np.ndarray, rows: np.ndarray, m2: int) -> np.ndarray:
    """Unnormalized forward real DFT, retained block: [..., H, W] -> [..., len(rows), m2]."""
    return _analysis(x, rows, m2)


def irfft2(X: np.ndarray, rows: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`rfft2` with zeros outside the block; ``s`` is the field shape (H, W)."""
    return _synthesis(X * _weights(X.shape[-1], s, np.finfo(X.dtype).dtype), rows, s)


def rfft2_adjoint(g: np.ndarray, rows: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """Adjoint of ``rfft2`` under the real inner product: block -> field of shape ``s``."""
    return _synthesis(g, rows, s)


def irfft2_adjoint(g: np.ndarray, rows: np.ndarray, m2: int) -> np.ndarray:
    """Adjoint of ``irfft2`` under the real inner product: field -> block."""
    return _weights(m2, g.shape[-2:], g.dtype) * _analysis(g, rows, m2)


def idct2(X: np.ndarray) -> np.ndarray:
    """Orthonormal type-III DCT over the last two axes (inverse of the type-II DCT)."""
    return _fft.idctn(X, type=2, norm="ortho", axes=(-2, -1))
