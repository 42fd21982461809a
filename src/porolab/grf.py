"""Gaussian-random-field permeability sampling via a DCT Karhunen-Loeve expansion.

The covariance operator is (-Laplacian + _SHIFT*I)^(-_EXPONENT) on the unit
square with zero-Neumann boundary conditions, whose eigenfunctions are the
cosine modes phi_jk(x, y) = c_j c_k cos(pi j x) cos(pi k y) with eigenvalues
mu_jk = (pi^2 (j^2 + k^2) + _SHIFT)^(-_EXPONENT).  The constants are fixed at
the Darcy prior (-Laplacian + 9I)^-2 of the FNO benchmarks (Li et al.,
"Fourier neural operator for parametric partial differential equations",
ICLR 2021, arXiv 2010.08895).  A field sample is

    g = sum_jk sqrt(mu_jk) xi_jk phi_jk,   xi_jk ~ N(0, 1) i.i.d.,

evaluated at cell centres x_i = (i + 1/2)/n, which is exactly ``n * idct2``
of the coefficient grid under the orthonormal DCT convention.

Noise stream policy: the xi are drawn from a counter-based Philox generator
keyed by (seed, draw_index) and laid onto the (j, k) grid in expanding
L-shaped shells max(j, k) = 0, 1, 2, ...  The stream position of a mode
therefore depends only on (j, k), so refining n extends the mode set without
changing the coefficients already present on a coarser grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

from .spectral import idct2

_SHIFT = 9.0
_EXPONENT = 2


@dataclass(frozen=True)
class GrfSpec:
    """Sampling parameters for the permeability random field."""

    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid extent must be >= 2, got {self.n}")


def kl_eigenvalues(spec: GrfSpec) -> np.ndarray:
    """Eigenvalues mu_jk = (pi^2 (j^2 + k^2) + _SHIFT)^(-_EXPONENT), j,k = 0..n-1."""
    j = np.arange(spec.n, dtype=np.float64)
    lam = np.pi ** 2 * (j[:, None] ** 2 + j[None, :] ** 2) + _SHIFT
    return lam ** (-float(_EXPONENT))


@lru_cache(maxsize=8)
def _shell_order(n: int) -> np.ndarray:
    """Flat (j*n + k) indices of modes in expanding max(j,k) shells."""
    order = np.empty(n * n, dtype=np.int64)
    pos = 0
    for s in range(n):
        for j in range(s):           # (j, s) for j < s
            order[pos] = j * n + s
            pos += 1
        for j in range(s, -1, -1):   # (s, k) for k = s..0
            order[pos] = s * n + j
            pos += 1
    return order


def _noise_grid(spec: GrfSpec, draw_index: int) -> np.ndarray:
    """Standard-normal xi_jk grid, fully determined by (seed, draw_index)."""
    if draw_index < 0:
        raise ValueError("draw_index must be non-negative")
    gen = Generator(Philox(key=spec.seed, counter=draw_index << 64))
    stream = gen.standard_normal(spec.n * spec.n)
    grid = np.empty(spec.n * spec.n, dtype=np.float64)
    grid[_shell_order(spec.n)] = stream
    return grid.reshape(spec.n, spec.n)


def sample_grf(spec: GrfSpec, draw_index: int) -> np.ndarray:
    """One n-by-n sample of the zero-mean field (deterministic per draw)."""
    coeff = np.sqrt(kl_eigenvalues(spec)) * _noise_grid(spec, draw_index)
    return spec.n * idct2(coeff)


def to_permeability(g: np.ndarray, amplitude: float) -> np.ndarray:
    """Non-negative isotropic permeability field K = amplitude * |g|."""
    return amplitude * np.abs(g)

