"""Spectral transforms: truncated DFTs against np.fft, adjoints, DCT round trips, Parseval, basis functions."""

import numpy as np
import pytest

from conftest import dct2
from porolab import spectral
from porolab.operators import _mode_rows

rng = np.random.default_rng(7)


def all_modes(h, w):
    """Every row and every half-spectrum column: the untruncated transform."""
    return np.arange(h), w // 2 + 1


# (H, W, m1, m2): a whole even spectrum with its Nyquist column, a truncated
# even block, an odd grid's whole half-spectrum (no Nyquist column) and the
# FNO's 12x12 modes at 64x64
BLOCKS = [(8, 8, 8, 5), (8, 8, 4, 3), (9, 7, 5, 4), (64, 64, 12, 12)]


class TestRfft2:
    # np.fft is the oracle: the retained block of its half-spectrum, and its
    # inverse of the zero-filled half-spectrum holding the block
    @pytest.mark.parametrize("h,w,m1,m2", BLOCKS)
    def test_matches_numpy_rfft2(self, h, w, m1, m2):
        rows = _mode_rows(h, m1)
        x = rng.standard_normal((2, 3, h, w))
        want = np.fft.rfft2(x)[..., rows, :m2]
        assert np.max(np.abs(spectral.rfft2(x, rows, m2) - want)) <= 1e-12

    @pytest.mark.parametrize("h,w,m1,m2", BLOCKS)
    def test_matches_numpy_irfft2(self, h, w, m1, m2):
        rows = _mode_rows(h, m1)
        block = rng.standard_normal((2, 3, m1, m2)) + 1j * rng.standard_normal((2, 3, m1, m2))
        spec = np.zeros((2, 3, h, w // 2 + 1), dtype=complex)
        spec[..., rows[:, None], np.arange(m2)[None, :]] = block
        want = np.fft.irfft2(spec, s=(h, w))
        assert np.max(np.abs(spectral.irfft2(block, rows, (h, w)) - want)) <= 1e-12

    def test_constant_field_dc_mode(self):
        n, c = 8, 3.25
        spec = spectral.rfft2(np.full((n, n), c), *all_modes(n, n))
        assert abs(spec[0, 0] - c * n * n) < 1e-10
        spec[0, 0] = 0.0
        assert np.max(np.abs(spec)) < 1e-10

    def test_round_trip(self):
        for h, w in ((16, 12), (9, 7)):
            x = rng.standard_normal((h, w))
            rows, m2 = all_modes(h, w)
            back = spectral.irfft2(spectral.rfft2(x, rows, m2), rows, s=(h, w))
            assert np.max(np.abs(back - x)) <= 1e-12

    def test_parseval(self):
        # direct-sum oracle: sum(x^2) computed elementwise
        n = 16
        x = rng.standard_normal((n, n))
        direct = float(np.sum(x * x))
        spec = spectral.rfft2(x, *all_modes(n, n))
        weights = np.full(n // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        spectral_sum = float(np.sum(weights * np.abs(spec) ** 2) / n ** 2)
        assert abs(direct - spectral_sum) <= 1e-10 * direct

    def test_linearity(self):
        x, y = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        rows = _mode_rows(8, 4)
        lhs = spectral.rfft2(2.0 * x + 3.0 * y, rows, 3)
        rhs = 2.0 * spectral.rfft2(x, rows, 3) + 3.0 * spectral.rfft2(y, rows, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_adjoint_identities(self):
        # the adjoint pair used by the spectral-convolution backward rule
        for h, w, m1, m2 in BLOCKS:
            rows = _mode_rows(h, m1)
            x = rng.standard_normal((h, w))
            d = rng.standard_normal((m1, m2)) + 1j * rng.standard_normal((m1, m2))
            fx = spectral.rfft2(x, rows, m2)
            lhs = np.sum(fx.real * d.real + fx.imag * d.imag)
            rhs = np.sum(x * spectral.rfft2_adjoint(d, rows, (h, w)))
            assert abs(lhs - rhs) < 1e-10
            g = rng.standard_normal((h, w))
            lhs = np.sum(spectral.irfft2(d, rows, s=(h, w)) * g)
            a = spectral.irfft2_adjoint(g, rows, m2)
            rhs = np.sum(d.real * a.real + d.imag * a.imag)
            assert abs(lhs - rhs) < 1e-10

    def test_adjoints_keep_float32(self):
        # a float32 model's backward pass must not run its transforms in 64 bits
        rows = _mode_rows(8, 4)
        d = (rng.standard_normal((4, 4, 3)) + 1j * rng.standard_normal((4, 4, 3))).astype(np.complex64)
        g = rng.standard_normal((4, 8, 8)).astype(np.float32)
        assert spectral.rfft2_adjoint(d, rows, (8, 8)).dtype == np.float32
        assert spectral.irfft2_adjoint(g, rows, 3).dtype == np.complex64


class TestDct2:
    def test_dc_maps_to_constant(self):
        n = 8
        coeffs = np.zeros((n, n))
        coeffs[0, 0] = 2.0 * n                     # orthonormal: c00 = mean * n
        assert np.max(np.abs(spectral.idct2(coeffs) - 2.0)) < 1e-12

    def test_round_trip(self):
        x = rng.standard_normal((12, 10))
        assert np.max(np.abs(spectral.idct2(dct2(x)) - x)) <= 1e-12

    @pytest.mark.parametrize("j,k", [(0, 0), (2, 3), (7, 1)])
    def test_unit_coefficient_gives_cosine_mode(self, j, k):
        # basis-function oracle: the orthonormal sampled cosine c_j c_k cos(...)
        n = 8
        coeff = np.zeros((n, n))
        coeff[j, k] = 1.0
        field = spectral.idct2(coeff)
        i = np.arange(n)
        cj = np.sqrt((1.0 if j == 0 else 2.0) / n)
        ck = np.sqrt((1.0 if k == 0 else 2.0) / n)
        expected = np.outer(cj * np.cos(np.pi * j * (i + 0.5) / n),
                            ck * np.cos(np.pi * k * (i + 0.5) / n))
        assert np.max(np.abs(field - expected)) < 1e-12

    def test_orthonormality(self):
        coeffs = rng.standard_normal((8, 8))
        assert abs(np.sum(coeffs ** 2) - np.sum(spectral.idct2(coeffs) ** 2)) < 1e-10
