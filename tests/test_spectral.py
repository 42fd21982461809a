"""Spectral transforms: FFT/DCT round trips, Parseval, basis functions."""

import numpy as np
import pytest

from conftest import dct2
from porolab import spectral

rng = np.random.default_rng(7)


class TestRfft2:
    def test_constant_field_dc_mode(self):
        n, c = 8, 3.25
        spec = spectral.rfft2(np.full((n, n), c))
        assert abs(spec[0, 0] - c * n * n) < 1e-10
        spec[0, 0] = 0.0
        assert np.max(np.abs(spec)) < 1e-10

    def test_round_trip(self):
        x = rng.standard_normal((16, 12))
        back = spectral.irfft2(spectral.rfft2(x), s=(16, 12))
        assert np.max(np.abs(back - x)) <= 1e-12

    def test_parseval(self):
        # direct-sum oracle: sum(x^2) computed elementwise
        n = 16
        x = rng.standard_normal((n, n))
        direct = float(np.sum(x * x))
        spec = spectral.rfft2(x)
        weights = np.full(n // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        spectral_sum = float(np.sum(weights * np.abs(spec) ** 2) / n ** 2)
        assert abs(direct - spectral_sum) <= 1e-10 * direct

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError):
            spectral.rfft2(np.zeros((7, 8)))
        with pytest.raises(ValueError):
            spectral.rfft2(np.zeros((8, 9)))

    def test_linearity(self):
        x, y = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        lhs = spectral.rfft2(2.0 * x + 3.0 * y)
        rhs = 2.0 * spectral.rfft2(x) + 3.0 * spectral.rfft2(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_adjoint_identities(self):
        # the adjoint pair used by the spectral-convolution backward rule
        h, w = 8, 8
        x = rng.standard_normal((h, w))
        d = rng.standard_normal((h, w // 2 + 1)) + 1j * rng.standard_normal((h, w // 2 + 1))
        lhs = np.sum(spectral.rfft2(x).real * d.real + spectral.rfft2(x).imag * d.imag)
        rhs = np.sum(x * spectral.rfft2_adjoint(d, w))
        assert abs(lhs - rhs) < 1e-10
        g = rng.standard_normal((h, w))
        lhs = np.sum(spectral.irfft2(d, s=(h, w)) * g)
        a = spectral.irfft2_adjoint(g, w)
        rhs = np.sum(d.real * a.real + d.imag * a.imag)
        assert abs(lhs - rhs) < 1e-10

    def test_adjoints_keep_float32(self):
        # a float32 model's backward pass must not run its FFTs in 64 bits
        d = (rng.standard_normal((4, 8, 5)) + 1j * rng.standard_normal((4, 8, 5))).astype(np.complex64)
        g = rng.standard_normal((4, 8, 8)).astype(np.float32)
        assert spectral.rfft2_adjoint(d, 8).dtype == np.float32
        assert spectral.irfft2_adjoint(g, 8).dtype == np.complex64


class TestDct2:
    def test_constant_maps_to_dc(self):
        n = 8
        coeffs = dct2(np.full((n, n), 2.0))
        assert abs(coeffs[0, 0] - 2.0 * n) < 1e-12   # orthonormal: c00 = mean * n
        coeffs[0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-12

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
        x = rng.standard_normal((8, 8))
        assert abs(np.sum(x * x) - np.sum(dct2(x) ** 2)) < 1e-10
