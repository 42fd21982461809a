"""Permeability random field: KL spectrum, determinism, statistics, nesting."""

import numpy as np
import pytest

from conftest import dct2
from porolab.grf import GrfSpec, kl_eigenvalues, sample_grf, to_permeability


def basis_values(spec, cell):
    """phi_jk evaluated at one cell centre, as an (n, n) grid over (j, k)."""
    n = spec.n
    i, m = cell
    j = np.arange(n, dtype=np.float64)
    c = np.full(n, np.sqrt(2.0))
    c[0] = 1.0
    fx = c * np.cos(np.pi * j * (i + 0.5) / n)
    fy = c * np.cos(np.pi * j * (m + 0.5) / n)
    return np.outer(fx, fy)


def covariance_pair(spec, cell_a, cell_b):
    """Analytic covariance Cov(g(x_a), g(x_b)) = sum_jk mu_jk phi_jk(a) phi_jk(b)."""
    mu = kl_eigenvalues(spec)
    return float(np.sum(mu * basis_values(spec, cell_a) * basis_values(spec, cell_b)))


class TestEigenvalues:
    def test_dc_mode(self):
        mu = kl_eigenvalues(GrfSpec(n=8))
        assert abs(mu[0, 0] - 1.0 / 81.0) < 1e-15

    def test_first_mode(self):
        mu = kl_eigenvalues(GrfSpec(n=8))
        expected = (np.pi ** 2 + 9.0) ** -2
        assert abs(mu[1, 0] - expected) < 1e-15
        assert abs(mu[0, 1] - expected) < 1e-15
        assert abs(mu[1, 0] - 2.8087e-3) < 3e-7

    def test_monotone_in_total_frequency(self):
        mu = kl_eigenvalues(GrfSpec(n=16))
        j = np.arange(16)
        freq = j[:, None] ** 2 + j[None, :] ** 2
        order = np.argsort(freq.ravel())
        assert np.all(np.diff(mu.ravel()[order]) <= 1e-18)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            GrfSpec(n=1)


class TestSampling:
    def test_deterministic_per_draw(self):
        spec = GrfSpec(n=16, seed=123)
        a = sample_grf(spec, 5)
        b = sample_grf(spec, 5)
        assert np.array_equal(a, b)

    def test_distinct_draws_differ(self):
        spec = GrfSpec(n=16, seed=123)
        assert not np.array_equal(sample_grf(spec, 0), sample_grf(spec, 1))

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            sample_grf(GrfSpec(n=8), -1)

    def test_field_variance_matches_trace(self):
        # analytic trace oracle: field-averaged variance = sum of eigenvalues
        spec = GrfSpec(n=16, seed=2)
        fields = np.stack([sample_grf(spec, d) for d in range(4000)])
        empirical = float(np.mean(fields ** 2))
        analytic = float(kl_eigenvalues(spec).sum())
        assert abs(empirical - analytic) < 0.06 * analytic

    def test_mode_nesting_under_refinement(self):
        # doubling n reproduces the shared-mode coefficients exactly
        coarse = GrfSpec(n=8, seed=31)
        fine = GrfSpec(n=16, seed=31)
        for draw in (0, 3):
            gc = sample_grf(coarse, draw)
            gf = sample_grf(fine, draw)
            cc = dct2(gc) / coarse.n
            cf = dct2(gf) / fine.n
            ratio = np.sqrt(kl_eigenvalues(coarse))
            xi_c = cc / ratio
            xi_f = cf[:8, :8] / ratio
            assert np.max(np.abs(xi_c - xi_f)) < 1e-10


class TestPermeability:
    def test_zero_field(self):
        assert not to_permeability(np.zeros((4, 4)), 10.0).any()

    def test_absolute_value_and_scale(self):
        assert to_permeability(np.array([-0.5]), 10.0)[0] == 5.0

    def test_non_negative(self):
        g = sample_grf(GrfSpec(n=16, seed=77), 0)
        assert to_permeability(g, 10.0).min() >= 0.0


class TestCovariance:
    def test_basis_value_consistency(self):
        # phi_00 is the constant function 1
        spec = GrfSpec(n=8)
        phi = basis_values(spec, (3, 5))
        assert abs(phi[0, 0] - 1.0) < 1e-15

    def test_pair_covariance_against_samples(self):
        spec = GrfSpec(n=12, seed=5)
        fields = np.stack([sample_grf(spec, d) for d in range(6000)])
        pair_rng = np.random.default_rng(0)
        for _ in range(3):
            a = tuple(pair_rng.integers(0, 12, size=2))
            b = (int(a[0]), (a[1] + 2) % 12)   # nearby cell: sizable covariance
            analytic = covariance_pair(spec, a, b)
            empirical = float(np.mean(fields[:, a[0], a[1]] * fields[:, b[0], b[1]]))
            assert abs(empirical - analytic) < 0.12 * abs(analytic)
