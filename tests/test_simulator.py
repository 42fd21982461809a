"""Two-phase IMPES simulator: physics oracles, budgets, bounds, refinement."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from porolab import simulator
from porolab.grf import GrfSpec, sample_grf, to_permeability
from porolab.simulator import (ReservoirConfig, assemble_pressure, darcy_fluxes,
                               face_transmissibility, relperm, run_simulation,
                               solve_pressure, stable_dt, total_mobility,
                               update_saturation, water_budget_error,
                               _assemble_from_faces, _hierarchy, _mobility_faces, _vcycle)

rng = np.random.default_rng(3)


def heterogeneous_k(n, seed=21):
    return to_permeability(sample_grf(GrfSpec(n=n, seed=seed), 0), 10.0) + 0.05


def fractional_flow(sw, cfg):
    lam_w, lam_t = total_mobility(sw, cfg)
    return lam_w / lam_t


def grid_k(nx, nz):
    """Heterogeneous permeability on an nx x nz grid (a corner of a square draw)."""
    return heterogeneous_k(max(nx, nz))[:nx, :nz]


# Grids of at most 64 cells (4x4, 8x8, 9x5, 20x1) are inverted directly;
# 16x16 has one coarse level, 33x17 two with odd extents, 64x64 three.
GRIDS = [(4, 4), (8, 8), (16, 16), (64, 64), (9, 5), (33, 17), (20, 1)]


def coo_assembly(txm, tzm):
    """Reference pressure matrix from COO triplets, producer column as identity rows."""
    nx, nz = txm.shape[0] + 1, tzm.shape[1] + 1
    diag = np.zeros((nx, nz))
    diag[:-1, :] += txm
    diag[1:, :] += txm
    diag[:, :-1] += tzm
    diag[:, 1:] += tzm
    diag[-1, :] = 1.0
    off_x, off_z = -txm, -tzm
    off_x[-1, :] = 0.0
    off_z[-1, :] = 0.0
    idx = np.arange(nx * nz).reshape(nx, nz)
    triplets = [(idx, idx, diag), (idx[:-1, :], idx[1:, :], off_x), (idx[1:, :], idx[:-1, :], off_x),
                (idx[:, :-1], idx[:, 1:], off_z), (idx[:, 1:], idx[:, :-1], off_z)]
    rows, cols, vals = (np.concatenate([t[i].ravel() for t in triplets]) for i in range(3))
    return sp.csr_array((vals, (rows, cols)), shape=(nx * nz, nx * nz))


class TestConfig:
    @pytest.mark.parametrize("name,value,match", [
        ("q_inj", -0.1, "q_inj must be non-negative, got -0.1"),
        ("corey_nw", 0.0, "corey_nw must be positive, got 0.0"),
        ("corey_no", -1.0, "corey_no must be positive, got -1.0"),
        ("total_days", -1, "total_days must be non-negative, got -1"),
    ])
    def test_unphysical_values_rejected(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            ReservoirConfig(**{name: value})

    def test_zero_rate_and_horizon_allowed(self):
        cfg = ReservoirConfig(nx=4, nz=4, q_inj=0.0, total_days=0)
        assert run_simulation(np.ones((4, 4)), cfg).p_series.shape == (1, 4, 4)


class TestRelperm:
    def test_connate_endpoint(self):
        cfg = ReservoirConfig()
        krw, kro = relperm(cfg.swc, cfg)
        assert krw == 0.0 and kro == 1.0

    def test_residual_oil_endpoint(self):
        cfg = ReservoirConfig()
        krw, kro = relperm(1.0 - cfg.sor, cfg)
        assert krw == 1.0 and kro == 0.0

    def test_mid_saturation_formula(self):
        # S_e = (0.6 - 0.2)/0.6 = 2/3 -> (4/9, 1/9)
        cfg = ReservoirConfig(swc=0.2, sor=0.2, corey_nw=2.0, corey_no=2.0)
        krw, kro = relperm(0.6, cfg)
        assert abs(krw - 4.0 / 9.0) < 1e-14
        assert abs(kro - 1.0 / 9.0) < 1e-14

    def test_out_of_range_raises(self):
        cfg = ReservoirConfig()
        with pytest.raises(ValueError):
            relperm(0.05, cfg)


class TestTransmissibility:
    def test_uniform_k(self):
        cfg = ReservoirConfig(nx=4, nz=3, dx=10.0, dz=5.0)
        tx, tz = face_transmissibility(np.full((4, 3), 2.5), cfg)
        assert np.allclose(tx, 2.5 * cfg.dz / cfg.dx)
        assert np.allclose(tz, 2.5 * cfg.dx / cfg.dz)

    def test_zero_block(self):
        cfg = ReservoirConfig(nx=2, nz=2)
        k = np.array([[0.0, 1.0], [1.0, 1.0]])
        tx, tz = face_transmissibility(k, cfg)
        assert tx[0, 0] == 0.0

    def test_harmonic_mean(self):
        # harmonic mean of (1, 3) = 1.5
        cfg = ReservoirConfig(nx=2, nz=2, dx=10.0, dz=10.0)
        k = np.array([[1.0, 1.0], [3.0, 3.0]])
        tx, _ = face_transmissibility(k, cfg)
        assert np.allclose(tx, 1.5 * cfg.dz / cfg.dx)


class TestPressureSystem:
    def test_no_injection_constant_pressure(self):
        cfg = ReservoirConfig(nx=8, nz=8, q_inj=0.0, p_prod=3.0)
        a, b = assemble_pressure(np.ones((8, 8)), np.full((8, 8), cfg.sw_init), cfg)
        p = solve_pressure(a, b)
        assert np.max(np.abs(p - 3.0)) < 1e-9

    def test_two_cell_hand_solution(self):
        # 2x1 grid: one unknown. T (p0 - p_prod) = q  =>  p0 = q / T
        cfg = ReservoirConfig(nx=2, nz=1, q_inj=0.05, p_prod=0.0)
        k = np.full((2, 1), 2.0)
        sw = np.full((2, 1), cfg.sw_init)
        a, b = assemble_pressure(k, sw, cfg)
        p = solve_pressure(a, b).reshape(2, 1)
        tx, tz = face_transmissibility(k, cfg)
        txm, _ = _mobility_faces(tx, tz, total_mobility(sw, cfg)[1])
        q = cfg.q_inj * cfg.pore_volume
        assert abs(p[0, 0] - q / txm[0, 0]) < 1e-9
        assert abs(p[1, 0]) < 1e-12

    def test_mirror_symmetry(self):
        cfg = ReservoirConfig(nx=8, nz=8)
        k = heterogeneous_k(8)
        sw = np.full((8, 8), cfg.sw_init)
        a, b = assemble_pressure(k, sw, cfg)
        p = solve_pressure(a, b).reshape(8, 8)
        a2, b2 = assemble_pressure(k[:, ::-1], sw, cfg)
        p2 = solve_pressure(a2, b2).reshape(8, 8)
        assert np.max(np.abs(p2 - p[:, ::-1])) < 1e-7 * max(1.0, np.max(np.abs(p)))

    @pytest.mark.parametrize("nx,nz", [(2, 1), (8, 8), (33, 17), (100, 1)])
    def test_pattern_matches_coo_assembly(self, nx, nz):
        # the cached CSR pattern gives the matrix COO triplets give, bit for bit,
        # explicit zeros of the producer couplings included
        cfg = ReservoirConfig(nx=nx, nz=nz)
        txm = rng.uniform(0.1, 2.0, (nx - 1, nz))
        tzm = rng.uniform(0.1, 2.0, (nx, nz - 1))
        a, _ = _assemble_from_faces(txm, tzm, cfg)
        ref = coo_assembly(txm, tzm)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(a, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_degenerate_isolated_cell_raises(self):
        cfg = ReservoirConfig(nx=4, nz=4)
        k = np.ones((4, 4))
        k[1, 1] = 0.0   # zero-permeability cell: all its faces vanish
        with pytest.raises(ValueError):
            assemble_pressure(k, np.full((4, 4), cfg.sw_init), cfg)


class TestSolvePressure:
    def test_diagonal_system(self):
        d = np.array([2.0, 4.0, 5.0])
        a = sp.csr_array(sp.diags(d))
        b = np.array([2.0, 8.0, 20.0])
        assert np.allclose(solve_pressure(a, b), b / d)

    @pytest.mark.parametrize("nx,nz", GRIDS)
    def test_matches_dense_direct_solve(self, nx, nz):
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, b = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.3), cfg)
        p = solve_pressure(a, b)
        dense = np.linalg.solve(a.toarray(), b.ravel()).reshape(nx, nz)
        assert np.max(np.abs(p - dense)) < 1e-9 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("nx,nz", GRIDS)
    def test_residual_contract(self, nx, nz):
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, b = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.25), cfg)
        p = solve_pressure(a, b)
        assert p.shape == b.shape
        assert np.linalg.norm(a @ p.ravel() - b.ravel()) <= 1e-10 * np.linalg.norm(b)

    def test_few_iterations(self, monkeypatch):
        # a cold 64x64 solve takes 11 V-cycle-preconditioned CG iterations;
        # Jacobi preconditioning took ~340, 2x2 aggregation ~30
        cfg = ReservoirConfig(nx=64, nz=64)
        a, b = assemble_pressure(grid_k(64, 64), np.full((64, 64), 0.25), cfg)
        applied = []

        def counted(levels, coarse_inv, r, level=0):
            applied.append(level)
            return _vcycle(levels, coarse_inv, r, level)

        monkeypatch.setattr(simulator, "_vcycle", counted)
        solve_pressure(a, b)
        assert 0 < applied.count(0) <= 15

    @pytest.mark.parametrize("nx,nz", [(16, 16), (64, 64), (33, 17), (100, 1)])
    def test_vcycle_symmetric_positive(self, nx, nz):
        # CG needs an SPD preconditioner: r2.M(r1) == r1.M(r2) and r.M(r) > 0
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, _ = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.25), cfg)
        levels, coarse_inv = _hierarchy(a, nx, nz)
        assert levels, "grid too small to coarsen"

        def m(r):
            return _vcycle(levels, coarse_inv, r)

        r1, r2 = rng.standard_normal((2, nx * nz))
        lhs, rhs = r2 @ m(r1), r1 @ m(r2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        for r in (r1, r2, np.ones(nx * nz), np.arange(nx * nz, dtype=float)):
            assert r @ m(r) > 0.0


class TestSaturationUpdate:
    def test_no_flux_no_wells_unchanged(self):
        cfg = ReservoirConfig(nx=4, nz=4, q_inj=0.0)
        sw = np.full((4, 4), 0.4)
        fx = np.zeros((3, 4))
        fz = np.zeros((4, 3))
        new, produced = update_saturation(sw, fractional_flow(sw, cfg), fx, fz, 0.5, cfg)
        assert np.array_equal(new, sw)
        assert produced == 0.0

    def test_two_cell_hand_update(self):
        # known flux F from cell 0 to 1; water advected at upwind fw
        cfg = ReservoirConfig(nx=2, nz=1, q_inj=0.0, substep_cfl=1.0)
        sw = np.array([[0.6], [0.3]])
        fx = np.array([[2.0]])
        fz = np.zeros((2, 0))
        dt = 0.1
        fw = fractional_flow(sw, cfg)
        pv = cfg.porosity * cfg.cell_volume
        # producer cell (index 1) discharges its net inflow F at its own fw
        expected0 = sw[0, 0] - dt * fw[0, 0] * 2.0 / pv
        expected1 = sw[1, 0] + dt * (fw[0, 0] * 2.0 - fw[1, 0] * 2.0) / pv
        new, produced = update_saturation(sw, fw, fx, fz, dt, cfg)
        assert abs(new[0, 0] - expected0) < 1e-14
        assert abs(new[1, 0] - expected1) < 1e-14
        assert abs(produced - dt * fw[1, 0] * 2.0) < 1e-14

    def test_cfl_violation_asserts(self):
        cfg = ReservoirConfig(nx=2, nz=1, q_inj=0.0)
        sw = np.array([[0.6], [0.3]])
        fx = np.array([[2.0]])
        with pytest.raises(AssertionError):
            update_saturation(sw, fractional_flow(sw, cfg), fx, np.zeros((2, 0)), 100.0, cfg)


class TestStableDt:
    def test_zero_flux_returns_remaining(self):
        cfg = ReservoirConfig(nx=4, nz=4, q_inj=0.0)
        dt = stable_dt(np.zeros((3, 4)), np.zeros((4, 3)), cfg, remaining=0.75)
        assert dt == 0.75

    def test_single_cell_outflow_formula(self):
        # dt = cfl * phi V / q for one cell with outflow q
        cfg = ReservoirConfig(nx=2, nz=1, q_inj=0.0, substep_cfl=0.5)
        fx = np.array([[3.0]])
        dt = stable_dt(fx, np.zeros((2, 0)), cfg, remaining=np.inf)
        pv = cfg.porosity * cfg.cell_volume
        assert abs(dt - 0.5 * pv / 3.0) < 1e-14

    def test_cfl_proportionality(self):
        cfg1 = ReservoirConfig(nx=2, nz=1, q_inj=0.0, substep_cfl=0.5)
        cfg2 = ReservoirConfig(nx=2, nz=1, q_inj=0.0, substep_cfl=0.25)
        fx = np.array([[3.0]])
        d1 = stable_dt(fx, np.zeros((2, 0)), cfg1, remaining=np.inf)
        d2 = stable_dt(fx, np.zeros((2, 0)), cfg2, remaining=np.inf)
        assert abs(d1 - 2.0 * d2) < 1e-14


class TestRunSimulation:
    def test_no_injection_stationary(self):
        cfg = ReservoirConfig(nx=8, nz=8, q_inj=0.0, total_days=5)
        sample = run_simulation(np.ones((8, 8)), cfg)
        for day in range(6):
            assert np.array_equal(sample.p_series[day], sample.p_series[0])
            assert np.array_equal(sample.sw_series[day], sample.sw_series[0])

    def test_water_budget_closes(self):
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8)
        sample = run_simulation(heterogeneous_k(16), cfg)
        assert water_budget_error(sample, cfg) <= 1e-8

    def test_saturation_bounds(self):
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8)
        sample = run_simulation(heterogeneous_k(16), cfg)
        assert sample.sw_series.min() >= cfg.swc - 1e-12
        assert sample.sw_series.max() <= 1.0 - cfg.sor + 1e-12

    def test_injector_column_monotone(self):
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8)
        sample = run_simulation(heterogeneous_k(16), cfg)
        col = sample.sw_series[:, 0, :]
        assert np.all(np.diff(col, axis=0) >= -1e-12)

    def test_deterministic(self):
        cfg = ReservoirConfig(nx=12, nz=12, total_days=4)
        k = heterogeneous_k(12)
        a = run_simulation(k, cfg)
        b = run_simulation(k, cfg)
        assert np.array_equal(a.p_series, b.p_series)
        assert np.array_equal(a.sw_series, b.sw_series)

    def test_matches_dense_reference_solver(self, monkeypatch):
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8)
        k = heterogeneous_k(16)
        sample = run_simulation(k, cfg)

        def dense(a, b, x0=None, mg=None):
            return np.linalg.solve(a.toarray(), b.ravel()).reshape(b.shape)

        monkeypatch.setattr(simulator, "solve_pressure", dense)
        ref = run_simulation(k, cfg)
        assert np.max(np.abs(sample.p_series - ref.p_series)) <= 1e-8 * np.max(np.abs(ref.p_series))
        assert np.max(np.abs(sample.sw_series - ref.sw_series)) <= 1e-8

    def test_solver_counts(self):
        cfg = ReservoirConfig(nx=32, nz=32, total_days=6)
        k = heterogeneous_k(32)
        extra = run_simulation(k, cfg).extra
        assert set(extra) == {"substeps", "pressure_solves", "cg_iterations", "hierarchy_rebuilds"}
        assert all(type(v) is int for v in extra.values())
        assert extra["pressure_solves"] == extra["substeps"] + 1
        assert 0 < extra["hierarchy_rebuilds"] < extra["pressure_solves"]
        assert extra["cg_iterations"] >= extra["pressure_solves"]
        assert run_simulation(k, cfg).extra == extra

    def test_reused_hierarchy_matches_rebuilding_every_solve(self, monkeypatch):
        # a lagged hierarchy changes only the preconditioner, not the solve contract
        cfg = ReservoirConfig(nx=32, nz=32, total_days=6)
        k = heterogeneous_k(32)
        sample = run_simulation(k, cfg)
        monkeypatch.setattr(simulator, "_REBUILD_AFTER", 0)
        ref = run_simulation(k, cfg)
        assert ref.extra["hierarchy_rebuilds"] == ref.extra["pressure_solves"]
        assert sample.extra["hierarchy_rebuilds"] < ref.extra["hierarchy_rebuilds"]
        assert np.max(np.abs(sample.p_series - ref.p_series)) <= 1e-10 * np.max(np.abs(ref.p_series))
        assert np.max(np.abs(sample.sw_series - ref.sw_series)) <= 1e-8
        assert water_budget_error(sample, cfg) <= 1e-8

    def test_loads_no_scipy_linalg(self):
        # scipy.linalg and scipy.sparse.linalg cost import time and resident memory
        code = ("import sys, numpy as np, porolab\n"
                "porolab.run_simulation(np.ones((16, 16)), porolab.ReservoirConfig(nx=16, nz=16, total_days=1))\n"
                "print(sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.linalg'))))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simulator.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_snapshot_count(self):
        cfg = ReservoirConfig(nx=8, nz=8, total_days=6)
        sample = run_simulation(np.ones((8, 8)), cfg)
        assert sample.p_series.shape == (7, 8, 8)
        assert sample.sw_series.shape == (7, 8, 8)


def front_position(sw_profile, x_centers, level):
    """Interpolated x where the water front crosses a marker saturation."""
    above = sw_profile >= level
    if not above.any() or above.all():
        return None
    idx = int(np.argmin(above))   # first cell below the level
    x0, x1 = x_centers[idx - 1], x_centers[idx]
    s0, s1 = sw_profile[idx - 1], sw_profile[idx]
    return x0 + (level - s0) * (x1 - x0) / (s1 - s0)


class TestBuckleyLeverett:
    def test_front_against_refined_reference(self):
        # 1-D displacement: coarse front within 2 coarse cells of a 4x-refined
        # run, compared at day 2 (pre-breakthrough)
        days = 2
        coarse = ReservoirConfig(nx=64, nz=1, dx=10.0, total_days=days)
        fine = ReservoirConfig(nx=256, nz=1, dx=2.5, total_days=days)
        sc = run_simulation(np.ones((64, 1)), coarse)
        sf = run_simulation(np.ones((256, 1)), fine)
        xc = (np.arange(64) + 0.5) * 10.0
        xf = (np.arange(256) + 0.5) * 2.5
        level = coarse.swc + 0.1
        pc = front_position(sc.sw_series[days, :, 0], xc, level)
        pf = front_position(sf.sw_series[days, :, 0], xf, level)
        assert pc is not None and pf is not None
        assert abs(pc - pf) <= 2.0 * coarse.dx
