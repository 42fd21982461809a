"""Two-phase IMPES simulator: physics oracles, budgets, bounds, refinement."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from porolab import simulator
from porolab.dataio import NormStats
from porolab.grf import GrfSpec, sample_grf, to_permeability
from porolab.operators import Fno, FnoConfig, Mgno, MgnoConfig
from porolab.simulator import (ReservoirConfig, assemble_pressure, darcy_fluxes,
                               face_transmissibility, relperm, run_simulation,
                               solve_pressure, stable_dt, total_mobility,
                               update_saturation, water_budget_error,
                               _assemble_from_faces, _hierarchy, _matvec, _mobility_faces,
                               _prolongations, _vcycle)

rng = np.random.default_rng(3)


def heterogeneous_k(n, seed=21):
    return to_permeability(sample_grf(GrfSpec(n=n, seed=seed), 0), 10.0) + 0.05


def fractional_flow(sw, cfg):
    lam_w, lam_t = total_mobility(sw, cfg)
    return lam_w / lam_t


def count_hierarchies(monkeypatch):
    """A list that gains one entry per call of ``simulator._hierarchy`` from now on."""
    built = []
    build = simulator._hierarchy

    def counted(*args):
        built.append(args[1:])
        return build(*args)

    monkeypatch.setattr(simulator, "_hierarchy", counted)
    return built


def grid_k(nx, nz):
    """Heterogeneous permeability on an nx x nz grid (a corner of a square draw)."""
    return heterogeneous_k(max(nx, nz))[:nx, :nz]


# The pressure unknowns are the free cells, all but the producer column: at
# most 64 of them (4x4, 8x8, 9x5, 20x1) are inverted directly; 16x16 has one
# coarse level, 33x17 two with odd extents, 64x64 three.
GRIDS = [(4, 4), (8, 8), (16, 16), (64, 64), (9, 5), (33, 17), (20, 1)]
COARSENED = [(nx, nz) for nx, nz in GRIDS if (nx - 1) * nz > simulator._COARSEST]


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

    def test_fields_cannot_be_reassigned(self):
        # the checks above run only at construction, so a later assignment
        # would bypass them
        cfg = ReservoirConfig(nx=8, nz=8, total_days=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.q_inj = -0.1

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
        for bad in (0.05, np.array([0.3, np.nan])):
            with pytest.raises(ValueError, match="saturation outside"):
                relperm(bad, cfg)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("entry", ["run_simulation", "assemble_pressure", "fno.predict_fields",
                                       "mgno.predict_fields", "NormStats.fit"])
    def test_bad_permeability_raises(self, bad, entry):
        # checked before any arithmetic: an inf used to warn in the harmonic mean
        # and then run CG to its iteration cap, and a model's normalization
        # turned NaN or inf into a field and -1 into a warning
        cfg = ReservoirConfig(nx=4, nz=4, total_days=1)
        k = np.ones((4, 4))
        k[2, 1] = bad
        stats = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
        calls = {
            "run_simulation": lambda: simulator.run_simulation(k, cfg),
            "assemble_pressure":
                lambda: simulator.assemble_pressure(k, np.full((4, 4), cfg.sw_init), cfg),
            "fno.predict_fields": lambda: Fno(FnoConfig(width=2, modes1=2, modes2=2, depth=1),
                                              stats).predict_fields(k, [0, 1]),
            "mgno.predict_fields": lambda: Mgno(MgnoConfig(depth=1, channels=2, levels=2),
                                                stats).predict_fields(k, [0, 1]),
            "NormStats.fit": lambda: NormStats.fit(k[None], np.ones((1, 2, 4, 4)), "p"),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="permeability must be finite and non-negative"):
                calls[entry]()


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
        assert a.shape == (1, 1) and b.shape == (1, 1)
        p = solve_pressure(a, b)
        tx, tz = face_transmissibility(k, cfg)
        txm, _ = _mobility_faces(tx, tz, total_mobility(sw, cfg)[1])
        q = cfg.q_inj * cfg.pore_volume
        assert abs(p[0, 0] - q / txm[0, 0]) < 1e-9

    def test_mirror_symmetry(self):
        cfg = ReservoirConfig(nx=8, nz=8)
        k = heterogeneous_k(8)
        sw = np.full((8, 8), cfg.sw_init)
        a, b = assemble_pressure(k, sw, cfg)
        p = solve_pressure(a, b)
        a2, b2 = assemble_pressure(k[:, ::-1], sw, cfg)
        p2 = solve_pressure(a2, b2)
        assert np.max(np.abs(p2 - p[:, ::-1])) < 1e-7 * max(1.0, np.max(np.abs(p)))

    @pytest.mark.parametrize("nx,nz", [(2, 1), (8, 8), (33, 17), (100, 1)])
    def test_pattern_matches_coo_assembly(self, nx, nz):
        # the five bands give the free-cell block of the matrix COO triplets
        # give, bit for bit, and that block has no coupling to the producer
        # column; on the one-row grids the z-bands share their offsets with
        # the x-bands
        cfg = ReservoirConfig(nx=nx, nz=nz)
        txm = rng.uniform(0.1, 2.0, (nx - 1, nz))
        tzm = rng.uniform(0.1, 2.0, (nx, nz - 1))
        a, b = _assemble_from_faces(txm, tzm, cfg)
        assert isinstance(a, sp.dia_array)
        assert sorted(a.offsets) == sorted({-nz, -1, 0, 1, nz})
        free = (nx - 1) * nz
        got, full = a.toarray(), coo_assembly(txm, tzm).toarray()
        assert b.shape == (nx - 1, nz) and got.shape == (free, free)
        assert got.dtype == full.dtype and np.array_equal(got, full[:free, :free])
        assert not np.any(full[:free, free:]) and not np.any(full[free:, :free])

    def test_degenerate_isolated_cell_raises(self):
        cfg = ReservoirConfig(nx=4, nz=4)
        k = np.ones((4, 4))
        k[1, 1] = 0.0   # zero-permeability cell: all its faces vanish
        with pytest.raises(ValueError):
            assemble_pressure(k, np.full((4, 4), cfg.sw_init), cfg)


class TestSolvePressure:
    def test_diagonal_system(self):
        # a 3x1 grid; b must be [nx, nz], so the same values as a vector are refused
        d = np.array([[2.0], [4.0], [5.0]])
        a = sp.csr_array(sp.diags(d.ravel()))
        b = np.array([[2.0], [8.0], [20.0]])
        assert np.allclose(solve_pressure(a, b), b / d)
        with pytest.raises(ValueError, match=r"b must be \[nx, nz\]"):
            solve_pressure(a, b.ravel())

    @pytest.mark.parametrize("nx,nz", GRIDS)
    def test_matches_dense_direct_solve(self, nx, nz):
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, b = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.3), cfg)
        p = solve_pressure(a, b)
        dense = np.linalg.solve(a.toarray(), b.ravel()).reshape(b.shape)
        assert np.max(np.abs(p - dense)) < 1e-9 * max(1.0, np.max(np.abs(dense)))

    @pytest.mark.parametrize("nx,nz", GRIDS)
    def test_residual_contract(self, nx, nz):
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, b = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.25), cfg)
        p = solve_pressure(a, b)
        assert p.shape == b.shape
        assert np.linalg.norm(a @ p.ravel() - b.ravel()) <= 1e-10 * np.linalg.norm(b)

    def test_few_iterations(self, monkeypatch):
        # a cold 64x64 solve takes 12 V(1,1)-preconditioned CG iterations (13
        # at _RTOL 5e-11, 12 at 1e-10 and 2e-10; 14 with the Jacobi weight
        # 2/3, 15 with the producer column among the unknowns, and V(2,2) took
        # 11 there); Jacobi preconditioning took ~340, 2x2 aggregation ~30
        cfg = ReservoirConfig(nx=64, nz=64)
        a, b = assemble_pressure(grid_k(64, 64), np.full((64, 64), 0.25), cfg)
        applied = []

        def counted(smoothers, transfers, coarse_inv, r, level=0):
            applied.append(level)
            return _vcycle(smoothers, transfers, coarse_inv, r, level)

        monkeypatch.setattr(simulator, "_vcycle", counted)
        solve_pressure(a, b)
        assert 0 < applied.count(0) <= 15

    def test_warm_start_at_the_solution_and_the_iteration_cap(self, monkeypatch):
        # started at its own solution, a solve builds no hierarchy and runs no CG
        # iteration; allowed one iteration, a cold solve raises
        cfg = ReservoirConfig(nx=16, nz=16)
        a, b = assemble_pressure(grid_k(16, 16), np.full((16, 16), 0.25), cfg)
        p = solve_pressure(a, b)
        mg = simulator.Multigrid()
        assert np.array_equal(solve_pressure(a, b, x0=p, mg=mg), p)
        assert (mg.hierarchy, mg.cg_iterations) == (None, 0)
        monkeypatch.setattr(simulator, "_MAXITER", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            solve_pressure(a, b)

    @pytest.mark.parametrize("shape,x0,match", [
        ((5, 6), None, r"matrix shape \(5, 6\) does not fit b of 6 entries"),
        ((6, 6), np.ones(3), "x0 has 3 entries, b has 6"),
    ], ids=["matrix", "x0"])
    def test_sizes_checked_before_any_kernel(self, shape, x0, match):
        # the compiled kernels read and write past a vector of the wrong size
        # without a word, so the sizes are checked first
        a = sp.csr_array(sp.eye(*shape))
        with pytest.raises(ValueError, match=match):
            solve_pressure(a, np.ones((3, 2)), x0=x0)

    @pytest.mark.parametrize("nx,nz", COARSENED)
    def test_matvec_matches_matmul(self, nx, nz):
        # the kernel calls give scipy's own products bit for bit: the assembled
        # DIA matrix and every level's P and P^T and coarse A of the hierarchy,
        # whose coarse A is the Galerkin product P^T A P that @ forms and whose
        # smoothing weights are omega over its diagonal
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, _ = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.25), cfg)
        smoothers, transfers, _ = _hierarchy(a, nx - 1, nz)
        prolongations = _prolongations(nx - 1, nz)
        assert len(transfers) == len(smoothers) + 1 == len(prolongations) > 0
        pairs = [(a, _matvec(a))]
        fine = a
        for (a_mv, wdiag), (p, pt) in zip(smoothers, prolongations):
            fine = pt @ fine @ p
            assert np.array_equal(wdiag, simulator._OMEGA / fine.diagonal())
            pairs.append((fine, a_mv))
        for (p_mv, pt_mv), (p, pt) in zip(transfers, prolongations):
            pairs += [(p, p_mv), (pt, pt_mv)]
        for m, mv in pairs:
            x = rng.standard_normal(m.shape[1])
            want = m @ x
            assert np.array_equal(mv(x), want)
            assert np.array_equal(_matvec(m)(x), want)
            assert np.array_equal(mv(x), want)    # the work array is overwritten, not added to

    @pytest.mark.parametrize("nx,nz", [(16, 16), (64, 64), (33, 17), (100, 1)])
    def test_vcycle_symmetric_positive(self, nx, nz):
        # CG needs an SPD preconditioner: r2.M(r1) == r1.M(r2) and r.M(r) > 0
        cfg = ReservoirConfig(nx=nx, nz=nz)
        a, _ = assemble_pressure(grid_k(nx, nz), np.full((nx, nz), 0.25), cfg)
        smoothers, transfers, coarse_inv = _hierarchy(a, nx - 1, nz)   # the free cells
        assert transfers, "grid too small to coarsen"
        smoothers = [(_matvec(a), simulator._OMEGA / a.diagonal()), *smoothers]

        def m(r):
            return _vcycle(smoothers, transfers, coarse_inv, r)

        n = (nx - 1) * nz
        r1, r2 = rng.standard_normal((2, n))
        lhs, rhs = r2 @ m(r1), r1 @ m(r2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        for r in (r1, r2, np.ones(n), np.arange(n, dtype=float)):
            assert r @ m(r) > 0.0


class TestSaturationUpdate:
    def test_no_flux_no_wells_unchanged(self):
        cfg = ReservoirConfig(nx=4, nz=4, q_inj=0.0)
        sw = np.full((4, 4), 0.4)
        fx = np.zeros((3, 4))
        fz = np.zeros((4, 3))
        new, produced, dt = update_saturation(sw, fractional_flow(sw, cfg), fx, fz, cfg, 0.5)
        assert np.array_equal(new, sw)
        assert produced == 0.0
        assert dt == 0.5

    def test_two_cell_hand_update(self):
        # known flux F from cell 0 to 1; water advected at upwind fw over a
        # step capped by remaining = 0.1, far below the CFL bound
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
        new, produced, got_dt = update_saturation(sw, fw, fx, fz, cfg, dt)
        assert got_dt == dt
        assert abs(new[0, 0] - expected0) < 1e-14
        assert abs(new[1, 0] - expected1) < 1e-14
        assert abs(produced - dt * fw[1, 0] * 2.0) < 1e-14

    def test_step_is_stable_dt(self):
        # the update takes stable_dt's step: the CFL bound when remaining is
        # larger, and exactly remaining when that is smaller
        cfg = ReservoirConfig(nx=16, nz=16)
        k = heterogeneous_k(16)
        sw = np.full((16, 16), cfg.sw_init)
        a, b = assemble_pressure(k, sw, cfg)
        p = np.full((16, 16), cfg.p_prod)
        p[:-1] = solve_pressure(a, b)
        tx, tz = face_transmissibility(k, cfg)
        fx, fz = darcy_fluxes(p, *_mobility_faces(tx, tz, total_mobility(sw, cfg)[1]))
        fw = fractional_flow(sw, cfg)
        bound = stable_dt(fx, fz, cfg, np.inf)
        assert 0.0 < bound < 1.0
        for remaining, want in ((1.0, bound), (0.5 * bound, 0.5 * bound)):
            *_, dt = update_saturation(sw, fw, fx, fz, cfg, remaining)
            assert dt == want == stable_dt(fx, fz, cfg, remaining)


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
        assert set(extra) == {"substeps", "cg_iterations"}
        assert all(type(v) is int for v in extra.values())
        assert extra["cg_iterations"] >= extra["substeps"] + 1
        assert run_simulation(k, cfg).extra == extra

    def test_one_outflow_pass_per_substep(self, monkeypatch):
        # the transport step goes through the module's update_saturation and
        # stable_dt, each once per sub-step, and the outflow is summed once
        calls = {"_cell_outflow": 0, "update_saturation": 0, "stable_dt": 0}

        def counted(name):
            fn = getattr(simulator, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(simulator, name, counted(name))
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8)
        substeps = run_simulation(heterogeneous_k(16), cfg).extra["substeps"]
        assert substeps > 0
        assert calls == dict.fromkeys(calls, substeps)

    def test_reused_hierarchy_matches_rebuilding_every_solve(self, monkeypatch):
        # coarse levels lagged over a day change only the preconditioner, not
        # the solve contract
        cfg = ReservoirConfig(nx=32, nz=32, total_days=6)
        k = heterogeneous_k(32)
        sample = run_simulation(k, cfg)
        solve = simulator.solve_pressure

        def fresh(a, b, x0=None, mg=None):
            mg.hierarchy = None
            return solve(a, b, x0=x0, mg=mg)

        monkeypatch.setattr(simulator, "solve_pressure", fresh)
        built = count_hierarchies(monkeypatch)
        ref = run_simulation(k, cfg)
        assert len(built) == ref.extra["substeps"] + 1 > cfg.total_days + 1
        assert np.max(np.abs(sample.p_series - ref.p_series)) <= 1e-10 * np.max(np.abs(ref.p_series))
        assert np.max(np.abs(sample.sw_series - ref.sw_series)) <= 1e-8
        assert water_budget_error(sample, cfg) <= 1e-8

    def test_extrapolated_start_cuts_iterations(self, monkeypatch):
        # the cubic start changes only where CG starts, not the solve contract:
        # 3225 CG iterations here against 5068 from the linear 2 p_n - p_{n-1}
        # (3582 against 5618 with the Jacobi weight 2/3)
        cfg = ReservoirConfig(nx=32, nz=32)
        k = to_permeability(sample_grf(GrfSpec(n=32, seed=0), 0), 10.0)
        sample = run_simulation(k, cfg)
        monkeypatch.setattr(simulator, "_EXTRAPOLATE", simulator._EXTRAPOLATE[:2])
        ref = run_simulation(k, cfg)
        assert sample.extra["cg_iterations"] <= 0.75 * ref.extra["cg_iterations"]
        assert np.max(np.abs(sample.p_series - ref.p_series)) <= 1e-10 * np.max(np.abs(ref.p_series))
        assert np.max(np.abs(sample.sw_series - ref.sw_series)) <= 1e-8
        assert water_budget_error(sample, cfg) <= 1e-8

    def test_smoothing_weight_cuts_iterations(self, monkeypatch):
        # the Jacobi weight 4/5 changes only the preconditioner, not the solve
        # contract: 3225 CG iterations here against 3582 with the 1-D weight 2/3
        cfg = ReservoirConfig(nx=32, nz=32)
        k = to_permeability(sample_grf(GrfSpec(n=32, seed=0), 0), 10.0)
        sample = run_simulation(k, cfg)
        monkeypatch.setattr(simulator, "_OMEGA", 2.0 / 3.0)
        ref = run_simulation(k, cfg)
        assert sample.extra["cg_iterations"] <= 0.95 * ref.extra["cg_iterations"]
        assert np.max(np.abs(sample.p_series - ref.p_series)) <= 1e-10 * np.max(np.abs(ref.p_series))
        assert np.max(np.abs(sample.sw_series - ref.sw_series)) <= 1e-8
        assert water_budget_error(sample, cfg) <= 1e-8

    @pytest.mark.parametrize("n,draw", [(16, d) for d in (0, 1, 2, 4, 5, 6, 7)]
                             + [(32, d) for d in (0, 1, 2, 7)])
    def test_one_hierarchy_per_day(self, monkeypatch, n, draw):
        # the initial solve and each day's first solve build the hierarchy,
        # and no other solve does, whatever its iteration count; each day's
        # first solve starts from the day's starting pressure, not from an
        # extrapolation over the day before (the accepted 16x16 draws of GRF
        # seed 0 and four 32x32 ones)
        cfg = ReservoirConfig(nx=n, nz=n)
        k = to_permeability(sample_grf(GrfSpec(n=n, seed=0), draw), 10.0)
        built = count_hierarchies(monkeypatch)
        starts = []     # the x0 of each solve entered without a hierarchy
        solve = simulator.solve_pressure

        def recorded(a, b, x0=None, mg=None):
            if mg.hierarchy is None:
                starts.append(x0)
            return solve(a, b, x0=x0, mg=mg)

        monkeypatch.setattr(simulator, "solve_pressure", recorded)
        sample = run_simulation(k, cfg)
        assert len(built) == cfg.total_days + 1
        assert starts[0] is None and len(starts) == cfg.total_days + 1
        for day, x0 in enumerate(starts[1:], start=1):
            assert np.array_equal(x0, sample.p_series[day - 1][:-1]), day
        assert water_budget_error(sample, cfg) <= 1e-8
        rerun = run_simulation(k, cfg)
        assert rerun.extra == sample.extra
        assert np.array_equal(rerun.p_series, sample.p_series)
        assert np.array_equal(rerun.sw_series, sample.sw_series)

    @pytest.mark.parametrize("draw", [0, 1, 4, 7])
    def test_time_error_against_quarter_cfl(self, draw):
        # the time-step error yardstick: the relative L2 error of all 25 daily
        # sw snapshots against the same scheme at a quarter of the CFL number;
        # it reads 6.2e-3 to 1.26e-2 on the accepted draws 0-7 (draw 3 is
        # rejected by the bounds check), 7.3e-3 / 7.5e-3 / 1.03e-2 / 6.2e-3 here
        cfg = ReservoirConfig(nx=16, nz=16)
        k = to_permeability(sample_grf(GrfSpec(n=16, seed=0), draw), 10.0)
        sw = run_simulation(k, cfg).sw_series
        ref = run_simulation(k, dataclasses.replace(cfg, substep_cfl=cfg.substep_cfl / 4)).sw_series
        assert sw.shape == (25, 16, 16)
        assert np.linalg.norm(sw - ref) / np.linalg.norm(ref) <= 1.5e-2

    @pytest.mark.parametrize("p_prod", [0.0, 2.5])
    def test_producer_column_is_exactly_p_prod(self, p_prod):
        # the producer column is no unknown of the pressure solve, so CG leaves
        # no round-off on it
        cfg = ReservoirConfig(nx=16, nz=16, total_days=8, p_prod=p_prod)
        sample = run_simulation(heterogeneous_k(16, seed=11), cfg)
        assert np.all(sample.p_series[:, -1, :] == p_prod)

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

    @staticmethod
    def closed_form(cfg, xi, day):
        """Buckley-Leverett sw at the fractions ``xi`` of the length on ``day``:
        the Welge shock from ``sw_init``, then the rarefaction, along which a
        saturation travels ``q_inj fw'(sw)`` lengths a day (Buckley & Leverett
        1942; Welge 1952)."""
        s = np.linspace(cfg.swc, 1.0 - cfg.sor, 200001)
        lam_w, lam_t = total_mobility(s, cfg)
        fw = lam_w / lam_t
        dfw = np.gradient(fw, s)
        chord = fw / np.maximum(s - cfg.sw_init, 1e-12)
        front = int(np.argmax(chord))              # the tangent from (sw_init, 0)
        branch_dfw, branch_s = dfw[front:][::-1], s[front:][::-1]
        assert np.all(np.diff(branch_dfw) > 0)     # fw' falls past the front
        speed = xi / (cfg.q_inj * day)
        sw = np.interp(speed, branch_dfw, branch_s)
        return np.where(speed > chord[front], cfg.sw_init, sw), s[front], dfw[front]

    @pytest.mark.parametrize("day, bound_64, bound_128", [(1, 8e-3, 3.5e-3), (2, 7e-3, 3.8e-3)])
    def test_against_the_closed_form(self, day, bound_64, bound_128):
        # L1 sw error over a 640 m line, measured 6.41e-3 / 2.74e-3 on day 1 and
        # 5.51e-3 / 2.99e-3 on day 2 at nx = 64 / 128 (cell centres)
        errors = []
        for nx in (64, 128):
            cfg = ReservoirConfig(nx=nx, nz=1, dx=640.0 / nx, total_days=day)
            sw = run_simulation(np.ones((nx, 1)), cfg).sw_series[day, :, 0]
            exact, front_sw, front_dfw = self.closed_form(cfg, (np.arange(nx) + 0.5) / nx, day)
            errors.append(np.abs(sw - exact).mean())
        assert front_sw == pytest.approx(0.4450, abs=1e-4)
        assert front_dfw == pytest.approx(2.8746, abs=1e-3)
        assert errors[0] <= bound_64 and errors[1] <= bound_128, errors
        assert errors[1] <= 0.75 * errors[0], errors
