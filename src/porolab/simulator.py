"""Incompressible, immiscible oil-water flow on a 2-D grid (IMPES scheme).

The pressure equation -div(lambda_t(sw) K grad p) = q is solved implicitly
with a two-point flux approximation (harmonic-mean permeability, arithmetic
face mobility), by conjugate gradients preconditioned with one geometric
multigrid V-cycle (cell-centred linear interpolation, Galerkin coarse
operators, damped-Jacobi smoothing); saturation is advanced explicitly with
upwind fractional flow under a CFL-limited sub-step.  What depends only on
the grid is built once per shape (the CSR pattern and the prolongations);
a run keeps one multigrid hierarchy over its sub-steps and rebuilds it only
after a solve that needed many iterations.  Water is injected at a
fixed total rate spread over the leftmost column; the rightmost column is
held at a fixed producer pressure, which anchors the elliptic system.

Units are internally consistent and dimensionless: permeability is a
mobility multiplier, the injection rate is expressed in pore volumes per
day, and the cell thickness in the collapsed direction is one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


@dataclass
class ReservoirConfig:
    nx: int = 64
    nz: int = 64
    dx: float = 10.0
    dz: float = 10.0
    porosity: float = 0.3
    sw_init: float = 0.2
    mu_w: float = 1.0
    mu_o: float = 5.0
    swc: float = 0.2
    sor: float = 0.2
    corey_nw: float = 2.0
    corey_no: float = 2.0
    q_inj: float = 0.1          # pore volumes per day
    p_prod: float = 0.0
    total_days: int = 24
    substep_cfl: float = 0.5

    def __post_init__(self):
        if self.nx < 2 or self.nz < 1:
            raise ValueError(f"grid must be at least 2x1, got {self.nx}x{self.nz}")
        if not (0.0 <= self.swc and 0.0 <= self.sor and self.swc + self.sor < 1.0):
            raise ValueError("residual saturations must satisfy 0 <= swc, sor and swc + sor < 1")
        if not (self.swc <= self.sw_init <= 1.0 - self.sor):
            raise ValueError(f"sw_init {self.sw_init} outside [{self.swc}, {1.0 - self.sor}]")
        for name in ("dx", "dz", "porosity", "mu_w", "mu_o"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0 < self.substep_cfl <= 1.0):
            raise ValueError("substep_cfl must lie in (0, 1]")
        for name in ("corey_nw", "corey_no"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.q_inj < 0:
            raise ValueError(f"q_inj must be non-negative, got {self.q_inj}")
        if self.total_days < 0:
            raise ValueError(f"total_days must be non-negative, got {self.total_days}")

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dz

    @property
    def pore_volume(self) -> float:
        return self.porosity * self.cell_volume * self.nx * self.nz


@dataclass
class TimeSeriesSample:
    """Permeability plus daily pressure/saturation snapshots (day 0..T)."""

    k: np.ndarray
    p_series: np.ndarray
    sw_series: np.ndarray
    water_injected: float = 0.0
    water_produced: float = 0.0
    extra: dict = field(default_factory=dict)


def relperm(sw, cfg: ReservoirConfig):
    """Corey relative permeabilities (k_rw, k_ro) of the water saturation."""
    sw = np.asarray(sw, dtype=np.float64)
    lo, hi = cfg.swc, 1.0 - cfg.sor
    if np.any(sw < lo - 1e-9) or np.any(sw > hi + 1e-9):
        raise ValueError(f"saturation outside [{lo}, {hi}]: range [{sw.min()}, {sw.max()}]")
    se = np.clip((sw - lo) / (hi - lo), 0.0, 1.0)
    return se ** cfg.corey_nw, (1.0 - se) ** cfg.corey_no


def total_mobility(sw, cfg: ReservoirConfig):
    krw, kro = relperm(sw, cfg)
    lam_w = krw / cfg.mu_w
    return lam_w, lam_w + kro / cfg.mu_o


def face_transmissibility(k: np.ndarray, cfg: ReservoirConfig):
    """Geometric two-point face coefficients (interior faces only).

    Returns (tx, tz) with tx[i, :] coupling cells (i, :) and (i+1, :).
    Outer boundary faces carry no flow and are not represented.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (cfg.nx, cfg.nz):
        raise ValueError(f"permeability shape {k.shape} != grid {(cfg.nx, cfg.nz)}")

    def _harmonic(a, b):
        s = a + b
        out = np.zeros_like(s)
        nz = s > 0
        out[nz] = 2.0 * a[nz] * b[nz] / s[nz]
        return out

    tx = _harmonic(k[:-1, :], k[1:, :]) * cfg.dz / cfg.dx
    tz = _harmonic(k[:, :-1], k[:, 1:]) * cfg.dx / cfg.dz
    return tx, tz


def _mobility_faces(tx, tz, lam_t):
    """Total-mobility face coefficients (arithmetic face average of ``lam_t``)."""
    txm = tx * 0.5 * (lam_t[:-1, :] + lam_t[1:, :])
    tzm = tz * 0.5 * (lam_t[:, :-1] + lam_t[:, 1:])
    return txm, tzm


def _injection_rate(cfg: ReservoirConfig) -> float:
    return cfg.q_inj * cfg.pore_volume


def assemble_pressure(k: np.ndarray, sw: np.ndarray, cfg: ReservoirConfig):
    """Sparse SPD system (A, b) for the total-mobility pressure equation.

    ``A`` acts on the cells in C order and ``b`` is ``[nx, nz]``.

    Injector cells (leftmost column) contribute a uniform split of the total
    rate to b; producer cells (rightmost column) are eliminated symmetrically
    as Dirichlet rows p = p_prod.
    """
    tx, tz = face_transmissibility(k, cfg)
    txm, tzm = _mobility_faces(tx, tz, total_mobility(sw, cfg)[1])
    return _assemble_from_faces(txm, tzm, cfg)


def _assemble_from_faces(txm, tzm, cfg: ReservoirConfig):
    nx, nz = cfg.nx, cfg.nz
    n = nx * nz
    diag = np.zeros((nx, nz))
    diag[:-1, :] += txm
    diag[1:, :] += txm
    diag[:, :-1] += tzm
    diag[:, 1:] += tzm

    b = np.zeros((nx, nz))
    b[0, :] += _injection_rate(cfg) / nz

    # Dirichlet producer column: identity rows, symmetric elimination of the
    # coupling faces into the neighbours' right-hand side.
    off_x = -txm
    b[-2, :] += txm[-1, :] * cfg.p_prod
    off_x[-1, :] = 0.0
    diag[-1, :] = 1.0
    b[-1, :] = cfg.p_prod

    if np.any(diag <= 0.0):
        raise ValueError("degenerate permeability: cell with zero total mobility coupling")

    off_z = -tzm
    off_z[-1, :] = 0.0   # producer-producer couplings drop out
    indices, indptr, order = _csr_pattern(nx, nz)
    vals = np.concatenate([diag.ravel(), off_x.ravel(), off_x.ravel(),
                           off_z.ravel(), off_z.ravel()])
    a = sp.csr_array((vals[order], indices, indptr), shape=(n, n))
    return a, b


@functools.lru_cache(maxsize=8)
def _csr_pattern(nx: int, nz: int):
    """CSR ``indices`` and ``indptr`` of the 5-point operator on an nx x nz grid.

    Also returns ``order``, the permutation that takes the concatenated
    values (diagonal, x-faces as (i, i+1) then (i+1, i), z-faces likewise)
    to CSR order, each row's columns ascending.  The arrays are read-only
    because every matrix of this shape shares them.
    """
    idx = np.arange(nx * nz).reshape(nx, nz)
    pairs = [(idx, idx), (idx[:-1, :], idx[1:, :]), (idx[1:, :], idx[:-1, :]),
             (idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])]
    rows = np.concatenate([r.ravel() for r, _ in pairs])
    cols = np.concatenate([c.ravel() for _, c in pairs])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nx * nz))])
    indices = cols[order]
    for arr in (indices, indptr, order):
        arr.setflags(write=False)
    return indices, indptr, order


_RTOL = 1e-10           # pressure solve: ||Ax - b|| <= _RTOL ||b||
_MAXITER = 1000         # CG iterations before the solve is declared failed
_COARSEST = 64          # cells at most on the level inverted densely
_OMEGA = 2.0 / 3.0      # damped-Jacobi smoothing weight
_SWEEPS = 2             # smoothing sweeps before and after each coarse correction
_REBUILD_AFTER = 8      # CG iterations beyond which the next solve rebuilds its hierarchy


def _interpolation_1d(n: int):
    """Cell-centred linear interpolation from ceil(n/2) coarse cells to n fine cells.

    Fine cell 2j (2j+1) takes 3/4 of coarse cell j and 1/4 of its left
    (right) neighbour; an end cell without that neighbour takes all of j.
    """
    m = (n + 1) // 2
    i = np.arange(n)
    j = i // 2
    nb = np.where(i % 2 == 0, j - 1, j + 1)
    inside = (nb >= 0) & (nb < m)
    rows = np.concatenate([i, i[inside]])
    cols = np.concatenate([j, nb[inside]])
    vals = np.concatenate([np.where(inside, 0.75, 1.0), np.full(inside.sum(), 0.25)])
    return sp.csr_array((vals, (rows, cols)), shape=(n, m))


@functools.lru_cache(maxsize=8)
def _prolongations(nx: int, nz: int):
    """(P, P^T) pairs from the finest grid down to one of at most _COARSEST cells."""
    out = []
    while nx * nz > _COARSEST:
        p = sp.kron(_interpolation_1d(nx), _interpolation_1d(nz), format="csr")
        out.append((p, p.T.tocsr()))
        nx, nz = (nx + 1) // 2, (nz + 1) // 2
    return tuple(out)


def _hierarchy(a, nx: int, nz: int):
    """Per-level (A, omega / diag A, P, P^T) plus the dense inverse of the coarsest ``P^T A P``."""
    levels = []
    for p, pt in _prolongations(nx, nz):
        levels.append((a, _OMEGA / a.diagonal(), p, pt))
        a = pt @ a @ p
    return levels, np.linalg.inv(a.toarray())


def _vcycle(levels, coarse_inv, r, level=0):
    """One symmetric V-cycle applied to ``r`` (zero initial guess)."""
    if level == len(levels):
        return coarse_inv @ r
    a, wdiag, p, pt = levels[level]
    x = wdiag * r
    for _ in range(_SWEEPS - 1):
        x += wdiag * (r - a @ x)
    x += p @ _vcycle(levels, coarse_inv, pt @ (r - a @ x), level + 1)
    for _ in range(_SWEEPS):
        x += wdiag * (r - a @ x)
    return x


@dataclass
class Multigrid:
    """A V-cycle hierarchy that successive pressure solves share, and their counts.

    ``hierarchy`` is ``(levels, coarse_inv)`` as :func:`_hierarchy` returns
    it, built from the ``A`` of an earlier solve on the same grid, or
    ``None`` when the next solve must build it.
    """

    hierarchy: tuple | None = None
    solves: int = 0
    cg_iterations: int = 0
    rebuilds: int = 0


def solve_pressure(a, b, x0=None, mg: Multigrid | None = None) -> np.ndarray:
    """Solve the SPD pressure system ``a x = b`` on the grid ``b.shape``.

    ``b`` is ``[nx, nz]`` (a 1-D ``b`` is an ``(n, 1)`` line) and the result
    has ``b``'s shape; ``x0`` is an optional warm start of the same size.
    Conjugate gradients are preconditioned by one symmetric multigrid
    V-cycle: cell-centred linear interpolation between levels, Galerkin
    coarse operators ``P^T A P``, damped-Jacobi smoothing and a dense
    inverse on the coarsest level.  Returns ``x`` with
    ``||a x - b|| <= 1e-10 ||b||``, or raises ``RuntimeError``.

    ``mg`` carries the hierarchy from one solve to the next on the same
    grid; without it the solve builds its own.  A hierarchy built from an
    earlier ``A`` is still SPD, so it only costs iterations: after a solve
    that needed more than ``_REBUILD_AFTER`` of them it is dropped and the
    next solve rebuilds it from its own ``a``.
    """
    mg = Multigrid() if mg is None else mg
    mg.solves += 1
    b = np.asarray(b, dtype=np.float64)
    shape = b.shape
    b = b.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(shape)
    x = np.zeros(b.size) if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    r = b - a @ x
    tol = _RTOL * bnorm
    if np.linalg.norm(r) <= tol:
        return x.reshape(shape)
    if mg.hierarchy is None:
        nx, nz = shape if len(shape) == 2 else (b.size, 1)
        mg.hierarchy = _hierarchy(a, nx, nz)
        mg.rebuilds += 1
    levels, coarse_inv = mg.hierarchy
    d = _vcycle(levels, coarse_inv, r)
    rz = r @ d
    for it in range(1, _MAXITER + 1):
        ad = a @ d
        alpha = rz / (d @ ad)
        x += alpha * d
        r -= alpha * ad
        if np.linalg.norm(r) <= tol:
            mg.cg_iterations += it
            if it > _REBUILD_AFTER:
                mg.hierarchy = None
            return x.reshape(shape)
        z = _vcycle(levels, coarse_inv, r)
        rz_new = r @ z
        d = z + (rz_new / rz) * d
        rz = rz_new
    raise RuntimeError(f"pressure solve did not converge: residual {np.linalg.norm(r) / bnorm:.3e}")


def darcy_fluxes(p: np.ndarray, txm, tzm):
    """Total volumetric face fluxes, positive along increasing index."""
    fx = txm * (p[:-1, :] - p[1:, :])
    fz = tzm * (p[:, :-1] - p[:, 1:])
    return fx, fz


def producer_sink(fx, fz) -> np.ndarray:
    """Signed net face inflow of each producer cell (= its well discharge)."""
    sink = fx[-1, :].copy()
    sink[1:] += fz[-1, :]
    sink[:-1] -= fz[-1, :]
    return sink


def _cell_outflow(fx, fz, cfg: ReservoirConfig):
    """Total outgoing volumetric face flux per cell plus its well source magnitude."""
    out = np.zeros((cfg.nx, cfg.nz))
    out[:-1, :] += np.maximum(fx, 0.0)
    out[1:, :] += np.maximum(-fx, 0.0)
    out[:, :-1] += np.maximum(fz, 0.0)
    out[:, 1:] += np.maximum(-fz, 0.0)
    out[0, :] += _injection_rate(cfg) / cfg.nz
    out[-1, :] += np.abs(producer_sink(fx, fz))
    return out


def stable_dt(fx, fz, cfg: ReservoirConfig, remaining: float) -> float:
    """CFL sub-step: substep_cfl * min phi V / (outflux + |source|), capped at ``remaining``."""
    denom = _cell_outflow(fx, fz, cfg)
    pv_cell = cfg.porosity * cfg.cell_volume
    positive = denom > 0.0
    if not np.any(positive):
        return remaining
    dt = cfg.substep_cfl * pv_cell / denom[positive].max()
    return min(dt, remaining)


def update_saturation(sw: np.ndarray, fw: np.ndarray, fx, fz, dt: float,
                      cfg: ReservoirConfig):
    """Explicit upwind fractional-flow transport over one sub-step.

    ``fw`` is the water fractional flow ``lam_w / lam_t`` at ``sw``.
    Returns (new sw, water volume produced during the step).  The injector
    source is pure water; each producer cell discharges its net volumetric
    inflow at its own fractional flow.
    """
    nx, nz = cfg.nx, cfg.nz
    pv_cell = cfg.porosity * cfg.cell_volume
    denom = _cell_outflow(fx, fz, cfg)
    hard = np.where(denom > 0.0, pv_cell / np.where(denom > 0.0, denom, 1.0), np.inf)
    assert dt <= hard.min() * (1.0 + 1e-9), "CFL violation: dt exceeds the stability bound"

    dv = np.zeros((nx, nz))  # net water volume gained per cell

    # upwind water flux through x-faces
    fw_up = np.where(fx >= 0.0, fw[:-1, :], fw[1:, :])
    wflux = fw_up * fx
    dv[:-1, :] -= wflux * dt
    dv[1:, :] += wflux * dt
    fw_up = np.where(fz >= 0.0, fw[:, :-1], fw[:, 1:])
    wflux = fw_up * fz
    dv[:, :-1] -= wflux * dt
    dv[:, 1:] += wflux * dt

    dv[0, :] += (_injection_rate(cfg) / nz) * dt           # pure-water injector
    sink = producer_sink(fx, fz)                            # signed well discharge
    produced = fw[-1, :] * sink * dt
    dv[-1, :] -= produced

    sw_new = sw + dv / pv_cell
    lo, hi = cfg.swc, 1.0 - cfg.sor
    if sw_new.min() < lo - 1e-8 or sw_new.max() > hi + 1e-8:
        raise AssertionError(
            f"saturation bounds violated: [{sw_new.min():.6g}, {sw_new.max():.6g}]")
    np.clip(sw_new, lo, hi, out=sw_new)
    return sw_new, float(produced.sum())


def run_simulation(k: np.ndarray, cfg: ReservoirConfig) -> TimeSeriesSample:
    """IMPES time series: daily (p, sw) snapshots for days 0..total_days.

    Pressure is re-solved before every saturation sub-step by multigrid-
    preconditioned CG warm-started from the previous pressure.  The solves
    share one hierarchy, rebuilt from the current matrix only after a solve
    that needed more than ``_REBUILD_AFTER`` CG iterations.  Sub-steps are
    CFL-limited and land exactly on day boundaries.  Snapshot 0 is the
    initial saturation with its consistent pressure field.  ``extra`` holds
    the run's integer counts: ``substeps``, ``pressure_solves``,
    ``cg_iterations`` and ``hierarchy_rebuilds``.
    """
    nx, nz = cfg.nx, cfg.nz
    tx, tz = face_transmissibility(k, cfg)
    sw = np.full((nx, nz), cfg.sw_init, dtype=np.float64)

    lam_w, lam_t = total_mobility(sw, cfg)
    txm, tzm = _mobility_faces(tx, tz, lam_t)
    a, b = _assemble_from_faces(txm, tzm, cfg)
    mg = Multigrid()
    p = solve_pressure(a, b, mg=mg)

    days = cfg.total_days
    p_series = np.empty((days + 1, nx, nz))
    sw_series = np.empty((days + 1, nx, nz))
    p_series[0], sw_series[0] = p, sw

    injected = 0.0
    produced = 0.0
    rate = _injection_rate(cfg)
    substeps = 0
    for day in range(1, days + 1):
        t = 0.0
        while t < 1.0 - 1e-12:
            fx, fz = darcy_fluxes(p, txm, tzm)
            dt = stable_dt(fx, fz, cfg, remaining=1.0 - t)
            sw, prod = update_saturation(sw, lam_w / lam_t, fx, fz, dt, cfg)
            injected += rate * dt
            produced += prod
            t += dt
            substeps += 1
            lam_w, lam_t = total_mobility(sw, cfg)
            txm, tzm = _mobility_faces(tx, tz, lam_t)
            a, b = _assemble_from_faces(txm, tzm, cfg)
            p = solve_pressure(a, b, x0=p, mg=mg)
        p_series[day], sw_series[day] = p, sw

    return TimeSeriesSample(
        k=np.asarray(k, dtype=np.float64).copy(),
        p_series=p_series,
        sw_series=sw_series,
        water_injected=injected,
        water_produced=produced,
        extra={"substeps": substeps, "pressure_solves": mg.solves,
               "cg_iterations": mg.cg_iterations, "hierarchy_rebuilds": mg.rebuilds},
    )


def water_budget_error(sample: TimeSeriesSample, cfg: ReservoirConfig) -> float:
    """Relative closure error of the water mass budget over the whole run."""
    pv_cell = cfg.porosity * cfg.cell_volume
    stored = pv_cell * float(np.sum(sample.sw_series[-1] - sample.sw_series[0]))
    net = sample.water_injected - sample.water_produced
    scale = max(abs(sample.water_injected), abs(sample.water_produced), pv_cell)
    return abs(stored - net) / scale
