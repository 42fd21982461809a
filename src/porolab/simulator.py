"""Incompressible, immiscible oil-water flow on a 2-D grid (IMPES scheme).

The pressure equation -div(lambda_t(sw) K grad p) = q is solved implicitly
with a two-point flux approximation (harmonic-mean permeability, arithmetic
face mobility), by conjugate gradients preconditioned with one geometric
multigrid V-cycle (cell-centred linear interpolation, Galerkin coarse
operators, damped-Jacobi smoothing); saturation is advanced explicitly with
upwind fractional flow, and each update picks its own CFL-limited sub-step.
The pressure matrix is stored as its five diagonals; the prolongations
depend only on the grid and are built once per shape, and a run keeps one
multigrid hierarchy over its sub-steps, rebuilding it only after a solve
that needed more than one iteration beyond the first solve on that
hierarchy.  Each sub-step's solve starts from the pressure extrapolated
linearly from the two previous ones.  Water is injected at a fixed total
rate spread over the leftmost column; the rightmost column is held at a
fixed producer pressure, which anchors the elliptic system.

Units are internally consistent and dimensionless: permeability is a
mobility multiplier, the injection rate is expressed in pore volumes per
day, and the cell thickness in the collapsed direction is one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
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
    water_injected: float
    water_produced: float
    extra: dict


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
    """``A`` as a DIA matrix with bands at offsets -nz, -1, 0, +1, +nz, and ``b``.

    Band ``d`` holds ``A[c - d, c]`` at column ``c``: a face's coefficient
    sits at its lower-index cell in the lower band and at its higher-index
    cell in the upper one.  On a one-row grid (``nz = 1``) the empty z-bands
    share their offsets with the x-bands, so bands add up per distinct offset.
    """
    nx, nz = cfg.nx, cfg.nz
    n = nx * nz
    offsets = np.unique([-nz, -1, 0, 1, nz])
    data = np.zeros((offsets.size, nx, nz))
    band = dict(zip(offsets.tolist(), data))
    diag = band[0]
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
    band[-nz][:-1, :] += off_x
    band[nz][1:, :] += off_x
    band[-1][:, :-1] += off_z
    band[1][:, 1:] += off_z
    a = sp.dia_array((data.reshape(offsets.size, n), offsets), shape=(n, n))
    return a, b


_RTOL = 1e-10           # pressure solve: ||Ax - b|| <= _RTOL ||b||
_MAXITER = 1000         # CG iterations before the solve is declared failed
_COARSEST = 64          # cells at most on the level inverted densely
_OMEGA = 2.0 / 3.0      # damped-Jacobi smoothing weight
_SWEEPS = 2             # smoothing sweeps before and after each coarse correction
_REBUILD_AFTER = 1      # CG iterations beyond a hierarchy's first solve after which it is rebuilt


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
    ``None`` when the next solve must build it.  ``fresh_iterations`` is the
    CG iteration count of the first solve on the current hierarchy: later
    solves are measured against it.
    """

    hierarchy: tuple | None = None
    fresh_iterations: int = 0
    solves: int = 0
    cg_iterations: int = 0
    rebuilds: int = 0


def solve_pressure(a, b, x0=None, mg: Multigrid | None = None) -> np.ndarray:
    """Solve the SPD pressure system ``a x = b`` on the grid ``b.shape``.

    ``b`` is ``[nx, nz]`` (else ``ValueError``) and the result has ``b``'s
    shape; ``x0`` is an optional warm start of the same size.
    Conjugate gradients are preconditioned by one symmetric multigrid
    V-cycle: cell-centred linear interpolation between levels, Galerkin
    coarse operators ``P^T A P``, damped-Jacobi smoothing and a dense
    inverse on the coarsest level.  Returns ``x`` with
    ``||a x - b|| <= 1e-10 ||b||``, or raises ``RuntimeError``.

    ``mg`` carries the hierarchy from one solve to the next on the same
    grid; without it the solve builds its own.  A hierarchy built from an
    earlier ``A`` is still SPD, so it only costs iterations: after a solve
    that needed more than ``_REBUILD_AFTER`` iterations beyond the first
    solve on that hierarchy it is dropped, and the next solve rebuilds it
    from its own ``a``.  The check follows every solve, the first included,
    so a negative ``_REBUILD_AFTER`` rebuilds the hierarchy for every solve.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"b must be [nx, nz], got shape {b.shape}")
    mg = Multigrid() if mg is None else mg
    mg.solves += 1
    shape = b.shape
    b = b.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(shape)
    x = np.zeros(b.size) if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    r = b - a @ x
    tol2 = (_RTOL * bnorm) ** 2
    if r @ r <= tol2:
        return x.reshape(shape)
    fresh = mg.hierarchy is None
    if fresh:
        mg.hierarchy = _hierarchy(a, *shape)
        mg.rebuilds += 1
    levels, coarse_inv = mg.hierarchy
    d = _vcycle(levels, coarse_inv, r)
    rz = r @ d
    for it in range(1, _MAXITER + 1):
        ad = a @ d
        alpha = rz / (d @ ad)
        x += alpha * d
        r -= alpha * ad
        if r @ r <= tol2:
            mg.cg_iterations += it
            if fresh:
                mg.fresh_iterations = it
            if it > mg.fresh_iterations + _REBUILD_AFTER:
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
    pv_cell = cfg.porosity * cfg.cell_volume
    peak = _cell_outflow(fx, fz, cfg).max()
    if peak == 0.0:
        return remaining
    return min(cfg.substep_cfl * pv_cell / peak, remaining)


def update_saturation(sw: np.ndarray, fw: np.ndarray, fx, fz, cfg: ReservoirConfig,
                      remaining: float):
    """Explicit upwind fractional-flow transport over one CFL-limited sub-step.

    ``fw`` is the water fractional flow ``lam_w / lam_t`` at ``sw``.
    Returns (new sw, water volume produced, ``dt``), where the step is
    ``dt = stable_dt(fx, fz, cfg, remaining)``.  The injector source is pure
    water; each producer cell discharges its net volumetric inflow at its
    own fractional flow.
    """
    nx, nz = cfg.nx, cfg.nz
    pv_cell = cfg.porosity * cfg.cell_volume
    dt = stable_dt(fx, fz, cfg, remaining)

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
    return sw_new, float(produced.sum()), dt


def run_simulation(k: np.ndarray, cfg: ReservoirConfig) -> TimeSeriesSample:
    """IMPES time series: daily (p, sw) snapshots for days 0..total_days.

    Each pressure solve, the initial one and one after every saturation
    sub-step, assembles the system at the current saturation, runs
    multigrid-preconditioned CG and sets the producer column to exactly
    ``p_prod``.  A sub-step's solve starts from ``2 p_n - p_{n-1}`` (from
    ``p_n`` on the run's first sub-step).  The solves share one hierarchy,
    rebuilt from the current matrix only after a solve that needed more
    than ``_REBUILD_AFTER`` CG iterations beyond the first solve on it.
    :func:`update_saturation` picks each sub-step's CFL-limited length,
    capped at what is left of the day.  Snapshot 0 is the initial
    saturation with its consistent pressure field.  ``extra`` holds the
    run's integer counts: ``substeps``, ``pressure_solves``,
    ``cg_iterations`` and ``hierarchy_rebuilds``.
    """
    nx, nz = cfg.nx, cfg.nz
    tx, tz = face_transmissibility(k, cfg)
    mg = Multigrid()

    def pressure(sw, x0=None):
        """(p, fw, fx, fz) at ``sw``: the pinned pressure, fractional flow and face fluxes."""
        lam_w, lam_t = total_mobility(sw, cfg)
        txm, tzm = _mobility_faces(tx, tz, lam_t)
        p = solve_pressure(*_assemble_from_faces(txm, tzm, cfg), x0=x0, mg=mg)
        p[-1, :] = cfg.p_prod   # the Dirichlet column exactly, not to CG round-off
        return (p, lam_w / lam_t, *darcy_fluxes(p, txm, tzm))

    sw = np.full((nx, nz), cfg.sw_init, dtype=np.float64)
    p, fw, fx, fz = pressure(sw)
    p_prev = p

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
            sw, prod, dt = update_saturation(sw, fw, fx, fz, cfg, 1.0 - t)
            injected += rate * dt
            produced += prod
            t += dt
            substeps += 1
            # p_prev is p on the first sub-step, and 2 c - c == c exactly: that guess
            # is p itself, and every guess holds p_prod on the producer column
            (p, fw, fx, fz), p_prev = pressure(sw, 2.0 * p - p_prev), p
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
