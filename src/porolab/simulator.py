"""Incompressible, immiscible oil-water flow on a 2-D grid (IMPES scheme).

The pressure equation -div(lambda_t(sw) K grad p) = q is solved implicitly
with a two-point flux approximation (harmonic-mean permeability, arithmetic
face mobility), by conjugate gradients preconditioned with one geometric
multigrid V-cycle (cell-centred linear interpolation, Galerkin coarse
operators, one Jacobi sweep damped by 4/5, the smoothing optimum of the
2-D five-point operator, before and after each coarse correction); the
matrix-vector products call scipy's compiled sparse kernels directly into
work arrays that each solve and each hierarchy own.  Saturation is advanced
explicitly with upwind fractional flow, and each update picks its own
CFL-limited sub-step.  The pressure matrix is stored as its five diagonals;
the prolongations depend only on the grid and are built once per shape.  A
run builds one multigrid hierarchy per simulated day, at the day's first
solve, and the V-cycle smooths the finest level with the matrix being
solved, so only the coarser levels lag behind it.  Each sub-step's solve
starts from the cubic extrapolation, in the sub-step index, of the four
previous pressures (of as many as there are, early in a day).  Water is
injected at a fixed total rate spread over the leftmost column; the
rightmost column is held at a fixed producer pressure, which anchors the
elliptic system as a known value, not an unknown.

Units are internally consistent and dimensionless: permeability is a
mobility multiplier, the injection rate is expressed in pore volumes per
day, and the cell thickness in the collapsed direction is one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools     # private: a release that moves it fails the import


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
    def cell_pore_volume(self) -> float:
        return self.porosity * self.cell_volume

    @property
    def pore_volume(self) -> float:
        return self.cell_pore_volume * self.nx * self.nz


@dataclass
class TimeSeriesSample:
    """Daily pressure/saturation snapshots (day 0..T) of one run."""

    p_series: np.ndarray
    sw_series: np.ndarray
    water_injected: float
    water_produced: float
    extra: dict


def relperm(sw, cfg: ReservoirConfig):
    """Corey relative permeabilities (k_rw, k_ro) of the water saturation."""
    sw = np.asarray(sw, dtype=np.float64)
    lo, hi = cfg.swc, 1.0 - cfg.sor
    if not np.all((sw >= lo - 1e-9) & (sw <= hi + 1e-9)):
        raise ValueError(f"saturation outside [{lo}, {hi}]: range [{sw.min()}, {sw.max()}]")
    se = np.clip((sw - lo) / (hi - lo), 0.0, 1.0)
    return se ** cfg.corey_nw, (1.0 - se) ** cfg.corey_no


def total_mobility(sw, cfg: ReservoirConfig):
    krw, kro = relperm(sw, cfg)
    lam_w = krw / cfg.mu_w
    return lam_w, lam_w + kro / cfg.mu_o


def _check_permeability(k) -> None:
    """Raise unless every entry of ``k`` is finite and non-negative; ``k`` is not cast."""
    k = np.asarray(k)
    if not np.all(np.isfinite(k) & (k >= 0)):
        raise ValueError("permeability must be finite and non-negative")


def face_transmissibility(k: np.ndarray, cfg: ReservoirConfig):
    """Geometric two-point face coefficients (interior faces only).

    Returns (tx, tz) with tx[i, :] coupling cells (i, :) and (i+1, :).
    Outer boundary faces carry no flow and are not represented.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (cfg.nx, cfg.nz):
        raise ValueError(f"permeability shape {k.shape} != grid {(cfg.nx, cfg.nz)}")
    _check_permeability(k)

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

    The unknowns are the free cells, all but the producer column (the
    rightmost), whose pressure is ``p_prod`` and not an unknown: ``A`` acts
    on the free cells in C order and ``b`` is ``[nx - 1, nz]``.  Injector
    cells (leftmost column) contribute a uniform split of the total rate to
    b; a face to a producer cell adds its coefficient times ``p_prod``.
    """
    tx, tz = face_transmissibility(k, cfg)
    txm, tzm = _mobility_faces(tx, tz, total_mobility(sw, cfg)[1])
    return _assemble_from_faces(txm, tzm, cfg)


@functools.lru_cache(maxsize=8)
def _bands(nz: int):
    """The distinct band offsets of a grid with ``nz`` rows, read-only, and
    the row of ``data`` that holds each of offsets -nz, -1, 0, +1, +nz."""
    offsets = np.unique([-nz, -1, 0, 1, nz])
    offsets.flags.writeable = False
    return offsets, tuple(int(np.searchsorted(offsets, d)) for d in (-nz, -1, 0, 1, nz))


def _assemble_from_faces(txm, tzm, cfg: ReservoirConfig):
    """``A`` as a DIA matrix with bands at offsets -nz, -1, 0, +1, +nz, and ``b``.

    Both cover the ``(nx - 1) * nz`` free cells; the producer column is no
    unknown.  Band ``d`` holds ``A[c - d, c]`` at column ``c``: a face's
    coefficient sits at its lower-index cell in the lower band and at its
    higher-index cell in the upper one.  On a one-row grid (``nz = 1``) the
    empty z-bands share their offsets with the x-bands, so bands add up per
    distinct offset.
    """
    nx, nz = cfg.nx - 1, cfg.nz     # the free cells
    n = nx * nz
    offsets, (lo_x, lo_z, mid, up_z, up_x) = _bands(nz)
    data = np.zeros((offsets.size, nx, nz))
    diag = data[mid]
    diag += txm
    diag[1:, :] += txm[:-1, :]
    diag[:, :-1] += tzm[:-1, :]
    diag[:, 1:] += tzm[:-1, :]
    if np.any(diag <= 0.0):
        raise ValueError("degenerate permeability: cell with zero total mobility coupling")

    b = np.zeros((nx, nz))
    b[0, :] += _injection_rate(cfg) / nz
    b[-1, :] += txm[-1, :] * cfg.p_prod

    off_x, off_z = -txm[:-1, :], -tzm[:-1, :]
    data[lo_x][:-1, :] += off_x
    data[up_x][1:, :] += off_x
    data[lo_z][:, :-1] += off_z
    data[up_z][:, 1:] += off_z
    a = sp.dia_array((data.reshape(offsets.size, n), offsets), shape=(n, n))
    return a, b


_RTOL = 1e-10           # pressure solve: ||Ax - b|| <= _RTOL ||b||
_MAXITER = 1000         # CG iterations before the solve is declared failed
_COARSEST = 64          # cells at most on the level inverted densely
_OMEGA = 4.0 / 5.0      # damped-Jacobi smoothing weight: 4/5 damps the high frequencies of
                        # the 2-D five-point operator best (2/3 is the 1-D optimum and took
                        # about 10% more CG iterations)
# Backward-difference extrapolation weights on the last 1-4 pressures, newest
# first: row m-1 is exact for a polynomial of degree m-1 in the sub-step index
# (a quartic or higher start took more CG iterations than the cubic)
_EXTRAPOLATE = ((1,), (2, -1), (3, -3, 1), (4, -6, 4, -1))


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


def _matvec(m):
    """``x -> m @ x`` for a DIA or CSR ``m``, bit for bit, written into one
    float64 work array of ``m``'s that every call overwrites and returns.

    It calls scipy's compiled kernel without the dispatch of ``@``, and the
    kernel checks no size: ``x`` must be a vector of ``m.shape[1]`` entries.
    """
    rows, cols = m.shape
    if m.format == "dia":
        kernel = functools.partial(_sparsetools.dia_matvec, rows, cols, m.offsets.size,
                                   m.data.shape[1], m.offsets, m.data)
    else:
        m = m.tocsr()
        kernel = functools.partial(_sparsetools.csr_matvec, rows, cols, m.indptr, m.indices,
                                   m.data)
    y = np.zeros(rows)

    def apply(x):
        y.fill(0.0)
        kernel(x, y)
        return y
    return apply


def _hierarchy(a, nx: int, nz: int):
    """The V-cycle below the finest level, that of ``a``: ``(smoothers, transfers, coarse_inv)``.

    ``smoothers`` holds (A, omega / diag A) of each Galerkin level ``P^T A P``
    above the coarsest, ``transfers`` the (P, P^T) below each level but the
    coarsest, and ``coarse_inv`` the dense inverse of the coarsest.  Nothing of
    ``a`` is kept: a solve smooths the finest level with its own matrix.  The
    products are :func:`_matvec` ones, so the hierarchy owns their work arrays.
    """
    smoothers, transfers = [], []
    for p, pt in _prolongations(nx, nz):
        if transfers:       # a level below the finest
            smoothers.append((_matvec(a), _OMEGA / a.diagonal()))
        transfers.append((_matvec(p), _matvec(pt)))
        a = pt @ a.tocsr() @ p
    return smoothers, transfers, np.linalg.inv(a.toarray())


def _vcycle(smoothers, transfers, coarse_inv, r, level=0):
    """One symmetric V(1,1) cycle applied to ``r`` (zero initial guess); returns a new array.

    ``smoothers`` is the finest level's (A, omega / diag A) before :func:`_hierarchy`'s."""
    if level == len(transfers):
        return coarse_inv @ r
    a, wdiag = smoothers[level]
    p, pt = transfers[level]
    x = wdiag * r
    t = a(x)
    np.subtract(r, t, out=t)
    x += p(_vcycle(smoothers, transfers, coarse_inv, pt(t), level + 1))
    t = a(x)
    np.subtract(r, t, out=t)
    t *= wdiag
    x += t
    return x


@dataclass
class Multigrid:
    """The V-cycle hierarchy that successive pressure solves share, and their CG iterations.

    ``hierarchy`` is what :func:`_hierarchy` returns, built from the ``A``
    of an earlier solve on the same grid, or ``None`` when the next solve
    must build it from its own.  The hierarchy owns the work arrays of its
    matrix-vector products, so only one solve at a time may use it.
    ``cg_iterations`` sums the CG iterations of the solves that used it.
    """

    hierarchy: tuple | None = None
    cg_iterations: int = 0


def solve_pressure(a, b, x0=None, mg: Multigrid | None = None) -> np.ndarray:
    """Solve the SPD pressure system ``a x = b`` on the grid ``b.shape``.

    ``b`` is ``[nx, nz]``, ``a`` is ``(b.size, b.size)`` and ``x0``, an
    optional warm start, has ``b.size`` entries (else ``ValueError``); the
    result has ``b``'s shape.
    Conjugate gradients are preconditioned by one symmetric multigrid
    V-cycle: cell-centred linear interpolation between levels, Galerkin
    coarse operators ``P^T A P``, damped-Jacobi smoothing and a dense
    inverse on the coarsest level.  Returns ``x`` with
    ``||a x - b|| <= 1e-10 ||b||``, or raises ``RuntimeError``.

    ``mg`` carries the coarse levels from one solve to the next on the same
    grid; without it, or while ``mg.hierarchy`` is ``None``, the solve
    builds them from its own ``a``.  The finest level is always smoothed
    with ``a``.  Coarse levels built from an earlier ``A`` keep the
    preconditioner SPD, so they only cost iterations; the caller decides
    when to drop them.  A hierarchy owns the work arrays of its
    matrix-vector products, so one ``mg`` serves one solve at a time.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"b must be [nx, nz], got shape {b.shape}")
    if a.shape != (b.size, b.size):
        raise ValueError(f"matrix shape {a.shape} does not fit b of {b.size} entries")
    if x0 is not None and np.size(x0) != b.size:
        raise ValueError(f"x0 has {np.size(x0)} entries, b has {b.size}")
    mg = Multigrid() if mg is None else mg
    shape = b.shape
    b = b.ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(shape)
    x = np.zeros(b.size) if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    a_mv = _matvec(a)
    r = b - a_mv(x)
    tol2 = (_RTOL * bnorm) ** 2
    if r @ r <= tol2:
        return x.reshape(shape)
    if mg.hierarchy is None:
        mg.hierarchy = _hierarchy(a, *shape)
    smoothers, transfers, coarse_inv = mg.hierarchy
    smoothers = [(a_mv, _OMEGA / a.diagonal()), *smoothers]
    d = _vcycle(smoothers, transfers, coarse_inv, r)
    rz = r @ d
    for it in range(1, _MAXITER + 1):
        ad = a_mv(d)
        alpha = rz / (d @ ad)
        x += alpha * d
        r -= alpha * ad
        if r @ r <= tol2:
            mg.cg_iterations += it
            return x.reshape(shape)
        z = _vcycle(smoothers, transfers, coarse_inv, r)
        rz_new = r @ z
        d *= rz_new / rz
        d += z
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
    pos = np.maximum(fx, 0.0)
    out[:-1, :] += pos
    out[1:, :] += pos - fx          # max(-f, 0) == max(f, 0) - f exactly
    pos = np.maximum(fz, 0.0)
    out[:, :-1] += pos
    out[:, 1:] += pos - fz
    out[0, :] += _injection_rate(cfg) / cfg.nz
    out[-1, :] += np.abs(producer_sink(fx, fz))
    return out


def stable_dt(fx, fz, cfg: ReservoirConfig, remaining: float) -> float:
    """CFL sub-step: substep_cfl * min phi V / (outflux + |source|), capped at ``remaining``."""
    peak = _cell_outflow(fx, fz, cfg).max()
    if peak == 0.0:
        return remaining
    return min(cfg.substep_cfl * cfg.cell_pore_volume / peak, remaining)


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
    dt = stable_dt(fx, fz, cfg, remaining)

    dv = np.zeros((nx, nz))  # net water volume gained per cell

    # upwind water flux through x-faces
    fw_up = np.where(fx >= 0.0, fw[:-1, :], fw[1:, :])
    moved = fw_up * fx * dt
    dv[:-1, :] -= moved
    dv[1:, :] += moved
    fw_up = np.where(fz >= 0.0, fw[:, :-1], fw[:, 1:])
    moved = fw_up * fz * dt
    dv[:, :-1] -= moved
    dv[:, 1:] += moved

    dv[0, :] += (_injection_rate(cfg) / nz) * dt           # pure-water injector
    sink = producer_sink(fx, fz)                            # signed well discharge
    produced = fw[-1, :] * sink * dt
    dv[-1, :] -= produced

    sw_new = sw + dv / cfg.cell_pore_volume
    lo, hi = cfg.swc, 1.0 - cfg.sor
    if sw_new.min() < lo - 1e-8 or sw_new.max() > hi + 1e-8:
        raise AssertionError(
            f"saturation bounds violated: [{sw_new.min():.6g}, {sw_new.max():.6g}]")
    np.clip(sw_new, lo, hi, out=sw_new)
    return sw_new, float(produced.sum()), dt


def run_simulation(k: np.ndarray, cfg: ReservoirConfig) -> TimeSeriesSample:
    """IMPES time series: daily (p, sw) snapshots for days 0..total_days.

    Each pressure solve, the initial one and one after every saturation
    sub-step, assembles the system at the current saturation and runs
    multigrid-preconditioned CG for the free cells; the producer column is
    no unknown and holds ``p_prod`` exactly.  A sub-step's solve starts from
    the extrapolation ``4 p_n - 6 p_{n-1} + 4 p_{n-2} - p_{n-3}`` of the
    day's last four pressures over the free cells, or by the row of
    ``_EXTRAPOLATE`` for as many as the day has so far: the day's first
    solve starts from the day's starting pressure.  The hierarchy is dropped
    at the start of each day too, so the initial solve and each day's first
    solve build it from their own matrix, and the day's later solves share
    it.  A day thus inherits its starting snapshot ``(p, sw)`` and nothing
    of the solver.  :func:`update_saturation` picks each sub-step's
    CFL-limited length, capped at what is left of the day.  Snapshot 0 is
    the initial saturation with its consistent pressure field.  ``extra``
    holds the run's integer counts: ``substeps`` (one pressure solve each,
    after the initial one) and ``cg_iterations``.
    """
    nx, nz = cfg.nx, cfg.nz
    tx, tz = face_transmissibility(k, cfg)
    mg = Multigrid()

    def pressure(sw, x0=None):
        """(p, fw, fx, fz) at ``sw``: pressure, fractional flow and face fluxes;
        the solve from ``x0`` fills the free cells, the producer column is no unknown."""
        lam_w, lam_t = total_mobility(sw, cfg)
        txm, tzm = _mobility_faces(tx, tz, lam_t)
        p = np.full((nx, nz), cfg.p_prod)
        p[:-1] = solve_pressure(*_assemble_from_faces(txm, tzm, cfg), x0=x0, mg=mg)
        return (p, lam_w / lam_t, *darcy_fluxes(p, txm, tzm))

    sw = np.full((nx, nz), cfg.sw_init, dtype=np.float64)
    p, fw, fx, fz = pressure(sw)

    days = cfg.total_days
    p_series = np.empty((days + 1, nx, nz))
    sw_series = np.empty((days + 1, nx, nz))
    p_series[0], sw_series[0] = p, sw

    injected = 0.0
    produced = 0.0
    rate = _injection_rate(cfg)
    substeps = 0
    for day in range(1, days + 1):
        # past: the day's last len(_EXTRAPOLATE) pressures, newest first
        mg.hierarchy, past, t = None, [p], 0.0
        while t < 1.0 - 1e-12:
            sw, prod, dt = update_saturation(sw, fw, fx, fz, cfg, 1.0 - t)
            injected += rate * dt
            produced += prod
            t += dt
            substeps += 1
            guess = sum(c * q[:-1] for c, q in zip(_EXTRAPOLATE[len(past) - 1], past))
            p, fw, fx, fz = pressure(sw, guess)
            past = [p, *past][:len(_EXTRAPOLATE)]
        p_series[day], sw_series[day] = p, sw

    return TimeSeriesSample(
        p_series=p_series,
        sw_series=sw_series,
        water_injected=injected,
        water_produced=produced,
        extra={"substeps": substeps, "cg_iterations": mg.cg_iterations},
    )


def water_budget_error(sample: TimeSeriesSample, cfg: ReservoirConfig) -> float:
    """Relative closure error of the water mass budget over the whole run."""
    pv_cell = cfg.cell_pore_volume
    stored = pv_cell * float(np.sum(sample.sw_series[-1] - sample.sw_series[0]))
    net = sample.water_injected - sample.water_produced
    scale = max(abs(sample.water_injected), abs(sample.water_produced), pv_cell)
    return abs(stored - net) / scale
