"""FNO and MgNO operator architectures on the shared autodiff substrate.

Both models map stacked input channels (normalized permeability plus a
constant time channel) to a single output field:

* :class:`Fno` lifts pointwise to a wide representation, applies spectral
  convolutions with truncated Fourier modes interleaved with pointwise
  linear maps and GELU, and projects back.
* :class:`Mgno` applies hidden layers of the form
  ``gelu(Vcycle(h) + B h + b)`` where the linear operator is a learned
  multi-channel multigrid V-cycle, followed by a final 1x1 linear map.

The retained FNO mode rows are split across both corners of the spectrum
(``m1`` total rows: non-negative row frequencies first, then the mirrored
negative ones), which keeps the parameterization grid-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .tensor import (Parameter, Tensor, _spatial, _tape, add, conv2d,
                     conv2d_transpose, gelu, pointwise_linear)


# ---------------------------------------------------------------------------
# model input
# ---------------------------------------------------------------------------

def _stack_inputs(k_norm: np.ndarray, t_frac, with_coords: bool) -> np.ndarray:
    """Model inputs [B,C,H,W] in ``k_norm``'s dtype from normalized fields [B,H,W].

    Channels: [normalized K, t/t_max (, x-coord, z-coord)], the coordinates
    running over [0, 1]; ``t_frac`` holds one t/t_max per field.
    """
    b, nx, nz = k_norm.shape
    x = np.empty((b, 4 if with_coords else 2, nx, nz), dtype=k_norm.dtype)
    x[:, 0] = k_norm
    x[:, 1] = np.asarray(t_frac)[:, None, None]
    if with_coords:
        x[:, 2] = np.linspace(0.0, 1.0, nx)[:, None]
        x[:, 3] = np.linspace(0.0, 1.0, nz)[None, :]
    return x


def make_input(k: np.ndarray, t: float, t_max: float, stats,
               with_coords: bool = False) -> np.ndarray:
    """Input channels [C,H,W] for one permeability at time ``t``.

    ``t`` may exceed ``t_max`` (rollout past the training horizon).
    """
    if stats is None:
        raise ValueError("make_input requires normalization stats")
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    kn = stats.normalize_k(np.asarray(k))
    return _stack_inputs(kn[None], [t / t_max], with_coords)[0]


# ---------------------------------------------------------------------------
# spectral convolution primitive
# ---------------------------------------------------------------------------

def _mode_rows(h: int, m1: int) -> np.ndarray:
    """Retained row indices: first ceil(m1/2) rows, then the last floor(m1/2)."""
    lo = (m1 + 1) // 2
    hi = m1 // 2
    if m1 > h:
        raise ValueError(f"retained rows {m1} exceed grid rows {h}")
    return np.concatenate([np.arange(lo), np.arange(h - hi, h)])


def spectral_conv(v: Tensor, w_re: Tensor, w_im: Tensor) -> Tensor:
    """Per-mode channel mixing in the truncated Fourier domain.

    v: [(B),C,H,W]; w_re/w_im: [m1, m2, C, C].  The output spectrum is zero
    outside the retained modes (up to the conjugate images that column 0 and
    the Nyquist column of a real field's spectrum force: retaining (r, 0)
    implies energy at (-r, 0), its other half).
    """
    vd, batched = _spatial(v, "spectral_conv")
    m1, m2, cout, cin = w_re.data.shape
    bsz, c, h, w = vd.shape
    if cin != c:
        raise ValueError(f"spectral_conv: weights expect {cin} channels, input has {c}")
    if m2 > w // 2 + 1:
        raise ValueError(f"retained columns {m2} exceed half-spectrum {w // 2 + 1}")
    rows = _mode_rows(h, m1)

    cols = np.arange(m2)
    cplx = np.complex64 if vd.dtype == np.float32 else np.complex128
    spec_in = spectral.rfft2(vd)
    block_t = np.ascontiguousarray(
        spec_in[:, :, rows[:, None], cols[None, :]].transpose(2, 3, 1, 0))  # [m1,m2,C,B]
    wc = (w_re.data + 1j * w_im.data).astype(cplx)                          # [m1,m2,Co,Ci]
    out_block = np.matmul(wc, block_t)                                      # [m1,m2,Co,B]
    spec_out = np.zeros((bsz, cout, h, w // 2 + 1), dtype=spec_in.dtype)
    spec_out[:, :, rows[:, None], cols[None, :]] = out_block.transpose(3, 2, 0, 1)
    out_data = spectral.irfft2(spec_out, s=(h, w)).astype(vd.dtype, copy=False)
    out = Tensor(out_data if batched else out_data[0])

    t = _tape()
    if t is not None:
        def bwd(g):
            gb = g if batched else g[None]
            gs = spectral.irfft2_adjoint(gb, w)                    # [B,C,H,Wh] complex
            ablock_t = np.ascontiguousarray(
                gs[:, :, rows[:, None], cols[None, :]].transpose(2, 3, 1, 0))  # [m1,m2,Co,B]
            dw = np.matmul(ablock_t, block_t.conj().transpose(0, 1, 3, 2))    # g C^H
            dblock = np.matmul(wc.conj().transpose(0, 1, 3, 2), ablock_t)     # W^H g
            dspec = np.zeros_like(spec_in)
            dspec[:, :, rows[:, None], cols[None, :]] = dblock.transpose(3, 2, 0, 1)
            dv = spectral.rfft2_adjoint(dspec, w).astype(vd.dtype, copy=False)
            return ((dv if batched else dv[0]),
                    np.ascontiguousarray(dw.real, dtype=w_re.data.dtype),
                    np.ascontiguousarray(dw.imag, dtype=w_im.data.dtype))

        t.record(out, (v, w_re, w_im), bwd)
    return out


# ---------------------------------------------------------------------------
# FNO
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FnoConfig:
    width: int = 24           # lifted channel count d_v
    modes1: int = 12          # retained spectrum rows (both corners together)
    modes2: int = 12          # retained half-spectrum columns
    depth: int = 4            # number of Fourier layers
    in_channels: int = 2
    out_channels: int = 1

    def validate_grid(self, nx: int, nz: int):
        if self.modes1 > nx:
            raise ValueError(f"modes1={self.modes1} exceeds grid rows {nx}")
        if self.modes2 > nz // 2 + 1:
            raise ValueError(f"modes2={self.modes2} exceeds half-spectrum {nz // 2 + 1}")


@dataclass(frozen=True)
class MgnoConfig:
    depth: int = 3            # hidden layers L
    channels: int = 12        # hidden channel count
    levels: int = 4           # multigrid levels J
    smooth_steps: int = 1     # smoothing iterations per level
    in_channels: int = 2
    out_channels: int = 1

    def validate_grid(self, nx: int, nz: int):
        div = 2 ** (self.levels - 1)
        if min(nx, nz) % div:
            raise ValueError(f"2^(levels-1)={div} must divide min grid extent {min(nx, nz)}")


def parameter_count(cfg) -> int:
    """Closed-form number of scalar parameters for either architecture."""
    if isinstance(cfg, FnoConfig):
        d, m1, m2 = cfg.width, cfg.modes1, cfg.modes2
        lift = cfg.in_channels * d + d
        per_layer = 2 * m1 * m2 * d * d + d * d + d
        proj = d * cfg.out_channels + cfg.out_channels
        return lift + cfg.depth * per_layer + proj
    if isinstance(cfg, MgnoConfig):
        total = 0
        ci = cfg.in_channels
        for _ in range(cfg.depth):
            co = cfg.channels
            total += cfg.levels * 9 * ci * co * 2          # A and S per level
            total += (cfg.levels - 1) * 9 * (ci * ci + co * co)  # R and P per transition
            total += ci * co + co                          # pointwise B and bias
            ci = co
        total += ci * cfg.out_channels                     # final linear map
        return total
    raise TypeError(f"unsupported config type {type(cfg)!r}")


def _uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _LevelKernels:
    """Per-level V-cycle kernels: operator A, smoother S, transfers R/P."""

    __slots__ = ("a", "s", "r", "p")

    def __init__(self, a, s, r=None, p=None):
        self.a, self.s, self.r, self.p = a, s, r, p


def vcycle_apply(f: Tensor, levels: list[_LevelKernels], smooth_steps: int = 1,
                 transfer_pad: int | None = None) -> Tensor:
    """Multigrid V-cycle with learned convolution kernels; linear in ``f``.

    Level j smooths ``u += S * (f - A * u)`` starting from zero, restricts
    the residual with a stride-2 convolution, recurses, prolongs the coarse
    correction with the transposed convolution, and post-smooths.  The
    coarsest level applies the smoothing iterations only.

    ``transfer_pad`` is the zero padding of the grid-transfer convolutions;
    the default (k-1)//2 halves even extents, while 0 realizes classical
    vertex coarsening (2m+1 -> m) on odd extents.
    """
    lvl = levels[0]
    pad_a = lvl.a.data.shape[-1] // 2
    pad_s = lvl.s.data.shape[-1] // 2
    u = None
    for _ in range(smooth_steps):
        r = f if u is None else f - conv2d(u, lvl.a, 1, pad_a)
        du = conv2d(r, lvl.s, 1, pad_s)
        u = du if u is None else u + du
    if len(levels) == 1:
        return u
    hw = f.data.shape[-2:]
    pad_t = (lvl.r.data.shape[-1] - 1) // 2 if transfer_pad is None else transfer_pad
    r = f - conv2d(u, lvl.a, 1, pad_a)
    rc = conv2d(r, lvl.r, 2, pad_t)
    ec = vcycle_apply(rc, levels[1:], smooth_steps, transfer_pad)
    u = u + conv2d_transpose(ec, lvl.p, 2, pad_t, out_hw=hw)
    for _ in range(smooth_steps):
        r = f - conv2d(u, lvl.a, 1, pad_a)
        u = u + conv2d(r, lvl.s, 1, pad_s)
    return u


class _Operator:
    """What both architectures share: normalization, time scale, precision,
    initialization seed, and prediction through :meth:`forward`."""

    def __init__(self, cfg, stats, t_max: float, dtype, seed: int):
        self.cfg = cfg
        self.stats = stats
        self.t_max = float(t_max)
        self.dtype = np.dtype(dtype).type
        self.seed = seed

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward on [B,C,H,W] inputs; returns [B,H,W]."""
        out = self.forward(Tensor(np.ascontiguousarray(x, dtype=self.dtype)))
        return out.data[:, 0]

    def predict_fields(self, k: np.ndarray, days) -> np.ndarray:
        """Denormalized field predictions for one permeability at many days."""
        coords = self.cfg.in_channels == 4
        x = np.stack([make_input(k, float(t), self.t_max, self.stats, with_coords=coords)
                      for t in days])
        return self.stats.denormalize_target(self.predict(x))


class Fno(_Operator):
    """Fourier neural operator: lift, spectral layers, project."""

    kind = "fno"

    def __init__(self, cfg: FnoConfig, stats=None, t_max: float = 24.0,
                 dtype=np.float64, seed: int = 0):
        super().__init__(cfg, stats, t_max, dtype, seed)
        rng = np.random.default_rng(seed)
        d, m1, m2 = cfg.width, cfg.modes1, cfg.modes2
        dt = self.dtype
        self.lift_w = Parameter(_uniform(rng, (d, cfg.in_channels), cfg.in_channels, dt), "lift.w")
        self.lift_b = Parameter(np.zeros(d, dt), "lift.b")
        self.layers = []
        for i in range(cfg.depth):
            scale = 1.0 / d
            wre = Parameter((rng.uniform(-1, 1, (m1, m2, d, d)) * scale).astype(dt),
                            f"layer{i}.spec_re")
            wim = Parameter((rng.uniform(-1, 1, (m1, m2, d, d)) * scale).astype(dt),
                            f"layer{i}.spec_im")
            w = Parameter(_uniform(rng, (d, d), d, dt), f"layer{i}.w")
            b = Parameter(np.zeros(d, dt), f"layer{i}.b")
            self.layers.append((wre, wim, w, b))
        self.proj_w = Parameter(_uniform(rng, (cfg.out_channels, d), d, dt), "proj.w")
        self.proj_b = Parameter(np.zeros(cfg.out_channels, dt), "proj.b")

    def parameters(self) -> list[Parameter]:
        params = [self.lift_w, self.lift_b]
        for wre, wim, w, b in self.layers:
            params += [wre, wim, w, b]
        params += [self.proj_w, self.proj_b]
        return params

    def forward(self, x: Tensor) -> Tensor:
        self.cfg.validate_grid(*x.data.shape[-2:])
        v = pointwise_linear(x, self.lift_w.value, self.lift_b.value)
        last = len(self.layers) - 1
        for i, (wre, wim, w, b) in enumerate(self.layers):
            mixed = add(pointwise_linear(v, w.value, b.value),
                        spectral_conv(v, wre.value, wim.value))
            v = mixed if i == last else gelu(mixed)
        return pointwise_linear(v, self.proj_w.value, self.proj_b.value)


class Mgno(_Operator):
    """Multigrid neural operator: layers of learned V-cycles plus pointwise maps."""

    kind = "mgno"

    def __init__(self, cfg: MgnoConfig, stats=None, t_max: float = 24.0,
                 dtype=np.float64, seed: int = 0):
        super().__init__(cfg, stats, t_max, dtype, seed)
        rng = np.random.default_rng(seed)
        dt = self.dtype
        self.layers = []
        ci = cfg.in_channels
        for i in range(cfg.depth):
            co = cfg.channels
            levels = []
            for j in range(cfg.levels):
                a = Parameter(_uniform(rng, (ci, co, 3, 3), 9 * co, dt), f"layer{i}.lvl{j}.a")
                s = Parameter(_uniform(rng, (co, ci, 3, 3), 9 * ci, dt), f"layer{i}.lvl{j}.s")
                if j < cfg.levels - 1:
                    r = Parameter(_uniform(rng, (ci, ci, 3, 3), 9 * ci, dt), f"layer{i}.lvl{j}.r")
                    p = Parameter(_uniform(rng, (co, co, 3, 3), 9 * co, dt), f"layer{i}.lvl{j}.p")
                else:
                    r = p = None
                levels.append((a, s, r, p))
            bmat = Parameter(_uniform(rng, (co, ci), ci, dt), f"layer{i}.bmat")
            bias = Parameter(np.zeros(co, dt), f"layer{i}.bias")
            self.layers.append((levels, bmat, bias))
            ci = co
        self.out_w = Parameter(_uniform(rng, (cfg.out_channels, ci), ci, dt), "out.w")

    def parameters(self) -> list[Parameter]:
        params = []
        for levels, bmat, bias in self.layers:
            for a, s, r, p in levels:
                params += [a, s]
                if r is not None:
                    params += [r, p]
            params += [bmat, bias]
        params.append(self.out_w)
        return params

    def forward(self, x: Tensor) -> Tensor:
        self.cfg.validate_grid(*x.data.shape[-2:])
        h = x
        for levels, bmat, bias in self.layers:
            kernels = [_LevelKernels(a.value, s.value,
                                     r.value if r is not None else None,
                                     p.value if p is not None else None)
                       for a, s, r, p in levels]
            linear = vcycle_apply(h, kernels, self.cfg.smooth_steps)
            h = gelu(add(linear, pointwise_linear(h, bmat.value, bias.value)))
        return pointwise_linear(h, self.out_w.value, None)


def classical_vcycle_kernels(levels: int, h0: float, omega: float = 0.8,
                             dtype=np.float64) -> list[_LevelKernels]:
    """Textbook Poisson V-cycle kernels for the contraction check.

    Intended for vertex-centered hierarchies (2^k - 1 points per side,
    transfer_pad=0).  Level j uses the 5-point Laplacian at spacing
    ``h0 * 2**j``, a weighted Jacobi smoother, full-weighting restriction
    and bilinear prolongation; the 1x1 coarsest level carries the exact
    inverse (h^2/4) as its "smoother", so one step solves it.
    """
    fw = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float64)
    out = []
    for j in range(levels):
        h = h0 * 2 ** j
        lap = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=np.float64) / h ** 2
        smo = np.zeros((3, 3))
        smo[1, 1] = omega * h ** 2 / 4.0
        a = Tensor(lap[None, None].astype(dtype))
        if j < levels - 1:
            s = Tensor(smo[None, None].astype(dtype))
            r = Tensor((fw / 16.0)[None, None].astype(dtype))
            p = Tensor((fw / 4.0)[None, None].astype(dtype))
        else:
            smo[1, 1] = h ** 2 / 4.0   # exact inverse on the 1x1 grid
            s = Tensor(smo[None, None].astype(dtype))
            r = p = None
        out.append(_LevelKernels(a, s, r, p))
    return out
