"""FNO and MgNO operator architectures on the shared autodiff substrate.

Both models map stacked input channels (normalized permeability, a constant
time channel and the two cell-centre coordinates, :func:`make_input`) to a
single output field:

* :class:`Fno` lifts pointwise to a wide representation, applies spectral
  convolutions with truncated Fourier modes interleaved with pointwise
  linear maps and GELU, and projects back.
* :class:`Mgno` applies hidden layers of the form
  ``gelu(Vcycle(h) + B h + b)`` where the linear operator is a learned
  multi-channel multigrid V(1,1) cycle (:func:`vcycle_apply`: one pre- and
  one post-smoothing step per level, a single smoothing step on the
  coarsest), followed by a final 1x1 linear map.

The retained FNO mode rows are split across both corners of the spectrum
(``m1`` total rows: non-negative row frequencies first, then the mirrored
negative ones), which keeps the parameterization grid-size independent.

Training steps and predictions run a batch in one way, through
:func:`_two_shards`; its docstring and ``_PIECE_CELLS`` give its halves,
threads and pieces.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import spectral
from .tensor import (Parameter, Tensor, _record, _spatial, add, conv2d,
                     conv2d_transpose, gelu, pointwise_linear, sub)


# ---------------------------------------------------------------------------
# model input
# ---------------------------------------------------------------------------

_IN_CHANNELS = 4   # normalized K, t/t_max, two cell-centre coordinates


def make_input(k_norm: np.ndarray, t_frac) -> np.ndarray:
    """Model inputs [B,C,H,W] in ``k_norm``'s dtype from normalized fields [B,H,W].

    Channels: [normalized K, t/t_max, (i + 0.5)/nx, (j + 0.5)/nz] at cell (i, j).
    The coordinates, the same points at every resolution, let a model that
    commutes with grid shifts locate the wells (injector row 0, producer row
    nx - 1).  ``t_frac`` holds one t/t_max per field.  It may exceed 1 (rollout
    past the training horizon) but must be finite and not go below 0.
    """
    t_frac = np.asarray(t_frac)
    if t_frac.shape != k_norm.shape[:1]:
        raise ValueError(f"t_frac needs one time per field: shape {t_frac.shape} for "
                         f"{len(k_norm)} fields")
    bad = ~(np.isfinite(t_frac) & (t_frac >= 0))
    if np.any(bad):
        raise ValueError(f"time must be non-negative and finite, got t/t_max = "
                         f"{t_frac[bad][0]}")
    b, nx, nz = k_norm.shape
    x = np.empty((b, _IN_CHANNELS, nx, nz), dtype=k_norm.dtype)
    x[:, 0] = k_norm
    x[:, 1] = t_frac[:, None, None]
    x[:, 2] = ((np.arange(nx) + 0.5) / nx)[:, None]
    x[:, 3] = (np.arange(nz) + 0.5) / nz
    return x


# ---------------------------------------------------------------------------
# the two-thread, piece-by-piece runner of training and inference
# ---------------------------------------------------------------------------

@cache
def _blas_threads():
    """numpy's OpenBLAS thread-count functions (get, set), looked up once per
    process, or None where numpy exposes no such OpenBLAS."""
    try:
        import ctypes
        import numpy._core._multiarray_umath as umath
        lib = ctypes.CDLL(umath.__file__)
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get_threads.argtypes = ()
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    return get_threads, set_threads


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, and restore its
    thread count after; where numpy exposes no such OpenBLAS, change nothing."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


# entry-cells of one piece: 25 entries of a 32x32 grid, 6 of a 64x64 one.  A 64x64
# B=50 half runs five pieces of 5 (peak RSS of f32 MgNO training 204 -> 124 MB on a
# 2-core Xeon), a 25-day 64x64 series 5+4+4 | 6+6, and a 32x32 or 16x16 B=50 half
# one piece (a 32x32 MgNO step read 16% slower as 13+12)
_PIECE_CELLS = 25 * 32 * 32


def _two_shards(fn, fold, *arrays):
    """``fn`` on the pieces of the first ceil(B/2) entries of each array, in turn on
    the calling thread, and on those of the rest, in turn on the one worker of an
    executor opened for the call, each half folding its pieces' results as they
    end: ``fold(fold(r1, r2), r3)`` and so on, in piece order.  Returns
    ``fold(first half, second half)``, or the first half's result alone for a batch
    of one.  The fold order, (first half in piece order) with (second half in
    piece order), hangs on the batch size and the grid alone, so it is the same
    on every machine.  ``fold`` may write into a value that it returned, but never
    into a piece's result, which may be held elsewhere.  ``np.array_split`` cuts
    each half into the fewest near-equal pieces (larger first) of at most
    ``max(1, _PIECE_CELLS // cells)`` entries, an entry's cells being the product
    of the first array's axes past the first two ([B, C, H, W] gives H*W).  A
    thread finishes one piece and folds it before it starts the next, so the
    memory a training step holds is bounded by the piece and one running result
    per thread, not by the batch (micro-batch gradient accumulation, as in GPipe:
    Huang et al., NeurIPS 2019, arXiv 1811.06965).  A batch of one starts no
    thread; an empty batch is one empty piece.  numpy's OpenBLAS runs one thread
    for the duration: with two, each GEMM would split over cores the halves
    already fill, and an idle BLAS worker spins between GEMMs and holds a core.  A
    half stops at its first failing piece, and the error is raised once both
    halves have ended (the first half's when both fail)."""
    cap = max(1, _PIECE_CELLS // math.prod(arrays[0].shape[2:]))
    halves = list(zip(*(np.array_split(a, 2 if len(arrays[0]) > 1 else 1) for a in arrays)))

    # not functools.reduce: its argument tuple keeps the last two operands alive
    # through the next piece, two gradients more per thread in a training step
    def run(half):
        count = max(1, -(-len(half[0]) // cap))
        pieces = zip(*(np.array_split(a, count) for a in half))
        done = fn(*next(pieces))
        for piece in pieces:
            done = fold(done, fn(*piece))
        return done

    with _one_blas_thread():
        if len(halves) == 1:
            return run(halves[0])
        with ThreadPoolExecutor(1) as pool:
            rest = pool.submit(run, halves[1])
            done = run(halves[0])
        return fold(done, rest.result())


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

    v: [B,C,H,W]; w_re/w_im: [m1, m2, C, C].  ``spectral.rfft2`` computes
    only the retained block of v's spectrum, each mode mixes the channels
    and ``spectral.irfft2`` maps the block back to the grid (the backward
    pass uses their adjoints), so no full-size spectrum is formed.  The
    output spectrum is zero outside the retained modes (up to the conjugate
    images that column 0 and the Nyquist column of a real field's spectrum
    force: retaining (r, 0) implies energy at (-r, 0), its other half).
    """
    vd = _spatial(v, "spectral_conv", w_re, w_im)
    m1, m2, _, cin = w_re.data.shape
    _, c, h, w = vd.shape
    if cin != c:
        raise ValueError(f"spectral_conv: weights expect {cin} channels, input has {c}")
    if m2 > w // 2 + 1:
        raise ValueError(f"retained columns {m2} exceed half-spectrum {w // 2 + 1}")
    rows = _mode_rows(h, m1)

    block_t = np.ascontiguousarray(
        spectral.rfft2(vd, rows, m2).transpose(2, 3, 1, 0))                # [m1,m2,C,B]
    wc = (w_re.data + 1j * w_im.data).astype(block_t.dtype)                 # [m1,m2,Co,Ci]
    out_block = np.matmul(wc, block_t)                                      # [m1,m2,Co,B]
    out = Tensor(spectral.irfft2(out_block.transpose(3, 2, 0, 1), rows, (h, w)))

    def bwd(g):
        ablock_t = np.ascontiguousarray(
            spectral.irfft2_adjoint(g, rows, m2).transpose(2, 3, 1, 0))    # [m1,m2,Co,B]
        dw = np.matmul(ablock_t, block_t.conj().transpose(0, 1, 3, 2))      # g C^H
        dblock = np.matmul(wc.conj().transpose(0, 1, 3, 2), ablock_t)       # W^H g
        dv = spectral.rfft2_adjoint(dblock.transpose(3, 2, 0, 1), rows, (h, w))
        return dv, np.ascontiguousarray(dw.real), np.ascontiguousarray(dw.imag)

    return _record(out, (v, w_re, w_im), lambda: bwd)


# ---------------------------------------------------------------------------
# FNO
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FnoConfig:
    width: int = 24           # lifted channel count d_v
    modes1: int = 12          # retained spectrum rows (both corners together)
    modes2: int = 12          # retained half-spectrum columns
    depth: int = 4            # number of Fourier layers

    def __post_init__(self):
        for name in ("width", "modes1", "modes2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.depth < 0:
            raise ValueError(f"depth must be non-negative, got {self.depth}")


@dataclass(frozen=True)
class MgnoConfig:
    depth: int = 3            # hidden layers L
    channels: int = 12        # hidden channel count
    levels: int = 4           # multigrid levels J

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be at least 1, got {self.levels}")
        if self.channels < 1:
            raise ValueError(f"channels must be at least 1, got {self.channels}")
        if self.depth < 0:
            raise ValueError(f"depth must be non-negative, got {self.depth}")


def _uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def vcycle_apply(f: Tensor, levels: list[tuple[Tensor, Tensor, Tensor, Tensor]],
                 coarse_s: Tensor) -> Tensor:
    """Multigrid V(1,1) cycle with learned 3x3 convolution kernels; linear in ``f``.

    ``levels`` holds the operator, smoother and transfer kernels ``(A, S, R, P)``
    of every level above the coarsest, finest first.  A level pre-smooths
    ``u = S * f`` from zero, restricts the residual ``f - A * u`` with the
    stride-2 convolution ``R``, recurses, adds the coarse correction prolonged
    by the transposed convolution ``P`` and post-smooths
    ``u += S * (f - A * u)``.  The coarsest level only smooths once,
    ``u = coarse_s * f``, so it has no operator kernel.
    """
    if not levels:
        return conv2d(f, coarse_s, 1, 1)
    a, s, r, p = levels[0]
    u = conv2d(f, s, 1, 1)
    ec = vcycle_apply(conv2d(sub(f, conv2d(u, a, 1, 1)), r, 2, 1), levels[1:], coarse_s)
    u = add(u, conv2d_transpose(ec, p, 2, 1, out_hw=f.data.shape[-2:]))
    return add(u, conv2d(sub(f, conv2d(u, a, 1, 1)), s, 1, 1))


class _Operator:
    """What both architectures share: normalization, time scale, precision,
    initialization seed, the parameter list, and prediction through
    :meth:`forward`."""

    def __init__(self, cfg, stats, t_max: float, dtype, seed: int):
        if stats is None:
            raise ValueError("a model needs the normalization stats of its training split")
        self.cfg = cfg
        self.stats = stats
        self.t_max = float(t_max)
        if not 0.0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {t_max}")
        self.dtype = np.dtype(dtype).type
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"model dtype must be float32 or float64, got {self.dtype.__name__}")
        self.seed = seed
        self._params: list[Parameter] = []

    def _param(self, data: np.ndarray, name: str) -> Parameter:
        p = Parameter(data, name)
        self._params.append(p)
        return p

    def parameters(self) -> list[Parameter]:
        """Every parameter in creation order, which is the checkpoint order."""
        return list(self._params)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Tape-free forward on [B,C,H,W] inputs, as two halves on two threads, each
        walked piece by piece and joined in piece order (:func:`_two_shards`);
        returns [B,H,W]."""
        x = np.ascontiguousarray(x, dtype=self.dtype)
        return _two_shards(lambda xs: self.forward(Tensor(xs)).data[:, 0],
                           lambda a, b: np.concatenate((a, b)), x)

    def inputs(self, k_norm: np.ndarray, days) -> np.ndarray:
        """:func:`make_input` of normalized fields [B,H,W] at ``days / t_max``, one day each."""
        return make_input(k_norm, np.asarray(days) / self.t_max)

    def predict_fields(self, k: np.ndarray, days) -> np.ndarray:
        """Denormalized field predictions for one permeability, normalized once, at many days."""
        days = np.asarray(days, dtype=np.float64)
        kn = self.stats.normalize_k(k).astype(self.dtype)
        x = self.inputs(np.broadcast_to(kn, (len(days), *kn.shape)), days)
        return self.stats.denormalize_target(self.predict(x))


class Fno(_Operator):
    """Fourier neural operator: lift, spectral layers, project."""

    kind = "fno"

    def __init__(self, cfg: FnoConfig, stats, t_max: float = 24.0,
                 dtype=np.float64, seed: int = 0):
        super().__init__(cfg, stats, t_max, dtype, seed)
        rng = np.random.default_rng(seed)
        d, m1, m2 = cfg.width, cfg.modes1, cfg.modes2
        dt = self.dtype
        self.lift_w = self._param(_uniform(rng, (d, _IN_CHANNELS), _IN_CHANNELS, dt), "lift.w")
        self.lift_b = self._param(np.zeros(d, dt), "lift.b")
        self.layers = []
        for i in range(cfg.depth):
            scale = 1.0 / d
            wre = self._param((rng.uniform(-1, 1, (m1, m2, d, d)) * scale).astype(dt),
                              f"layer{i}.spec_re")
            wim = self._param((rng.uniform(-1, 1, (m1, m2, d, d)) * scale).astype(dt),
                              f"layer{i}.spec_im")
            w = self._param(_uniform(rng, (d, d), d, dt), f"layer{i}.w")
            b = self._param(np.zeros(d, dt), f"layer{i}.b")
            self.layers.append((wre, wim, w, b))
        self.proj_w = self._param(_uniform(rng, (1, d), d, dt), "proj.w")
        self.proj_b = self._param(np.zeros(1, dt), "proj.b")

    def forward(self, x: Tensor) -> Tensor:
        v = pointwise_linear(x, self.lift_w, self.lift_b)
        last = len(self.layers) - 1
        for i, (wre, wim, w, b) in enumerate(self.layers):
            mixed = add(pointwise_linear(v, w, b), spectral_conv(v, wre, wim))
            v = mixed if i == last else gelu(mixed)
        return pointwise_linear(v, self.proj_w, self.proj_b)


class Mgno(_Operator):
    """Multigrid neural operator: layers of learned V-cycles plus pointwise maps."""

    kind = "mgno"

    def __init__(self, cfg: MgnoConfig, stats, t_max: float = 24.0,
                 dtype=np.float64, seed: int = 0):
        super().__init__(cfg, stats, t_max, dtype, seed)
        rng = np.random.default_rng(seed)
        dt = self.dtype
        self.layers = []
        ci = _IN_CHANNELS
        for i in range(cfg.depth):
            co = cfg.channels
            levels = []
            for j in range(cfg.levels - 1):
                levels.append((
                    self._param(_uniform(rng, (ci, co, 3, 3), 9 * co, dt), f"layer{i}.lvl{j}.a"),
                    self._param(_uniform(rng, (co, ci, 3, 3), 9 * ci, dt), f"layer{i}.lvl{j}.s"),
                    self._param(_uniform(rng, (ci, ci, 3, 3), 9 * ci, dt), f"layer{i}.lvl{j}.r"),
                    self._param(_uniform(rng, (co, co, 3, 3), 9 * co, dt), f"layer{i}.lvl{j}.p")))
            coarse_s = self._param(_uniform(rng, (co, ci, 3, 3), 9 * ci, dt),
                                   f"layer{i}.lvl{cfg.levels - 1}.s")
            bmat = self._param(_uniform(rng, (co, ci), ci, dt), f"layer{i}.bmat")
            bias = self._param(np.zeros(co, dt), f"layer{i}.bias")
            self.layers.append((levels, coarse_s, bmat, bias))
            ci = co
        self.out_w = self._param(_uniform(rng, (1, ci), ci, dt), "out.w")

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for levels, coarse_s, bmat, bias in self.layers:
            linear = vcycle_apply(h, levels, coarse_s)
            h = gelu(add(linear, pointwise_linear(h, bmat, bias)))
        return pointwise_linear(h, self.out_w, None)
