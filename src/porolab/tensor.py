"""Dense real tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float32 or float64).  Operations on
tensors are pure functions; while a :class:`Tape` is active they append a
record (output, inputs, backward rule) in execution order, which is already
a valid topological order.  ``tape.backward(loss)`` replays the records in
reverse and accumulates gradients into every reachable tensor, so a
parameter used several times receives the sum of its per-use gradients.

Convolutions are evaluated channels-last through a flat-offset scheme: the
padded image is treated as one long pixel sequence and each kernel tap
becomes a single GEMM on a contiguous view, which keeps the work inside
BLAS without materialising an im2col buffer.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-dimensional real array, immutable by convention once created."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # arithmetic sugar; scalars allowed, shapes must otherwise match exactly
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


class Parameter:
    """Named trainable tensor; gradient lives on the wrapped value."""

    __slots__ = ("value", "name")

    def __init__(self, value, name: str, dtype=None):
        self.value = value if isinstance(value, Tensor) else Tensor(value, dtype=dtype)
        self.name = name

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    @property
    def grad(self):
        return self.value.grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.value.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around a forward pass; call
    ``tape.backward(loss)`` once afterwards.  A tape is freed after its
    backward pass and cannot be replayed.
    """

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, out: Tensor, inputs, backward_fn):
        self._nodes.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor):
        """Populate gradients of every tensor reachable from ``loss``."""
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if loss.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, inputs, backward_fn in reversed(self._nodes):
            g = out.grad
            if g is None:
                continue
            for t, dt in zip(inputs, backward_fn(g)):
                if dt is None:
                    continue
                t.grad = dt if t.grad is None else t.grad + dt
        self._nodes = []


_TAPE_STACK: list[Tape] = []


def _tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor) and np.isscalar(b):
        out = Tensor(a.data + a.data.dtype.type(b))
        t = _tape()
        if t is not None:
            t.record(out, (a,), lambda g: (g,))
        return out
    b = _as_tensor(b, a.data.dtype)
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    t = _tape()
    if t is not None:
        t.record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor) and np.isscalar(b):
        return add(a, -b)
    b = _as_tensor(b, a.data.dtype)
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    t = _tape()
    if t is not None:
        t.record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor) and np.isscalar(b):
        return scale(a, b)
    b = _as_tensor(b, a.data.dtype)
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    t = _tape()
    if t is not None:
        ad, bd = a.data, b.data
        t.record(out, (a, b), lambda g: (g * bd, g * ad))
    return out


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    out = Tensor(a.data * s)
    t = _tape()
    if t is not None:
        t.record(out, (a,), lambda g: (g * s,))
    return out


def tensor_sum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axes`` (all axes when None, yielding a scalar tensor)."""
    out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))
    t = _tape()
    if t is not None:
        in_shape = a.data.shape

        def bwd(g):
            gg = g
            if axes is not None and not keepdims:
                ax = (axes,) if np.isscalar(axes) else axes
                shape = list(in_shape)
                for d in ax:
                    shape[d] = 1
                gg = g.reshape(shape)
            return (np.broadcast_to(gg, in_shape).copy(),)

        t.record(out, (a,), bwd)
    return out


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    out = Tensor(out_data)
    t = _tape()
    if t is not None:
        t.record(out, (a,), lambda g: (g * (0.5 / out_data),))
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: x * Phi(x)."""
    xd = x.data
    phi_cdf = xd * xd.dtype.type(_SQRT1_2)
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = Tensor(xd * phi_cdf)
    t = _tape()
    if t is not None:
        def bwd(g):
            pdf = xd * xd
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= xd.dtype.type(_INV_SQRT_2PI)
            pdf *= xd
            pdf += phi_cdf
            pdf *= g
            return (pdf,)

        t.record(out, (x,), bwd)
    return out


def forward_diff(a: Tensor, axis: int, inv_h: float = 1.0) -> Tensor:
    """Forward difference along ``axis`` scaled by ``inv_h`` (one entry shorter)."""
    ad = a.data
    n = ad.shape[axis]
    if n < 2:
        raise ValueError("forward_diff needs at least 2 entries along the axis")
    lo = [slice(None)] * ad.ndim
    hi = [slice(None)] * ad.ndim
    lo[axis] = slice(0, n - 1)
    hi[axis] = slice(1, n)
    inv_h = ad.dtype.type(inv_h)
    out = Tensor((ad[tuple(hi)] - ad[tuple(lo)]) * inv_h)
    t = _tape()
    if t is not None:
        def bwd(g):
            gx = np.zeros_like(ad)
            gx[tuple(hi)] += g * inv_h
            gx[tuple(lo)] -= g * inv_h
            return (gx,)

        t.record(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# spatial layers: pointwise channel mixing and 2-D convolution
# ---------------------------------------------------------------------------

def _spatial(x: Tensor, op: str):
    """Split [(B),C,H,W] into (batched 4-D view, had_batch_dim flag)."""
    if x.data.ndim == 3:
        return x.data[None], False
    if x.data.ndim == 4:
        return x.data, True
    raise ValueError(f"{op}: expected 3-D [C,H,W] or 4-D [B,C,H,W], got {x.data.shape}")


def pointwise_linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-pixel channel mixing: out[o] = sum_c w[o,c] x[c] (+ bias[o])."""
    xd, batched = _spatial(x, "pointwise_linear")
    wd = w.data
    if wd.ndim != 2 or wd.shape[1] != xd.shape[1]:
        raise ValueError(f"pointwise_linear: weight {wd.shape} incompatible with input {xd.shape}")
    b, c, h, wd_ = xd.shape
    co = wd.shape[0]
    out_data = np.matmul(wd, xd.reshape(b, c, h * wd_)).reshape(b, co, h, wd_)
    if bias is not None:
        if bias.data.shape != (co,):
            raise ValueError(f"pointwise_linear: bias {bias.data.shape} != ({co},)")
        out_data = out_data + bias.data[:, None, None]
    out = Tensor(out_data if batched else out_data[0])
    t = _tape()
    if t is not None:
        inputs = (x, w) if bias is None else (x, w, bias)

        def bwd(g):
            gb = g if batched else g[None]
            gm = gb.reshape(b, co, h * wd_)
            dx = np.matmul(wd.T, gm).reshape(b, c, h, wd_)
            dw = np.matmul(gm, xd.reshape(b, c, h * wd_).transpose(0, 2, 1)).sum(axis=0)
            dw = dw.astype(wd.dtype, copy=False)
            if not batched:
                dx = dx[0]
            if bias is None:
                return (dx, dw)
            return (dx, dw, gb.sum(axis=(0, 2, 3)))

        t.record(out, inputs, bwd)
    return out


def _conv_out_extent(n: int, k: int, stride: int, pad: int) -> int:
    m = n + 2 * pad - k
    if m < 0:
        raise ValueError(f"conv2d: kernel {k} larger than padded extent {n + 2 * pad}")
    return m // stride + 1


def _cl_pad(xd: np.ndarray, pad: int) -> np.ndarray:
    """[B,C,H,W] -> zero-padded channels-last [B,H+2p,W+2p,C], one copy."""
    b, c, h, w = xd.shape
    if pad == 0:
        return np.ascontiguousarray(xd.transpose(0, 2, 3, 1))
    out = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=xd.dtype)
    out[:, pad:pad + h, pad:pad + w, :] = xd.transpose(0, 2, 3, 1)
    return out


def _corr_s1(xp: np.ndarray, k_cl: np.ndarray) -> np.ndarray:
    """Stride-1 valid cross-correlation, channels-last.

    xp: [B, Hp, Wp, Ci] contiguous; k_cl: [kh, kw, Ci, Co].
    Treats the padded image as a flat pixel run: each kernel tap is one GEMM
    on a shifted contiguous view; rows whose window wraps across an image
    edge are cropped afterwards.
    """
    bsz, hp, wp, ci = xp.shape
    kh, kw, _, co = k_cl.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    flat = xp.reshape(-1, ci)
    npix = flat.shape[0]
    nrun = npix - ((kh - 1) * wp + (kw - 1))
    acc = None
    for u in range(kh):
        for v in range(kw):
            d = u * wp + v
            contrib = flat[d:d + nrun] @ k_cl[u, v]
            acc = contrib if acc is None else acc + contrib
    out = np.zeros((npix, co), dtype=xp.dtype)
    out[:nrun] = acc
    return out.reshape(bsz, hp, wp, co)[:, :ho, :wo, :]


def _corr_s1_kgrad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Kernel gradient of the stride-1 correlation: [kh, kw, Ci, Co]."""
    bsz, hp, wp, ci = xp.shape
    _, ho, wo, co = g.shape
    flat = xp.reshape(-1, ci)
    gfull = np.zeros((bsz, hp, wp, co), dtype=g.dtype)
    gfull[:, :ho, :wo, :] = g
    gflat = gfull.reshape(-1, co)
    nrun = flat.shape[0] - ((kh - 1) * wp + (kw - 1))
    dk = np.empty((kh, kw, ci, co), dtype=g.dtype)
    for u in range(kh):
        for v in range(kw):
            d = u * wp + v
            dk[u, v] = flat[d:d + nrun].T @ gflat[:nrun]
    return dk


def _zero_stuff(y: np.ndarray, stride: int, h1: int, w1: int) -> np.ndarray:
    """Insert stride-1 zeros between entries of y to reach (h1, w1)."""
    if stride == 1:
        return y
    bsz, ho, wo, co = y.shape
    out = np.zeros((bsz, h1, w1, co), dtype=y.dtype)
    out[:, ::stride, ::stride, :][:, :ho, :wo, :] = y
    return out


def _conv2d_fwd_cl(xp: np.ndarray, kd: np.ndarray, stride: int) -> np.ndarray:
    """Forward conv from a padded channels-last buffer; returns [B,Co,H',W']."""
    k_cl = np.ascontiguousarray(kd.transpose(2, 3, 1, 0))
    y = _corr_s1(xp, k_cl)
    if stride > 1:
        y = y[:, ::stride, ::stride, :]
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


def _conv2d_raw(xd: np.ndarray, kd: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Forward conv on [B,C,H,W] with kernel [Co,Ci,kh,kw]."""
    return _conv2d_fwd_cl(_cl_pad(xd, pad), kd, stride)


def _conv2d_transpose_raw(yd: np.ndarray, kd: np.ndarray, stride: int, pad: int,
                          out_hw: tuple[int, int]) -> np.ndarray:
    """Exact adjoint of :func:`_conv2d_raw` with the same (k, stride, pad)."""
    co, ci, kh, kw = kd.shape
    oh, ow = out_hw
    h1 = oh + 2 * pad - kh + 1
    w1 = ow + 2 * pad - kw + 1
    bsz = yd.shape[0]
    # zero-stuff into a buffer padded by k-1 on each side in one go
    gp = np.zeros((bsz, h1 + 2 * (kh - 1), w1 + 2 * (kw - 1), co), dtype=yd.dtype)
    tgt = gp[:, kh - 1:kh - 1 + h1:stride, kw - 1:kw - 1 + w1:stride, :]
    tgt[:, :yd.shape[2], :yd.shape[3], :] = yd.transpose(0, 2, 3, 1)
    # adjoint of a valid stride-1 correlation: correlate with the spatially
    # flipped, channel-transposed kernel
    k_adj = np.ascontiguousarray(kd[:, :, ::-1, ::-1].transpose(2, 3, 0, 1))
    xe = _corr_s1(gp, k_adj)
    if pad:
        xe = xe[:, pad:pad + oh, pad:pad + ow, :]
    return np.ascontiguousarray(xe.transpose(0, 3, 1, 2))


def _conv2d_kgrad_cl(xp: np.ndarray, gd: np.ndarray, kshape, stride: int) -> np.ndarray:
    """Kernel grad from the saved padded channels-last input buffer."""
    co, ci, kh, kw = kshape
    h1 = xp.shape[1] - kh + 1
    w1 = xp.shape[2] - kw + 1
    g1 = _zero_stuff(gd.transpose(0, 2, 3, 1), stride, h1, w1)
    dk = _corr_s1_kgrad(xp, g1, kh, kw)
    return np.ascontiguousarray(dk.transpose(3, 2, 0, 1))


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    x: [(B),Ci,H,W]; k: [Co,Ci,kh,kw]; output extent (n + 2*pad - k)//stride + 1.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    xd, batched = _spatial(x, "conv2d")
    kd = k.data
    if kd.ndim != 4 or kd.shape[1] != xd.shape[1]:
        raise ValueError(f"conv2d: kernel {kd.shape} incompatible with input {xd.shape}")
    _conv_out_extent(xd.shape[2], kd.shape[2], stride, pad)
    _conv_out_extent(xd.shape[3], kd.shape[3], stride, pad)
    xp = _cl_pad(xd, pad)
    out_data = _conv2d_fwd_cl(xp, kd, stride)
    out = Tensor(out_data if batched else out_data[0])
    t = _tape()
    if t is not None:
        hw = (xd.shape[2], xd.shape[3])

        def bwd(g):
            gb = g if batched else g[None]
            dx = _conv2d_transpose_raw(gb, kd, stride, pad, hw)
            dk = _conv2d_kgrad_cl(xp, gb, kd.shape, stride)
            return (dx if batched else dx[0], dk)

        t.record(out, (x, k), bwd)
    return out


def conv2d_transpose(y: Tensor, k: Tensor, stride: int = 1, pad: int = 0,
                     out_hw: tuple[int, int] | None = None) -> Tensor:
    """Adjoint of :func:`conv2d` with the same (k, stride, pad).

    ``out_hw`` disambiguates the fine-grid extent when stride > 1; the
    default is stride*(n-1) - 2*pad + k.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv2d_transpose: stride must be 1 or 2, got {stride}")
    yd, batched = _spatial(y, "conv2d_transpose")
    kd = k.data
    if kd.ndim != 4 or kd.shape[0] != yd.shape[1]:
        raise ValueError(f"conv2d_transpose: kernel {kd.shape} incompatible with input {yd.shape}")
    co, ci, kh, kw = kd.shape
    if out_hw is None:
        out_hw = (stride * (yd.shape[2] - 1) - 2 * pad + kh,
                  stride * (yd.shape[3] - 1) - 2 * pad + kw)
    for n_out, n_in, kk in ((out_hw[0], yd.shape[2], kh), (out_hw[1], yd.shape[3], kw)):
        if _conv_out_extent(n_out, kk, stride, pad) != n_in:
            raise ValueError(
                f"conv2d_transpose: out_hw {out_hw} inconsistent with input {yd.shape[2:]} "
                f"under (k={kk}, stride={stride}, pad={pad})")
    out_data = _conv2d_transpose_raw(yd, kd, stride, pad, out_hw)
    out = Tensor(out_data if batched else out_data[0])
    t = _tape()
    if t is not None:
        def bwd(g):
            gb = g if batched else g[None]
            gp = _cl_pad(gb, pad)
            dy = _conv2d_fwd_cl(gp, kd, stride)
            dk = _conv2d_kgrad_cl(gp, yd, kd.shape, stride)
            return (dy if batched else dy[0], dk)

        t.record(out, (y, k), bwd)
    return out
