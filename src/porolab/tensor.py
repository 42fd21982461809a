"""Dense real tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float32 or float64).  Operations on
tensors are pure functions; while a :class:`Tape` is active they append a
record (output, inputs, backward rule) in execution order, which is already
a valid topological order.  ``tape.backward(loss)`` replays the records in
reverse and accumulates gradients into every reachable tensor, so a
parameter used several times receives the sum of its per-use gradients.
A :class:`Parameter` is a Tensor with a name and enters every op as itself.

Convolutions share one tap geometry: the zero-padded channels-last image
[B, hp, wp, C] is read as one long run of pixels, so kernel tap (u, v) is the
flat offset ``u*wp + v`` and one GEMM on a contiguous shifted view, with no
im2col buffer.  A window that wraps across a row or into the next batch entry
lands on a pixel no result keeps.  Three maps over the taps cover both ops
and both gradients: the gather ``_conv_fwd`` (conv2d's forward); the scatter
``_conv_adj``, its adjoint (conv2d_transpose's forward), which adds each
pixel, or its gradient, spread to its window's corner by ``_spread``, back
through every tap; and the kernel gradient ``_conv_kgrad``.  The scatter walks
the taps last to first so that each pixel sums its terms in the order of a
correlation with the flipped kernel, the textbook form of the transpose;
porolab's float results, training losses and checkpoints are fixed to that
order.
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

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

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


class Parameter(Tensor):
    """Trainable tensor with a name; the name keys it in checkpoints.

    An optimizer step rebinds ``data``; ``grad`` is reset by assigning None.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name

    @property
    def value(self):
        """The parameter itself; an alias kept for the scripts in ``perfbench/``."""
        return self

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


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


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor | float) -> Tensor:
    if np.isscalar(b):
        out = Tensor(a.data + a.data.dtype.type(b))
        t = _tape()
        if t is not None:
            t.record(out, (a,), lambda g: (g,))
        return out
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    t = _tape()
    if t is not None:
        t.record(out, (a, b), lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor | float) -> Tensor:
    if np.isscalar(b):
        return add(a, -b)
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    t = _tape()
    if t is not None:
        t.record(out, (a, b), lambda g: (g, -g))
    return out


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    if np.isscalar(b):
        return scale(a, b)
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


def tensor_sum(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Sum over the tuple ``axes`` (all axes when None, yielding a scalar tensor)."""
    out = Tensor(a.data.sum(axis=axes))
    t = _tape()
    if t is not None:
        in_shape = a.data.shape

        def bwd(g):
            if axes is not None:
                shape = list(in_shape)
                for d in axes:
                    shape[d] = 1
                g = g.reshape(shape)
            return (np.broadcast_to(g, in_shape).copy(),)

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
    """Forward difference along ``axis`` scaled by ``inv_h`` (one entry shorter).

    No porolab code calls it.  It stays because the benchmark's per-layer
    metrics list ``tensor.forward_diff`` as a span and
    ``tests/test_benchmark_tracing.py`` fails on a listed span that is
    missing; it goes with the next benchmark change.
    """
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

def _spatial(x: Tensor, op: str, *weights: Tensor | None) -> np.ndarray:
    """The [B,C,H,W] array of a spatial layer's input, whose weights share its dtype."""
    if x.data.ndim != 4:
        raise ValueError(f"{op}: expected 4-D [B,C,H,W], got {x.data.shape}")
    for w in weights:
        if w is not None and w.data.dtype != x.data.dtype:
            raise ValueError(f"{op}: weight dtype {w.data.dtype} differs from input dtype "
                             f"{x.data.dtype}")
    return x.data


def pointwise_linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-pixel channel mixing: out[o] = sum_c w[o,c] x[c] (+ bias[o])."""
    xd = _spatial(x, "pointwise_linear", w, bias)
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
    out = Tensor(out_data)
    t = _tape()
    if t is not None:
        inputs = (x, w) if bias is None else (x, w, bias)

        def bwd(g):
            gm = g.reshape(b, co, h * wd_)
            dx = np.matmul(wd.T, gm).reshape(b, c, h, wd_)
            dw = np.matmul(gm, xd.reshape(b, c, h * wd_).transpose(0, 2, 1)).sum(axis=0)
            dw = dw.astype(wd.dtype, copy=False)
            if bias is None:
                return (dx, dw)
            return (dx, dw, g.sum(axis=(0, 2, 3)))

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


def _spread(yd: np.ndarray, stride: int, hp: int, wp: int) -> np.ndarray:
    """[B,C,Ho,Wo] -> channels-last [B,hp,wp,C] with each pixel at its window's corner."""
    bsz, c, ho, wo = yd.shape
    out = np.zeros((bsz, hp, wp, c), dtype=yd.dtype)
    out[:, :ho * stride:stride, :wo * stride:stride, :] = yd.transpose(0, 2, 3, 1)
    return out


def _taps(xp: np.ndarray, kd: np.ndarray):
    """Each tap's flat offset ``u*wp + v`` on the grid of ``xp`` with its [Ci, Co]
    matrix, and the run length: the pixels every tap can shift without leaving it."""
    bsz, hp, wp, _ = xp.shape
    kh, kw = kd.shape[2:]
    k_cl = np.ascontiguousarray(kd.transpose(2, 3, 1, 0))
    taps = [(u * wp + v, k_cl[u, v]) for u in range(kh) for v in range(kw)]
    return taps, bsz * hp * wp - taps[-1][0]


def _conv_fwd(xp: np.ndarray, kd: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Gather: the [B,Co,ho,wo] correlation of a padded channels-last image."""
    taps, nrun = _taps(xp, kd)
    flat = xp.reshape(-1, xp.shape[3])
    out = np.empty((flat.shape[0], kd.shape[0]), dtype=xp.dtype)
    (d, k), *rest = taps
    np.matmul(flat[d:d + nrun], k, out=out[:nrun])
    for d, k in rest:
        out[:nrun] += flat[d:d + nrun] @ k
    y = out.reshape(xp.shape[:3] + (-1,))[:, :ho * stride:stride, :wo * stride:stride, :]
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2))


def _conv_adj(s: np.ndarray, kd: np.ndarray, pad: int, oh: int, ow: int) -> np.ndarray:
    """Scatter, the adjoint of the gather: [B,Ci,oh,ow] from a spread [B,hp,wp,Co].

    Last tap first, for the summation order the module docstring gives.
    """
    taps, nrun = _taps(s, kd)
    flat = s.reshape(-1, s.shape[3])
    out = np.zeros((flat.shape[0], kd.shape[1]), dtype=s.dtype)
    for d, k in reversed(taps):
        out[d:d + nrun] += flat[:nrun] @ k.T
    xe = out.reshape(s.shape[:3] + (-1,))[:, pad:pad + oh, pad:pad + ow, :]
    return np.ascontiguousarray(xe.transpose(0, 3, 1, 2))


def _conv_kgrad(xp: np.ndarray, s: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Kernel gradient [Co,Ci,kh,kw] from the padded image and the spread gradient."""
    taps, nrun = _taps(xp, kd)
    flat = xp.reshape(-1, xp.shape[3])
    sflat = s.reshape(-1, s.shape[3])[:nrun]
    dk = np.stack([flat[d:d + nrun].T @ sflat for d, _ in taps])
    return np.ascontiguousarray(dk.reshape(kd.shape[2:] + dk.shape[1:]).transpose(3, 2, 0, 1))


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    x: [B,Ci,H,W]; k: [Co,Ci,kh,kw]; output extent (n + 2*pad - k)//stride + 1.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    xd = _spatial(x, "conv2d", k)
    kd = k.data
    if kd.ndim != 4 or kd.shape[1] != xd.shape[1]:
        raise ValueError(f"conv2d: kernel {kd.shape} incompatible with input {xd.shape}")
    h, w = xd.shape[2:]
    ho = _conv_out_extent(h, kd.shape[2], stride, pad)
    wo = _conv_out_extent(w, kd.shape[3], stride, pad)
    xp = _cl_pad(xd, pad)
    out = Tensor(_conv_fwd(xp, kd, stride, ho, wo))
    t = _tape()
    if t is not None:
        def bwd(g):
            s = _spread(g, stride, xp.shape[1], xp.shape[2])
            return (_conv_adj(s, kd, pad, h, w), _conv_kgrad(xp, s, kd))

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
    yd = _spatial(y, "conv2d_transpose", k)
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
    oh, ow = out_hw
    hp, wp = oh + 2 * pad, ow + 2 * pad
    out = Tensor(_conv_adj(_spread(yd, stride, hp, wp), kd, pad, oh, ow))
    t = _tape()
    if t is not None:
        def bwd(g):
            gp = _cl_pad(g, pad)
            dy = _conv_fwd(gp, kd, stride, yd.shape[2], yd.shape[3])
            return (dy, _conv_kgrad(gp, _spread(yd, stride, hp, wp), kd))

        t.record(out, (y, k), bwd)
    return out
