"""Dense real tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array (float32 or float64).  Operations on
tensors are pure functions, and each returns its output through ``_record``,
the one place where an op meets the tape: while a :class:`Tape` is active it
appends a record (output, inputs, backward rule) in execution order, which is
already a valid topological order.  ``tape.backward(loss)`` replays the
records in reverse and accumulates gradients into every reachable tensor, so
a parameter used several times receives the sum of its per-use gradients.
A :class:`Parameter` is a Tensor with a name and enters every op as itself.

Convolutions share one tap geometry.  The zero-padded image is split once into
its stride**2 phases (``_phases``): phase (a, b) is the channel-planar sub-image
[B, C, hq, wq] of padded pixels (s*i + a, s*j + b), hq = ceil(hp/s), zero-filled
where an extent does not divide; stride 1 is the one-phase case.  Each channel's
plane is read as one run of hq*wq pixels, so kernel tap (u, v) is phase
(u % s, v % s) at flat offset ``(u//s)*wq + v//s``: one [Co, Ci] @ [Ci, run]
GEMM on a shifted view of each batch entry's planes, with no im2col buffer and
no channels-last copy, and a stride-2 convolution does all its work at coarse
resolution.  A window that wraps across a row, or runs past the end of its
plane, lands on a cell no result keeps.  Three maps over the taps cover both
ops and both gradients: the gather ``_conv_fwd`` (conv2d's forward); the
scatter ``_conv_adj``, its adjoint (conv2d_transpose's forward), which adds
each coarse pixel, or its gradient, back through every tap into the phases and
interleaves them; and the kernel gradient ``_conv_kgrad``.  The scatter walks
the taps last to first so that each pixel sums its terms in the order of a
correlation with the flipped kernel, the textbook form of the transpose;
porolab's float results, training losses and checkpoints are fixed to that
order.

The three maps walk the batch in blocks of whole planes (``_blocks``), at most
``_BLOCK_ROWS`` pixels or one plane each, and take every tap on a block before
the next block.  A tap's GEMM writes into one block-sized buffer, not into a
full-size temporary, so a block's input, output and products stay in cache
across the taps instead of the whole image streaming through memory once per
tap.  The gather and the scatter add that buffer on over whole planes, one
contiguous sum per tap; the cells past a plane's run take zeros.  Each pixel
sums its terms in the same tap order and every plane's product has the same
shape in any block, so outputs and input gradients are the same bits at any
block size; only the kernel gradient's sum over the batch is grouped by block.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_FLOAT_DTYPES = (np.float32, np.float64)

# Pixels per block of the convolution tap loops, taken in whole phase planes:
# max(1, _BLOCK_ROWS // plane) planes per block, so a padded 64x64 plane of
# 4356 pixels is a block of its own and a padded 32x32 plane shares one with two
# more.  A 12-channel float32 plane of input, output or product is about 200 KB
# at 64x64.  Of the sizes 2048 to 65536 measured on a 2-core AMD EPYC VM, 4096
# and 8192 tied for the fastest MgNO step; 2048, one 32x32 plane per block, was
# slower (see CHANGES.md).
_BLOCK_ROWS = 4096


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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)


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


def _record(out: Tensor, inputs, backward_fn) -> Tensor:
    """Record ``out = op(*inputs)`` with its backward rule on the active tape, if
    any, and return ``out``.  Every differentiable op returns through here."""
    if _TAPE_STACK:
        _TAPE_STACK[-1].record(out, inputs, backward_fn)
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _record(Tensor(a.data - b.data), (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record(Tensor(ad * bd), (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    """``s * a`` for a Python scalar ``s``, taken in ``a``'s dtype.

    No porolab code calls it.  It stays because the benchmark's per-layer
    metrics list ``tensor.scale`` as a span and
    ``tests/test_benchmark_tracing.py`` fails on a listed span that is
    missing; it goes with the next benchmark change.
    """
    s = a.data.dtype.type(s)
    return _record(Tensor(a.data * s), (a,), lambda g: (g * s,))


def tensor_sum(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Sum over the tuple ``axes`` (all axes when None, yielding a scalar tensor)."""
    in_shape = a.data.shape

    def bwd(g):
        if axes is not None:
            shape = list(in_shape)
            for d in axes:
                shape[d] = 1
            g = g.reshape(shape)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record(Tensor(a.data.sum(axis=axes)), (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    # d sqrt(a)/da = 0.5 / sqrt(a), taken as 0 where sqrt(a) is 0 (an exact fit)
    # so that one zero does not make every gradient inf or NaN
    return _record(Tensor(out_data), (a,),
                   lambda g: (g * np.divide(0.5, out_data, where=out_data > 0,
                                            out=np.zeros_like(out_data)),))


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: x * Phi(x)."""
    xd = x.data
    phi_cdf = xd * xd.dtype.type(_SQRT1_2)
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5

    def bwd(g):
        pdf = xd * xd
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= xd.dtype.type(_INV_SQRT_2PI)
        pdf *= xd
        pdf += phi_cdf
        pdf *= g
        return (pdf,)

    return _record(Tensor(xd * phi_cdf), (x,), bwd)


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

    def bwd(g):
        gx = np.zeros_like(ad)
        gx[tuple(hi)] += g * inv_h
        gx[tuple(lo)] -= g * inv_h
        return (gx,)

    return _record(Tensor((ad[tuple(hi)] - ad[tuple(lo)]) * inv_h), (a,), bwd)


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

    def bwd(g):
        gm = g.reshape(b, co, h * wd_)
        dx = np.matmul(wd.T, gm).reshape(b, c, h, wd_)
        dw = np.matmul(gm, xd.reshape(b, c, h * wd_).transpose(0, 2, 1)).sum(axis=0)
        dw = dw.astype(wd.dtype, copy=False)
        if bias is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return _record(Tensor(out_data), (x, w) if bias is None else (x, w, bias), bwd)


def _conv_out_extent(n: int, k: int, stride: int, pad: int, op: str) -> int:
    m = n + 2 * pad - k
    if m < 0:
        raise ValueError(f"{op}: kernel {k} larger than padded extent {n + 2 * pad}")
    return m // stride + 1


def _phase_grid(n: int, stride: int, pad: int) -> int:
    """Extent of each phase of an extent-n axis padded by ``pad``."""
    return -(-(n + 2 * pad) // stride)


def _phase_blocks(h: int, w: int, stride: int, pad: int):
    """Each phase p of an [h, w] image padded by ``pad``, with the (row, column)
    slices of the phase cells its pixels fill and the slices of those pixels."""
    def axis(n, a):
        y0 = (a - pad) % stride          # first pixel of parity a once padded
        i0 = (y0 + pad) // stride
        return slice(i0, i0 + len(range(y0, n, stride))), slice(y0, None, stride)
    return [(a * stride + b, *zip(axis(h, a), axis(w, b)))
            for a in range(stride) for b in range(stride)]


def _phases(xd: np.ndarray, stride: int, pad: int, hq: int, wq: int) -> np.ndarray:
    """[B,C,H,W] zero-padded by ``pad`` on a [stride*hq, stride*wq] grid, split into
    its channel-planar phases [stride**2, B, C, hq, wq]: phase a*stride + b holds
    padded pixel (stride*i + a, stride*j + b) at (i, j)."""
    bsz, c, h, w = xd.shape
    out = np.zeros((stride * stride, bsz, c, hq, wq), dtype=xd.dtype)
    for p, (qi, qj), (yi, yj) in _phase_blocks(h, w, stride, pad):
        out[p, :, :, qi, qj] = xd[:, :, yi, yj]
    return out


def _taps(plane: tuple[int, int], kd: np.ndarray, stride: int):
    """Each tap's phase ``(u % s)*s + v % s`` and flat offset ``(u//s)*wq + v//s``
    in an [hq, wq] phase plane with its contiguous [kd.shape[0], kd.shape[1]] matrix,
    and the run length: the cells every tap can shift without leaving the plane."""
    hq, wq = plane
    kh, kw = kd.shape[2:]
    k_taps = np.ascontiguousarray(kd.transpose(2, 3, 0, 1))
    taps = [((u % stride) * stride + v % stride, (u // stride) * wq + v // stride, k_taps[u, v])
            for u in range(kh) for v in range(kw)]
    return taps, hq * wq - taps[-1][1]


def _blocks(bsz: int, plane: int) -> list[tuple[int, int]]:
    """The [b0, b1) blocks of ``bsz`` batch entries whose planes hold ``plane``
    pixels: ``max(1, _BLOCK_ROWS // plane)`` entries per block, the last one ragged.
    A block only groups planes, and each plane's product has the same shape in
    any block, so no block size turns a product into a matrix-vector one."""
    step = max(1, _BLOCK_ROWS // plane)
    return [(b0, min(b0 + step, bsz)) for b0 in range(0, bsz, step)]


def _conv_fwd(xph: np.ndarray, kd: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Gather: the [B,Co,ho,wo] correlation of a phased image [s*s, B, Ci, hq, wq].

    Block by block, the first tap's product goes straight into the output planes
    and every later tap's into one block-sized buffer that is then added on, over
    whole planes.  Both are zero past the run, so those cells, which the crop
    drops, add zeros.
    """
    ns, bsz, ci, hq, wq = xph.shape
    taps, nrun = _taps((hq, wq), kd, stride)
    flat = xph.reshape(ns, bsz, ci, hq * wq)
    out = np.zeros((bsz, kd.shape[0], hq * wq), dtype=xph.dtype)
    blocks = _blocks(bsz, hq * wq)
    tmp = np.zeros((blocks[0][1], kd.shape[0], hq * wq), dtype=xph.dtype)
    (p0, d0, k0), *rest = taps
    for b0, b1 in blocks:
        ob, tb = out[b0:b1], tmp[:b1 - b0]
        np.matmul(k0, flat[p0, b0:b1, :, d0:d0 + nrun], out=ob[:, :, :nrun])
        for p, d, k in rest:
            np.matmul(k, flat[p, b0:b1, :, d:d + nrun], out=tb[:, :, :nrun])
            ob += tb
    return np.ascontiguousarray(out.reshape(bsz, -1, hq, wq)[:, :, :ho, :wo])


def _conv_adj(gq: np.ndarray, kd: np.ndarray, stride: int, pad: int,
              oh: int, ow: int) -> np.ndarray:
    """Scatter, the adjoint of the gather: [B,Ci,oh,ow] from an image [B, Co, hq, wq]
    on the phase grid, added into every phase and interleaved back.

    Block by block, each tap's product over whole planes goes into one
    block-sized buffer that is added, as one contiguous run, onto its phase
    shifted by the tap's offset.  A plane's last ``offset`` cells thus land in
    the next plane (or in the plane of slack after the last phase), but they
    are products of cells past the run, where the image is zero, so they add
    zeros.  The tap matrices are those of the kernel with its channel axes
    swapped, [Ci, Co].  Taps run last to first, for the summation order the
    module docstring gives.
    """
    bsz, co, hq, wq = gq.shape
    ci, plane = kd.shape[1], hq * wq
    taps, _ = _taps((hq, wq), kd.transpose(1, 0, 2, 3), stride)
    flat = gq.reshape(bsz, co, plane)
    size = bsz * ci * plane
    buf = np.zeros(stride * stride * size + plane, dtype=gq.dtype)
    blocks = _blocks(bsz, plane)
    tmp = np.empty((blocks[0][1], ci, plane), dtype=gq.dtype)
    for b0, b1 in blocks:
        tb = tmp[:b1 - b0]
        for p, d, kt in reversed(taps):
            np.matmul(kt, flat[b0:b1], out=tb)
            r0 = p * size + b0 * ci * plane + d
            buf[r0:r0 + tb.size] += tb.ravel()
    out = buf[:stride * stride * size].reshape(stride * stride, bsz, ci, hq, wq)
    xe = np.empty((bsz, ci, oh, ow), dtype=gq.dtype)
    for p, (qi, qj), (yi, yj) in _phase_blocks(oh, ow, stride, pad):
        xe[:, :, yi, yj] = out[p, :, :, qi, qj]
    return xe


def _conv_kgrad(xph: np.ndarray, gq: np.ndarray, kd: np.ndarray, stride: int) -> np.ndarray:
    """Kernel gradient [Co,Ci,kh,kw] from the phased image and the phase-grid gradient.

    Each tap's [Co, n] @ [n, Ci] products over one block's planes go into a small
    buffer, summed over the block and added into that tap's accumulator, so the
    sum over the batch is grouped by plane and by block.
    """
    ns, bsz, ci, hq, wq = xph.shape
    co = gq.shape[1]
    taps, nrun = _taps((hq, wq), kd, stride)
    flat = xph.reshape(ns, bsz, ci, hq * wq)
    gflat = gq.reshape(bsz, co, hq * wq)
    dk = np.zeros((len(taps), co, ci), dtype=gq.dtype)
    blocks = _blocks(bsz, hq * wq)
    tmp = np.empty((len(taps), blocks[0][1], co, ci), dtype=gq.dtype)
    for b0, b1 in blocks:
        gb, tb = gflat[b0:b1, :, :nrun], tmp[:, :b1 - b0]
        for t, (p, d, _) in zip(tb, taps):
            np.matmul(gb, flat[p, b0:b1, :, d:d + nrun].transpose(0, 2, 1), out=t)
        dk += tb.sum(axis=1)
    return np.ascontiguousarray(dk.reshape(kd.shape[2:] + (co, ci)).transpose(2, 3, 0, 1))


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
    ho = _conv_out_extent(h, kd.shape[2], stride, pad, "conv2d")
    wo = _conv_out_extent(w, kd.shape[3], stride, pad, "conv2d")
    hq, wq = _phase_grid(h, stride, pad), _phase_grid(w, stride, pad)
    xph = _phases(xd, stride, pad, hq, wq)

    def bwd(g):
        gq = _phases(g, 1, 0, hq, wq)[0]
        return (_conv_adj(gq, kd, stride, pad, h, w), _conv_kgrad(xph, gq, kd, stride))

    return _record(Tensor(_conv_fwd(xph, kd, stride, ho, wo)), (x, k), bwd)


def conv2d_transpose(y: Tensor, k: Tensor, stride: int, pad: int,
                     out_hw: tuple[int, int]) -> Tensor:
    """Adjoint of :func:`conv2d` with the same (k, stride, pad), onto an ``out_hw`` grid.

    ``out_hw`` is the fine-grid extent, which a stride of 2 does not fix: it
    must be one that :func:`conv2d` maps onto ``y``'s extent.
    """
    if stride not in (1, 2):
        raise ValueError(f"conv2d_transpose: stride must be 1 or 2, got {stride}")
    yd = _spatial(y, "conv2d_transpose", k)
    kd = k.data
    if kd.ndim != 4 or kd.shape[0] != yd.shape[1]:
        raise ValueError(f"conv2d_transpose: kernel {kd.shape} incompatible with input {yd.shape}")
    kh, kw = kd.shape[2:]
    for n_out, n_in, kk in ((out_hw[0], yd.shape[2], kh), (out_hw[1], yd.shape[3], kw)):
        if _conv_out_extent(n_out, kk, stride, pad, "conv2d_transpose") != n_in:
            raise ValueError(
                f"conv2d_transpose: out_hw {out_hw} inconsistent with input {yd.shape[2:]} "
                f"under (k={kk}, stride={stride}, pad={pad})")
    oh, ow = out_hw
    hq, wq = _phase_grid(oh, stride, pad), _phase_grid(ow, stride, pad)

    def bwd(g):
        gph = _phases(g, stride, pad, hq, wq)
        dy = _conv_fwd(gph, kd, stride, yd.shape[2], yd.shape[3])
        return (dy, _conv_kgrad(gph, _phases(yd, 1, 0, hq, wq)[0], kd, stride))

    return _record(Tensor(_conv_adj(_phases(yd, 1, 0, hq, wq)[0], kd, stride, pad, oh, ow)),
                   (y, k), bwd)
