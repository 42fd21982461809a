"""Dense real tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a float32 or float64 numpy array.  Operations on
tensors are pure functions, and each returns its output through ``_record``,
the one place where an op meets the tape: while a :class:`Tape` is active on
the calling thread it builds the op's backward rule and appends a record
(output key, input keys, rule) in execution order, which is already a valid
topological order; with no tape open it builds no rule.  Each tensor
carries a ``key`` unique in the process, and a record holds keys, not tensors,
so a tape holds no tensor at all: an op's output lives only as long as a
Python name or a rule closure holds it, and one that no rule reads is freed
in the forward pass once the caller drops it.  A rule keeps one copy of what it
reads: ``add``, ``sub`` and ``tensor_sum`` keep no array, ``mul`` its two
inputs, ``sqrt`` its output and ``gelu`` its derivative, formed as its rule is
built (not its input); ``pointwise_linear`` keeps its input and weight, and both
convolutions keep their unpadded input and kernel and phase the input again in
backward, so a layer input that several rules read is held once.
Each thread has at most one open tape (a second raises), so two threads can
each record a forward pass at once, and an op on a thread with no open tape
records nothing whatever other threads have open.  ``tape.backward(loss)`` replays
the records in reverse and returns the gradient of every leaf the loss
reaches (a tensor that no op on the tape produced, such as a parameter or a
tensor made outside the tape), keyed by the leaf's ``key``; a leaf used
several times receives the sum of its per-use gradients.  The pass pops each
record as its rule runs and drops that record's output gradient once the rule
has it, so every activation the rule closes over and every intermediate
gradient is freed during the pass, not at its end.  A :class:`Parameter` is a
Tensor with a name and enters every op as itself; its ``grad``, which the
training loop sets from the gradients a backward pass returns, is the only
gradient a tensor carries.

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
Each map makes one batched GEMM per tap over the whole batch it is given,
which in training and inference is one piece of a batch
(``operators._two_shards``).
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
from scipy.special import erf

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_KEYS = itertools.count()


class Tensor:
    """N-dimensional real array, immutable by convention once created.

    ``data`` is the caller's float32 or float64 array, taken as given
    (``np.asarray``, no cast); ``key`` is unique in the process, and a tape and
    its gradients name the tensor by it.
    """

    __slots__ = ("data", "key")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.key = next(_KEYS)

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


class Parameter(Tensor):
    """Trainable tensor with a name; the name keys it in checkpoints.

    An optimizer step rebinds ``data`` and reads ``grad``, which the training
    loop sets from the gradients that :meth:`Tape.backward` returns.
    """

    __slots__ = ("name", "grad")

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = None

    @property
    def value(self):
        """The parameter itself; an alias kept for the scripts in ``perfbench/``."""
        return self

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around a forward pass; call
    ``tape.backward(loss)`` once afterwards.  A tape records the ops of the
    thread that opened it, which may have no other tape open (``__enter__``
    raises ``RuntimeError``).  A record is ``(output key, input keys, rule)``,
    so the tape holds no tensor.  A tape is emptied by its backward pass and
    cannot be replayed.
    """

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        if getattr(_THREAD, "tape", None) is not None:
            raise RuntimeError("this thread already has a tape open")
        _THREAD.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.tape = None
        return False

    def record(self, out: Tensor, inputs, backward_fn):
        self._nodes.append((out.key, tuple(t.key for t in inputs), backward_fn))

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of ``loss`` keyed by :attr:`Tensor.key`, one array per leaf.

        The leaves are the tensors that the loss reaches and that no record on
        this tape produced (the loss itself when no record did).  Each record
        is popped before its rule runs and its output gradient leaves the
        table, so both are freed as the pass goes and the table left at the
        end holds the leaves' gradients.  A rule must return one gradient per
        input.  Each leaf gets an array of its own: a rule may pass one array to
        several inputs (``add`` returns ``(g, g)``), so an array already stored
        under another leaf is copied, once, at the end of the pass, and a caller
        may write into one leaf's gradient without changing another's.
        """
        if self._consumed:
            raise RuntimeError("tape already consumed by a previous backward pass")
        if loss.data.ndim != 0:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        grads = {loss.key: np.ones((), dtype=loss.data.dtype)}
        nodes = self._nodes
        while nodes:
            out, inputs, backward_fn = nodes.pop()
            g = grads.pop(out, None)
            if g is None:
                continue
            for k, dt in zip(inputs, backward_fn(g), strict=True):
                grads[k] = grads[k] + dt if k in grads else dt
        stored = set()
        for k, g in grads.items():
            if id(g) in stored:
                grads[k] = g.copy()
            else:
                stored.add(id(g))
        return grads


_THREAD = threading.local()   # .tape: the thread's open tape; unset or None when it has none


def _record(out: Tensor, inputs, make_rule) -> Tensor:
    """Record ``out = op(*inputs)`` on the calling thread's active tape, if any, with
    the backward rule that ``make_rule()`` builds, and return ``out``.  Every
    differentiable op returns through here.  With no tape open ``make_rule`` is
    not called, so an op forms nothing that only its rule reads."""
    tape = getattr(_THREAD, "tape", None)
    if tape is not None:
        tape.record(out, inputs, make_rule())
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _record(Tensor(a.data + b.data), (a, b), lambda: lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _record(Tensor(a.data - b.data), (a, b), lambda: lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record(Tensor(ad * bd), (a, b), lambda: lambda g: (g * bd, g * ad))


def scale(a: Tensor, s: float) -> Tensor:
    """``s * a`` for a Python scalar ``s``, taken in ``a``'s dtype.

    No porolab code calls it.  It stays because the benchmark's per-layer
    metrics list ``tensor.scale`` as a span and
    ``tests/test_benchmark_tracing.py`` fails on a listed span that is
    missing; it goes with the next benchmark change.
    """
    s = a.data.dtype.type(s)
    return _record(Tensor(a.data * s), (a,), lambda: lambda g: (g * s,))


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

    return _record(Tensor(a.data.sum(axis=axes)), (a,), lambda: bwd)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    # d sqrt(a)/da = 0.5 / sqrt(a), taken as 0 where sqrt(a) is 0 (an exact fit)
    # so that one zero does not make every gradient inf or NaN
    return _record(Tensor(out_data), (a,),
                   lambda: lambda g: (g * np.divide(0.5, out_data, where=out_data > 0,
                                                    out=np.zeros_like(out_data)),))


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: x * Phi(x).

    The derivative ``Phi(x) + x phi(x)`` is formed when the rule is built, so
    only under an open tape, and it is all the rule keeps: one array of the
    input's shape.  Where ``x * x`` overflows, ``x phi(x)`` comes out 0 and the
    derivative Phi(x); at an infinite x it is NaN.  Neither raises a
    floating-point warning.
    """
    xd = x.data
    phi_cdf = xd * xd.dtype.type(_SQRT1_2)
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5

    def rule():
        with np.errstate(over="ignore", invalid="ignore"):
            d = xd * xd
            d *= -0.5
            np.exp(d, out=d)
            d *= xd.dtype.type(_INV_SQRT_2PI)
            d *= xd
        d += phi_cdf
        return lambda g: (d * g,)

    return _record(Tensor(xd * phi_cdf), (x,), rule)


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

    return _record(Tensor((ad[tuple(hi)] - ad[tuple(lo)]) * inv_h), (a,), lambda: bwd)


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
        out_data += bias.data[:, None, None]

    def bwd(g):
        gm = g.reshape(b, co, h * wd_)
        dx = np.matmul(wd.T, gm).reshape(b, c, h, wd_)
        dw = np.matmul(gm, xd.reshape(b, c, h * wd_).transpose(0, 2, 1)).sum(axis=0)
        if bias is None:
            return (dx, dw)
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return _record(Tensor(out_data), (x, w) if bias is None else (x, w, bias), lambda: bwd)


def _conv_geometry(op: str, fine_hw, kernel, stride: int, pad: int):
    """Coarse extents ``(n + 2*pad - k)//stride + 1`` of a ``kernel``-sized convolution
    of a ``fine_hw`` image, and the [hq, wq] extents of that image's padded phases."""
    if stride not in (1, 2):
        raise ValueError(f"{op}: stride must be 1 or 2, got {stride}")
    coarse, grid = [], []
    for n, k in zip(fine_hw, kernel):
        n += 2 * pad
        if n < k:
            raise ValueError(f"{op}: kernel {k} larger than padded extent {n}")
        coarse.append((n - k) // stride + 1)
        grid.append(-(-n // stride))
    return tuple(coarse), tuple(grid)


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


def _conv_fwd(xph: np.ndarray, kd: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Gather: the [B,Co,ho,wo] correlation of a phased image [s*s, B, Ci, hq, wq].

    The first tap's product goes straight into the output planes and every later
    tap's into one buffer that is then added on, over whole planes.  Both are
    zero past the run, so those cells, which the crop drops, add zeros.
    """
    ns, bsz, ci, hq, wq = xph.shape
    taps, nrun = _taps((hq, wq), kd, stride)
    flat = xph.reshape(ns, bsz, ci, hq * wq)
    out = np.zeros((bsz, kd.shape[0], hq * wq), dtype=xph.dtype)
    tmp = np.zeros_like(out)
    (p0, d0, k0), *rest = taps
    np.matmul(k0, flat[p0, :, :, d0:d0 + nrun], out=out[:, :, :nrun])
    for p, d, k in rest:
        np.matmul(k, flat[p, :, :, d:d + nrun], out=tmp[:, :, :nrun])
        out += tmp
    return np.ascontiguousarray(out.reshape(bsz, kd.shape[0], hq, wq)[:, :, :ho, :wo])


def _conv_adj(gq: np.ndarray, kd: np.ndarray, stride: int, pad: int,
              oh: int, ow: int) -> np.ndarray:
    """Scatter, the adjoint of the gather: [B,Ci,oh,ow] from an image [B, Co, hq, wq]
    on the phase grid, added into every phase and interleaved back.

    Each tap's product over whole planes goes into one buffer that is added, as
    one contiguous run, onto its phase shifted by the tap's offset.  A plane's
    last ``offset`` cells thus land in the next plane (or in the plane of slack
    after the last phase), but they are products of cells past the run, where
    the image is zero, so they add zeros.  The tap matrices are those of the
    kernel with its channel axes swapped, [Ci, Co].  Taps run last to first,
    for the summation order the module docstring gives.
    """
    bsz, co, hq, wq = gq.shape
    ci, plane = kd.shape[1], hq * wq
    taps, _ = _taps((hq, wq), kd.transpose(1, 0, 2, 3), stride)
    flat = gq.reshape(bsz, co, plane)
    size = bsz * ci * plane
    buf = np.zeros(stride * stride * size + plane, dtype=gq.dtype)
    tmp = np.empty((bsz, ci, plane), dtype=gq.dtype)
    for p, d, kt in reversed(taps):
        np.matmul(kt, flat, out=tmp)
        buf[p * size + d:p * size + d + size] += tmp.ravel()
    out = buf[:stride * stride * size].reshape(stride * stride, bsz, ci, hq, wq)
    xe = np.empty((bsz, ci, oh, ow), dtype=gq.dtype)
    for p, (qi, qj), (yi, yj) in _phase_blocks(oh, ow, stride, pad):
        xe[:, :, yi, yj] = out[p, :, :, qi, qj]
    return xe


def _conv_kgrad(xph: np.ndarray, gq: np.ndarray, kd: np.ndarray, stride: int) -> np.ndarray:
    """Kernel gradient [Co,Ci,kh,kw] from the phased image and the phase-grid gradient.

    Each tap's [Co, n] @ [n, Ci] products, one per plane, are summed over the batch.
    """
    ns, bsz, ci, hq, wq = xph.shape
    co = gq.shape[1]
    taps, nrun = _taps((hq, wq), kd, stride)
    flat = xph.reshape(ns, bsz, ci, hq * wq)
    g = gq.reshape(bsz, co, hq * wq)[:, :, :nrun]
    tmp = np.empty((len(taps), bsz, co, ci), dtype=gq.dtype)
    for t, (p, d, _) in zip(tmp, taps):
        np.matmul(g, flat[p, :, :, d:d + nrun].transpose(0, 2, 1), out=t)
    dk = tmp.sum(axis=1)
    return np.ascontiguousarray(dk.reshape(kd.shape[2:] + (co, ci)).transpose(2, 3, 0, 1))


def conv2d(x: Tensor, k: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation with zero padding.

    x: [B,Ci,H,W]; k: [Co,Ci,kh,kw]; output extent (n + 2*pad - k)//stride + 1.
    The rule keeps ``x``'s own array, not its padded phases, and phases it again
    for the kernel gradient, as :func:`conv2d_transpose` does with its input.
    """
    xd = _spatial(x, "conv2d", k)
    kd = k.data
    if kd.ndim != 4 or kd.shape[1] != xd.shape[1]:
        raise ValueError(f"conv2d: kernel {kd.shape} incompatible with input {xd.shape}")
    h, w = xd.shape[2:]
    (ho, wo), (hq, wq) = _conv_geometry("conv2d", (h, w), kd.shape[2:], stride, pad)

    def bwd(g):
        gq = _phases(g, 1, 0, hq, wq)[0]
        return (_conv_adj(gq, kd, stride, pad, h, w),
                _conv_kgrad(_phases(xd, stride, pad, hq, wq), gq, kd, stride))

    return _record(Tensor(_conv_fwd(_phases(xd, stride, pad, hq, wq), kd, stride, ho, wo)),
                   (x, k), lambda: bwd)


def conv2d_transpose(y: Tensor, k: Tensor, stride: int, pad: int,
                     out_hw: tuple[int, int]) -> Tensor:
    """Adjoint of :func:`conv2d` with the same (k, stride, pad), onto an ``out_hw`` grid.

    ``out_hw`` is the fine-grid extent, which a stride of 2 does not fix: it
    must be one that :func:`conv2d` maps onto ``y``'s extent.
    """
    yd = _spatial(y, "conv2d_transpose", k)
    kd = k.data
    if kd.ndim != 4 or kd.shape[0] != yd.shape[1]:
        raise ValueError(f"conv2d_transpose: kernel {kd.shape} incompatible with input {yd.shape}")
    coarse, (hq, wq) = _conv_geometry("conv2d_transpose", out_hw, kd.shape[2:], stride, pad)
    if coarse != yd.shape[2:]:
        raise ValueError(
            f"conv2d_transpose: out_hw {out_hw} inconsistent with input {yd.shape[2:]} "
            f"under (k={kd.shape[2:]}, stride={stride}, pad={pad})")

    def bwd(g):
        gph = _phases(g, stride, pad, hq, wq)
        dy = _conv_fwd(gph, kd, stride, yd.shape[2], yd.shape[3])
        return (dy, _conv_kgrad(gph, _phases(yd, 1, 0, hq, wq)[0], kd, stride))

    return _record(Tensor(_conv_adj(_phases(yd, 1, 0, hq, wq)[0], kd, stride, pad, *out_hw)),
                   (y, k), lambda: bwd)
