"""Autodiff core: elementwise ops, convolutions, pointwise maps, GELU, tape."""

import contextlib
import inspect
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import gradient_check
from porolab import tensor as T
from porolab.operators import spectral_conv
from porolab.tensor import Parameter, Tape, Tensor

rng = np.random.default_rng(42)


class TestElementwise:
    def test_add(self):
        assert np.array_equal(T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_mul_by_zero(self):
        x = Tensor(rng.standard_normal((3, 3)))
        assert np.array_equal(T.scale(x, 0.0).data, np.zeros((3, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_grad_of_sum_of_squares(self):
        # d/dx sum(x*x) = 2x
        x = Tensor([1.0, -2.0])
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(x, x))
        assert np.allclose(tape.backward(loss)[x.key], [2.0, -4.0])

    def test_determinism(self):
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        a = T.mul(Tensor(x), Tensor(y)).data
        b = T.mul(Tensor(x), Tensor(y)).data
        assert np.array_equal(a, b)

    def test_sqrt_gradient_at_zero_is_zero(self):
        # an exact fit makes a relative loss's numerator 0; its gradient must stay finite
        a = Tensor([0.0, 4.0])
        with Tape() as tape:
            loss = T.tensor_sum(T.sqrt(a))
        assert np.array_equal(tape.backward(loss)[a.key], [0.0, 0.25])


class TestConv2d:
    def test_single_pixel(self):
        x = Tensor(np.array([[[[5.0]]]]))
        k = Tensor(np.array([[[[3.0]]]]))
        assert T.conv2d(x, k).data[0, 0, 0, 0] == 15.0

    def test_identity_stencil(self):
        x = Tensor(rng.standard_normal((1, 1, 8, 8)))
        ident = np.zeros((1, 1, 3, 3))
        ident[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(ident), stride=1, pad=1)
        assert np.allclose(out.data, x.data)

    def test_two_by_two_direct(self):
        # hand arithmetic: 1*1 + 2*0 + 3*0 + 4*1 = 5
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        k = Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        out = T.conv2d(x, k, stride=1, pad=0)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 5.0

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ValueError, match="larger than padded extent"):
            T.conv2d(Tensor(rng.standard_normal((1, 1, 2, 2))),
                     Tensor(rng.standard_normal((1, 1, 5, 5))))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="incompatible with input"):
            T.conv2d(Tensor(rng.standard_normal((1, 3, 4, 4))),
                     Tensor(rng.standard_normal((1, 2, 3, 3))))

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose", "pointwise_linear"])
    def test_unbatched_input_rejected(self, op):
        x = Tensor(np.ones((1, 4, 4)))
        w = Tensor(np.ones((1, 1)) if op == "pointwise_linear" else np.ones((1, 1, 3, 3)))
        args = (1, 1, (4, 4)) if op == "conv2d_transpose" else ()
        with pytest.raises(ValueError, match=r"expected 4-D \[B,C,H,W\]"):
            getattr(T, op)(x, w, *args)


class TestConv2dTranspose:
    @pytest.mark.parametrize("stride,pad,b,out_hw", [
        (1, 0, 1, (8, 8)), (1, 1, 1, (8, 8)), (2, 0, 1, (8, 8)), (2, 1, 1, (8, 8)),
        (1, 0, 3, (7, 10)), (2, 1, 3, (9, 6)),
    ], ids=["1-0", "1-1", "2-0", "2-1", "1-0-b3-7x10", "2-1-b3-9x6"])
    def test_adjoint_identity(self, stride, pad, b, out_hw):
        # <conv(x), y> == <x, conv_transpose(y)> to near machine precision
        x = rng.standard_normal((b, 3) + out_hw)
        k = rng.standard_normal((2, 3, 3, 3))
        ax = T.conv2d(Tensor(x), Tensor(k), stride, pad).data
        y = rng.standard_normal(ax.shape)
        aty = T.conv2d_transpose(Tensor(y), Tensor(k), stride, pad, out_hw=out_hw).data
        lhs = float(np.sum(ax * y))
        rhs = float(np.sum(x * aty))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_stride2_impulse_stamps_kernel(self):
        y = np.zeros((1, 1, 2, 2))
        y[0, 0, 1, 1] = 1.0
        k = rng.standard_normal((1, 1, 3, 3))
        out = T.conv2d_transpose(Tensor(y), Tensor(k), 2, 0, (5, 5)).data[0, 0]
        expected = np.zeros((5, 5))
        expected[2:5, 2:5] = k[0, 0]
        assert np.allclose(out, expected)

    def test_zero_input(self):
        out = T.conv2d_transpose(Tensor(np.zeros((1, 2, 4, 4))),
                                 Tensor(rng.standard_normal((2, 3, 3, 3))), 2, 1, (7, 7))
        assert not out.data.any()

    def test_inconsistent_out_hw_raises(self):
        with pytest.raises(ValueError):
            T.conv2d_transpose(Tensor(rng.standard_normal((1, 1, 4, 4))),
                               Tensor(rng.standard_normal((1, 1, 3, 3))),
                               stride=2, pad=1, out_hw=(128, 128))

    def test_kernel_larger_than_output_names_the_op(self):
        with pytest.raises(ValueError, match="conv2d_transpose: kernel 3 larger than padded"):
            T.conv2d_transpose(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.ones((1, 1, 3, 3))),
                               1, 0, out_hw=(1, 1))


class TestStridePhases:
    """Stride 2 is stride 1 kept (gather) or fed (scatter) at every second pixel,
    bit for bit: this pins each tap to its phase and its place in the sum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(8, 8), (9, 7), (9, 6), (16, 5), (64, 64)],
                             ids=["8x8", "9x7", "9x6", "16x5", "64x64"])
    def test_stride2_is_subsampled_stride1(self, dtype, hw):
        for pad in (0, 1):
            for kk in ((3, 3), (2, 2), (3, 2), (1, 3)):
                x = rng.standard_normal((2, 3) + hw).astype(dtype)
                k = Tensor(rng.standard_normal((4, 3) + kk).astype(dtype))
                full = T.conv2d(Tensor(x), k, 1, pad).data
                assert np.array_equal(T.conv2d(Tensor(x), k, 2, pad).data,
                                      full[..., ::2, ::2]), (pad, kk)
                g = rng.standard_normal(full[..., ::2, ::2].shape).astype(dtype)
                stuffed = np.zeros_like(full)
                stuffed[..., ::2, ::2] = g
                assert np.array_equal(T.conv2d_transpose(Tensor(g), k, 2, pad, out_hw=hw).data,
                                      T.conv2d_transpose(Tensor(stuffed), k, 1, pad,
                                                         out_hw=hw).data), (pad, kk)


def conv_with_grads(op, x, k, stride, pad, out_hw):
    """Output, input gradient and kernel gradient of sum(op(x, k)**2)."""
    xt, kt = Tensor(x), Tensor(k)
    extra = () if op is T.conv2d else (out_hw,)
    with Tape() as tape:
        y = op(xt, kt, stride, pad, *extra)
        loss = T.tensor_sum(T.mul(y, y))
    grads = tape.backward(loss)
    return y.data, grads[xt.key], grads[kt.key]


class TestPixelBlocks:
    """The maps take whatever batch they are given, and the two-shard runner hands
    them a batch split in two; so a batch cut into blocks of whole phase planes, one
    plane per batch entry, must give the same bits as the whole.  Blocks of one
    plane split the batch of three 1+1+1, blocks of two planes make the runner's
    2+1 split.  Outputs and input gradients are the same bits in any split; the
    kernel gradient's sum over the batch is only regrouped."""

    @pytest.mark.parametrize("planes", [1, 2], ids=["1", "2planes"])
    @pytest.mark.parametrize("dtype,ktol", [(np.float32, 2e-6), (np.float64, 1e-14)],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("hw", [(8, 8), (9, 7), (16, 5)], ids=["8x8", "9x7", "16x5"])
    @pytest.mark.parametrize("op", [T.conv2d, T.conv2d_transpose],
                             ids=["conv2d", "conv2d_transpose"])
    def test_blocks_match_one_block(self, op, hw, dtype, ktol, planes):
        r = np.random.default_rng(11)
        k = r.standard_normal((4, 3, 3, 3)).astype(dtype)
        cuts = list(range(planes, 3, planes))
        for stride in (1, 2):
            for pad in (0, 1):
                if op is T.conv2d:
                    x = r.standard_normal((3, 3) + hw).astype(dtype)
                else:
                    x = r.standard_normal((3, 4) + tuple(
                        (n + 2 * pad - 3) // stride + 1 for n in hw)).astype(dtype)
                whole = conv_with_grads(op, x, k, stride, pad, hw)
                parts = [conv_with_grads(op, xs, k, stride, pad, hw) for xs in np.split(x, cuts)]
                y, dx = (np.concatenate([p[i] for p in parts]) for i in (0, 1))
                dk = sum(p[2] for p in parts)
                assert np.array_equal(y, whole[0]), (stride, pad)
                assert np.array_equal(dx, whole[1]), (stride, pad)
                assert dk.dtype == dtype
                assert np.max(np.abs(dk - whole[2])) <= ktol * np.max(np.abs(whole[2])), \
                    (stride, pad)


def loop_conv(x, k, stride, pad, g):
    """Explicit tap and pixel loops: the output of conv2d(x, k) and the input and
    kernel gradients of sum(conv2d(x, k) * g)."""
    h, w = x.shape[2:]
    kh, kw = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros(g.shape, dtype=x.dtype)
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for u in range(kh):
        for v in range(kw):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    r, c = stride * i + u, stride * j + v
                    y[:, :, i, j] += xp[:, :, r, c] @ k[:, :, u, v].T
                    dxp[:, :, r, c] += g[:, :, i, j] @ k[:, :, u, v]
                    dk[:, :, u, v] += g[:, :, i, j].T @ xp[:, :, r, c]
    return y, dxp[:, :, pad:pad + h, pad:pad + w], dk


class TestConvReference:
    """Output, input gradient and kernel gradient of both ops against explicit
    loops, bit for bit.  Small-integer data make every sum exact in float32 and
    float64, so no summation order can hide a wrong tap, phase or offset; one
    channel on either side covers numpy's matrix-vector products."""

    @staticmethod
    def _check(op, dtype, ints, stride, pad, kk, hw, ci, co):
        k = ints.integers(-3, 4, (co, ci) + kk).astype(dtype)
        coarse_hw = tuple((n + 2 * pad - q) // stride + 1 for n, q in zip(hw, kk))
        fine = ints.integers(-3, 4, (2, ci) + hw).astype(dtype)
        coarse = ints.integers(-3, 4, (2, co) + coarse_hw).astype(dtype)
        y, dx, dk = loop_conv(fine, k, stride, pad, coarse)
        x_in, g_out, want = ((fine, coarse, (y, dx, dk)) if op == "conv2d"
                             else (coarse, fine, (dx, y, dk)))
        xt, kt = Tensor(x_in), Tensor(k)
        extra = () if op == "conv2d" else (hw,)
        with Tape() as tape:
            out = getattr(T, op)(xt, kt, stride, pad, *extra)
            loss = T.tensor_sum(T.mul(out, Tensor(g_out)))
        grads = tape.backward(loss)
        for name, got, ref in zip(("output", "input grad", "kernel grad"),
                                  (out.data, grads[xt.key], grads[kt.key]), want):
            assert got.dtype == dtype and np.array_equal(got, ref), (name, stride, pad, kk)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("ci,co", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 4)],
                             ids=["1to1", "1to4", "3to1", "2to3", "4to4"])
    @pytest.mark.parametrize("hw", [(9, 7), (8, 5)], ids=["9x7", "8x5"])
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose"])
    def test_matches_loops(self, op, hw, ci, co, dtype):
        ints = np.random.default_rng(7)
        for stride in (1, 2):
            for pad in (0, 1):
                for kk in ((3, 3), (2, 2), (1, 3)):
                    self._check(op, dtype, ints, stride, pad, kk, hw, ci, co)

    # kernels up to 5x5, pad 2 and rectangular or odd grids, which catch flat-offset
    # windows that wrap across a row or into the next batch entry
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("stride,pad,kk,hw", [
        (1, 0, (3, 3), (8, 8)), (1, 1, (3, 3), (8, 8)), (2, 1, (3, 3), (8, 8)),
        (2, 0, (2, 2), (8, 8)), (2, 1, (4, 4), (8, 8)), (1, 2, (5, 5), (8, 8)),
        (1, 1, (2, 3), (7, 11)), (2, 0, (3, 2), (9, 6)), (2, 1, (1, 3), (16, 5)),
    ], ids=["1-0-3", "1-1-3", "2-1-3", "2-0-2", "2-1-4", "1-2-5",
            "1-1-2x3-7x11", "2-0-3x2-9x6", "2-1-1x3-16x5"])
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose"])
    def test_geometry_matches_loops(self, op, stride, pad, kk, hw, dtype):
        self._check(op, dtype, np.random.default_rng(8), stride, pad, kk, hw, 3, 4)


class TestPointwiseLinear:
    def test_identity(self):
        x = rng.standard_normal((1, 3, 4, 4))
        out = T.pointwise_linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x)

    def test_direct_arithmetic(self):
        # pixel (1, 2), w = [[1, 1]], bias = [1] -> 4
        x = np.zeros((1, 2, 1, 1))
        x[0, 0], x[0, 1] = 1.0, 2.0
        out = T.pointwise_linear(Tensor(x), Tensor([[1.0, 1.0]]), Tensor([1.0]))
        assert out.data[0, 0, 0, 0] == 4.0

    def test_gradient(self):
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        w = Tensor(rng.standard_normal((5, 3)))
        b = Tensor(rng.standard_normal(5))
        err = gradient_check(
            lambda: T.tensor_sum(T.mul(out := T.pointwise_linear(x, w, b), out)),
            [x, w, b], tol=1e-6)
        assert err < 1e-6


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_saturates_to_identity(self):
        # math.erf is the stdlib oracle for the exact-erf form
        expected = 0.5 * 10.0 * (1.0 + math.erf(10.0 / math.sqrt(2.0)))
        got = T.gelu(Tensor([10.0])).data[0]
        assert abs(got - expected) < 1e-12
        assert abs(got - 10.0) < 1e-6

    def test_derivative_at_zero(self):
        x = Tensor([0.0])
        with Tape() as tape:
            loss = T.tensor_sum(T.gelu(x))
        assert np.allclose(tape.backward(loss)[x.key], [0.5])

    @pytest.mark.parametrize("dtype,big", [(np.float32, 3e38), (np.float64, 1e300)])
    def test_silent_at_the_dtype_extremes(self, dtype, big):
        # x * x overflows in the derivative that a taped forward forms; the
        # forward stays as silent as x * Phi(x) is, under warnings-as-errors
        edges = np.array([big, -big, np.inf], dtype=dtype)
        assert np.array_equal(T.gelu(Tensor(edges)).data, np.maximum(edges, 0))
        x = Tensor(edges)
        with Tape() as tape:
            out = T.gelu(x)
            loss = T.tensor_sum(out)
        assert np.array_equal(out.data, np.maximum(edges, 0))
        grad = tape.backward(loss)[x.key]
        assert np.array_equal(grad[:2], [1.0, 0.0]) and np.isnan(grad[2])

    def test_derivative_formed_only_under_a_tape(self):
        # with no tape open gelu builds no rule, so it allocates Phi(x) and its
        # output and no third array for the derivative; the output bits agree
        x = Tensor(np.random.default_rng(3).standard_normal(100_000))
        peaks, outs = [], []
        for tape in (contextlib.nullcontext(), Tape()):
            tracemalloc.start()
            try:
                with tape:
                    outs.append(T.gelu(x).data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.5 * x.data.nbytes and peaks[1] >= 3 * x.data.nbytes
        assert np.array_equal(*outs)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            loss = T.tensor_sum(p)
        assert np.array_equal(tape.backward(loss)[p.key], np.ones((3, 3)))

    def test_composite_conv_gelu_sum(self):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        gradient_check(lambda: T.tensor_sum(T.gelu(T.conv2d(x, k, 1, 1))),
                       [x, k], tol=1e-6)

    def test_reused_tensor_accumulates(self):
        # loss = <p, a> + <p, b>  =>  grad = a + b
        p = Tensor(np.array([1.0, 2.0]))
        a, b = np.array([3.0, 4.0]), np.array([10.0, 20.0])
        with Tape() as tape:
            loss = T.add(T.tensor_sum(T.mul(p, Tensor(a))),
                         T.tensor_sum(T.mul(p, Tensor(b))))
        assert np.allclose(tape.backward(loss)[p.key], a + b)

    def test_non_scalar_loss_raises(self):
        x = Tensor(rng.standard_normal(3))
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_tape_consumed_twice_raises(self):
        x = Tensor(rng.standard_normal(3))
        with Tape() as tape:
            loss = T.tensor_sum(x)
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_backward_writes_no_grad(self):
        # gradients come back in the returned dict; a parameter's grad is the
        # training loop's to set, and backward leaves it as it was
        p = Parameter(rng.standard_normal((2, 2)), "w")
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(p, p))
        grads = tape.backward(loss)
        assert p.grad is None and not hasattr(loss, "grad")
        assert np.array_equal(grads[p.key], 2.0 * p.data)

    def test_record_the_loss_does_not_reach_is_skipped(self):
        x = Tensor(rng.standard_normal((2, 3)))
        with Tape() as tape:
            T.gelu(x)
            loss = T.tensor_sum(T.mul(x, x))
        grads = tape.backward(loss)
        assert grads.keys() == {x.key} and np.array_equal(grads[x.key], 2.0 * x.data)

    def test_leaves_get_arrays_of_their_own(self):
        # add's rule passes one array to both inputs; writing into one leaf's
        # gradient must leave the other's as it was
        a, b = Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0]))
        c = Tensor(np.array([5.0, 6.0]))
        with Tape() as tape:
            s = T.add(a, b)
            loss = T.tensor_sum(T.mul(s, c))
        grads = tape.backward(loss)
        assert not np.shares_memory(grads[a.key], grads[b.key])
        grads[a.key] += 1.0
        assert np.array_equal(grads[b.key], c.data)
        assert np.array_equal(grads[a.key], c.data + 1.0)

    def test_backward_returns_exactly_the_leaves(self):
        # leaves: tensors that entered an op on the tape but that no op on it produced
        r = np.random.default_rng(3)
        x, c = Tensor(r.standard_normal((1, 2, 4, 4))), Tensor(r.standard_normal((1, 3, 4, 4)))
        w = Parameter(r.standard_normal((3, 2)), "w")
        with Tape() as tape:
            h = T.gelu(T.pointwise_linear(x, w))
            loss = T.tensor_sum(T.mul(T.sub(h, c), h))
        grads = tape.backward(loss)
        assert grads.keys() == {x.key, w.key, c.key}
        assert all(grads[t.key].shape == t.shape for t in (x, w, c))

    def test_backward_frees_what_it_has_used(self):
        # by the time the first-recorded rule runs, the last-recorded node's
        # output gradient and the activation its rule closed over are unreferenced
        refs = {}

        def last_node(y):
            act = y.data * 3.0
            refs["act"] = weakref.ref(act)

            def rule(g):
                refs["g"] = weakref.ref(g)
                return (g * act,)
            return T._record(Tensor((y.data * act).sum()), (y,), lambda: rule)

        def first_rule(g):
            refs["dead"] = (refs["g"]() is None, refs["act"]() is None)
            return (g * 2.0,)

        x = Tensor(np.arange(3.0))
        with Tape() as tape:
            loss = last_node(T._record(Tensor(x.data * 2.0), (x,), lambda: first_rule))
        grads = tape.backward(loss)
        assert refs["dead"] == (True, True)
        assert np.array_equal(grads[x.key], 12.0 * x.data)

    def test_miscounted_rule_raises(self):
        # a rule gives one gradient per input; one too few is an
        # error, not a gradient dropped without a word
        x, y = Tensor(np.arange(3.0)), Tensor(np.ones(3))
        with Tape() as tape:
            loss = T.tensor_sum(T._record(Tensor(x.data * y.data), (x, y), lambda: lambda g: (g,)))
        with pytest.raises(ValueError):
            tape.backward(loss)

    def test_unread_intermediate_is_freed_before_backward(self):
        # no rule reads sub's output (gelu's rule keeps its derivative, not its
        # input), so once the caller drops it nothing keeps it alive, and the
        # gradients are those of the same pass with the caller holding it
        r = np.random.default_rng(11)
        a, b = Tensor(r.standard_normal((2, 3, 6, 6))), Tensor(r.standard_normal((2, 3, 6, 6)))
        k = Tensor(r.standard_normal((4, 3, 3, 3)))

        def grads(hold):
            held = []
            with Tape() as tape:
                d = T.sub(a, b)
                ref = weakref.ref(d.data)
                if hold:
                    held.append(d)
                z = T.conv2d(T.gelu(d), k, 1, 1)
                del d
                loss = T.tensor_sum(z)
            assert (ref() is not None) == hold
            return tape.backward(loss)

        dropped, held = grads(False), grads(True)
        assert dropped.keys() == held.keys() == {a.key, b.key, k.key}
        assert all(np.array_equal(dropped[t.key], held[t.key]) for t in (a, b, k))


def _conv_pass(x, k):
    """Forward of a small conv/GELU net under the calling thread's tape."""
    return T.tensor_sum(T.gelu(T.conv2d(T.gelu(T.conv2d(x, k, 1, 1)), k, 2, 1)))


class TestTapePerThread:
    def test_threads_match_the_same_passes_in_turn(self):
        # more threads than cores and a short switch interval, so that the
        # threads' ops interleave while every tape is open
        r = np.random.default_rng(5)
        inputs = [(Tensor(r.standard_normal((2, 3, 8, 8))),
                   Tensor(r.standard_normal((3, 3, 3, 3)) * 0.3)) for _ in range(4)]
        in_turn = []
        for x, k in inputs:
            with Tape() as tape:
                loss = _conv_pass(x, k)
            in_turn.append((loss.data, tape.backward(loss)))
        barrier = threading.Barrier(len(inputs), timeout=60)
        threaded = [None] * len(inputs)

        def run(i):
            x, k = inputs[i]
            with Tape() as tape:
                barrier.wait()
                loss = _conv_pass(x, k)
                barrier.wait()
            threaded[i] = (loss.data, tape.backward(loss))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (x, k), (loss_a, grads_a), (loss_b, grads_b) in zip(inputs, in_turn, threaded):
            assert loss_a == loss_b and grads_a.keys() == grads_b.keys() == {x.key, k.key}
            assert np.array_equal(grads_a[x.key], grads_b[x.key])
            assert np.array_equal(grads_a[k.key], grads_b[k.key])

    def test_op_on_a_thread_without_a_tape_records_nothing(self):
        a, b = Tensor(np.arange(4.0)), Tensor(np.ones(4))
        out = []
        with Tape() as tape:
            worker = threading.Thread(target=lambda: out.append(T.mul(a, b)))
            worker.start()
            worker.join(timeout=60)
            (c,) = out
            loss = T.tensor_sum(c)
        # the worker's product entered the tape as a leaf, not as a recorded op
        grads = tape.backward(loss)
        assert grads.keys() == {c.key}
        assert np.array_equal(grads[c.key], np.ones(4))

    def test_second_tape_on_a_thread_raises_and_the_first_still_records(self):
        # d/dw of w*x + (w*x)*w at w=2, x=3 is x + 2*w*x = 15; an inner tape that
        # took the ops recorded while it was open would leave the outer tape a 3
        w, x = Tensor(np.array(2.0)), Tensor(np.array(3.0))
        with Tape() as tape:
            wx = T.mul(w, x)
            with pytest.raises(RuntimeError, match="already has a tape open"):
                with Tape():
                    pass
            loss = T.add(wx, T.mul(wx, w))
        assert tape.backward(loss)[w.key] == 15.0


class TestGradientSuite:
    """Every differentiable primitive against central finite differences."""

    @pytest.mark.parametrize("name,build,shapes", [
        ("add", lambda a, b: T.tensor_sum(T.mul(s := T.add(a, b), s)), [(3, 4), (3, 4)]),
        ("sub", lambda a, b: T.tensor_sum(T.mul(s := T.sub(a, b), s)), [(3, 4), (3, 4)]),
        ("mul", lambda a, b: T.tensor_sum(T.mul(a, b)), [(3, 4), (3, 4)]),
        ("scale", lambda a: T.tensor_sum(T.mul(s := T.scale(a, 1.7), s)), [(3, 4)]),
        ("sqrt", lambda a: T.tensor_sum(
            T.sqrt(T.add(T.mul(a, a), Tensor(np.ones(a.shape))))), [(3, 4)]),
        ("gelu", lambda a: T.tensor_sum(T.gelu(a)), [(3, 4)]),
        ("sum_axes", lambda a: T.tensor_sum(
            T.mul(s := T.tensor_sum(a, axes=(1,)), s)), [(3, 4)]),
        ("forward_diff", lambda a: T.tensor_sum(
            T.mul(d := T.forward_diff(a, 1, 4.0), d)), [(3, 5)]),
    ])
    def test_primitive(self, name, build, shapes):
        tensors = [Tensor(rng.standard_normal(s)) for s in shapes]
        gradient_check(lambda: build(*tensors), tensors, tol=1e-4)

    @pytest.mark.parametrize("stride,pad,hw,kk", [
        (1, 1, (6, 6), (3, 3)), (2, 1, (6, 6), (3, 3)), (2, 0, (6, 6), (3, 3)),
        (2, 1, (5, 7), (2, 3)),
    ], ids=["1-1", "2-1", "2-0", "2-1-5x7-2x3"])
    def test_conv_gradients(self, stride, pad, hw, kk):
        x = Tensor(rng.standard_normal((2, 3) + hw))
        k = Tensor(rng.standard_normal((4, 3) + kk) * 0.4)
        gradient_check(
            lambda: T.tensor_sum(T.mul(c := T.conv2d(x, k, stride, pad), c)), [x, k], tol=1e-4)

    # out_hw (6, 6) is MgNO's even-grid prolongation, one row and column past
    # the smallest extent 5 that a stride-2 conv2d maps onto 3
    @pytest.mark.parametrize("stride,pad,hw,kk,out_hw", [
        (1, 1, (3, 3), (3, 3), (3, 3)), (2, 1, (3, 3), (3, 3), (5, 5)),
        (2, 1, (3, 5), (3, 2), (5, 8)), (2, 1, (3, 3), (3, 3), (6, 6)),
    ], ids=["1-1", "2-1", "2-1-3x5-3x2", "2-1-3x3-to-6x6"])
    def test_conv_transpose_gradients(self, stride, pad, hw, kk, out_hw):
        y = Tensor(rng.standard_normal((2, 4) + hw))
        k = Tensor(rng.standard_normal((4, 3) + kk) * 0.4)
        gradient_check(
            lambda: T.tensor_sum(T.mul(c := T.conv2d_transpose(y, k, stride, pad, out_hw), c)),
            [y, k], tol=1e-4)

    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_float32_stays_float32(self, op, stride):
        x = Tensor(rng.standard_normal((2, 3, 7, 6)).astype(np.float32))
        k = Tensor(rng.standard_normal((3, 3, 3, 3)).astype(np.float32))
        extra = () if op == "conv2d" else ((stride * 6 + 1, stride * 5 + 1),)
        with Tape() as tape:
            out = getattr(T, op)(x, k, stride, 1, *extra)
            loss = T.tensor_sum(T.mul(out, out))
        grads = tape.backward(loss)
        assert out.dtype == grads[x.key].dtype == grads[k.key].dtype == np.float32


def _arr(r, dtype, *shape):
    return Tensor(r.standard_normal(shape).astype(dtype))


# Every differentiable op, as (id, op, inputs built from a generator and a dtype).
RECORDED_OPS = [
    ("add", T.add, lambda r, d: (_arr(r, d, 3, 4), _arr(r, d, 3, 4))),
    ("sub", T.sub, lambda r, d: (_arr(r, d, 3, 4), _arr(r, d, 3, 4))),
    ("mul", T.mul, lambda r, d: (_arr(r, d, 3, 4), _arr(r, d, 3, 4))),
    ("scale", T.scale, lambda r, d: (_arr(r, d, 3, 4), -0.7)),
    ("tensor_sum", T.tensor_sum, lambda r, d: (_arr(r, d, 3, 4),)),
    ("tensor_sum_axes", T.tensor_sum, lambda r, d: (_arr(r, d, 2, 3, 4), (0, 2))),
    ("sqrt", T.sqrt, lambda r, d: (Tensor(np.abs(_arr(r, d, 3, 4).data)),)),
    ("gelu", T.gelu, lambda r, d: (_arr(r, d, 3, 4),)),
    ("forward_diff", T.forward_diff, lambda r, d: (_arr(r, d, 3, 5), 1, 4.0)),
    ("pointwise_linear", T.pointwise_linear,
     lambda r, d: (_arr(r, d, 2, 3, 5, 4), _arr(r, d, 4, 3))),
    ("pointwise_linear_bias", T.pointwise_linear,
     lambda r, d: (_arr(r, d, 2, 3, 5, 4), _arr(r, d, 4, 3), _arr(r, d, 4))),
    ("conv2d", T.conv2d, lambda r, d: (_arr(r, d, 2, 3, 7, 6), _arr(r, d, 4, 3, 3, 3), 1, 1)),
    ("conv2d_stride2", T.conv2d,
     lambda r, d: (_arr(r, d, 2, 3, 7, 6), _arr(r, d, 4, 3, 3, 3), 2, 1)),
    ("conv2d_transpose", T.conv2d_transpose,
     lambda r, d: (_arr(r, d, 2, 4, 4, 3), _arr(r, d, 4, 3, 3, 3), 2, 1, (8, 6))),
    ("spectral_conv", spectral_conv,
     lambda r, d: (_arr(r, d, 2, 3, 8, 8), _arr(r, d, 4, 3, 3, 3), _arr(r, d, 4, 3, 3, 3))),
]


class TestRecording:
    """Each op call records one tape node, the one the benchmark's ``tensor.tape.nodes``
    counts through ``Tape.record``, and computes the same bits with no tape active."""

    def test_every_op_is_listed(self):
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_")}
        assert {op.__name__ for _, op, _ in RECORDED_OPS} == ops | {"spectral_conv"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("op,build", [case[1:] for case in RECORDED_OPS],
                             ids=[case[0] for case in RECORDED_OPS])
    def test_one_node_per_call(self, op, build, dtype, monkeypatch):
        args = build(np.random.default_rng(5), dtype)
        seen = []
        record = Tape.record

        def counting(tape, out, inputs, backward_fn):
            seen.append(out)
            record(tape, out, inputs, backward_fn)

        monkeypatch.setattr(Tape, "record", counting)
        with Tape() as tape:
            out = op(*args)
        assert len(seen) == 1 and seen[0] is out
        assert len(tape._nodes) == 1 and tape._nodes[0][0] == out.key
        bare = op(*args)
        assert len(seen) == 1
        assert bare.dtype == out.dtype == dtype and np.array_equal(bare.data, out.data)
