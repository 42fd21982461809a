"""Autodiff core: elementwise ops, convolutions, pointwise maps, GELU, tape."""

import math

import numpy as np
import pytest

from conftest import gradient_check
from porolab import tensor as T
from porolab.tensor import Parameter, Tape, Tensor

rng = np.random.default_rng(42)


def naive_conv2d(x, k, stride, pad):
    """Direct-arithmetic convolution oracle (independent of the GEMM path)."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c, h, w = xp.shape
    co, _, kh, kw = k.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((b, co, ho, wo))
    for bi in range(b):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[bi, :, stride * i:stride * i + kh, stride * j:stride * j + kw]
                    out[bi, o, i, j] = np.sum(k[o] * patch)
    return out


class TestElementwise:
    def test_add(self):
        assert np.array_equal(T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_mul_by_zero(self):
        x = Tensor(rng.standard_normal((3, 3)))
        assert np.array_equal(T.mul(x, 0.0).data, np.zeros((3, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_grad_of_sum_of_squares(self):
        # d/dx sum(x*x) = 2x
        x = Tensor([1.0, -2.0])
        with Tape() as tape:
            loss = T.tensor_sum(T.mul(x, x))
        tape.backward(loss)
        assert np.allclose(x.grad, [2.0, -4.0])

    def test_determinism(self):
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        a = T.mul(Tensor(x), Tensor(y)).data
        b = T.mul(Tensor(x), Tensor(y)).data
        assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("stride,pad,kh", [(1, 0, 3), (1, 1, 3), (2, 1, 3),
                                               (2, 0, 2), (2, 1, 4), (1, 2, 5)])
    def test_matches_naive_oracle(self, stride, pad, kh):
        x = rng.standard_normal((2, 3, 8, 8))
        k = rng.standard_normal((4, 3, kh, kh))
        out = T.conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad)
        assert np.allclose(out.data, naive_conv2d(x, k, stride, pad), atol=1e-12)

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
        with pytest.raises(ValueError, match=r"expected 4-D \[B,C,H,W\]"):
            getattr(T, op)(x, w)


class TestConv2dTranspose:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_adjoint_identity(self, stride, pad):
        # <conv(x), y> == <x, conv_transpose(y)> to near machine precision
        x = rng.standard_normal((1, 3, 8, 8))
        k = rng.standard_normal((2, 3, 3, 3))
        ax = T.conv2d(Tensor(x), Tensor(k), stride, pad).data
        y = rng.standard_normal(ax.shape)
        aty = T.conv2d_transpose(Tensor(y), Tensor(k), stride, pad, out_hw=(8, 8)).data
        lhs = float(np.sum(ax * y))
        rhs = float(np.sum(x * aty))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_stride2_impulse_stamps_kernel(self):
        y = np.zeros((1, 1, 2, 2))
        y[0, 0, 1, 1] = 1.0
        k = rng.standard_normal((1, 1, 3, 3))
        out = T.conv2d_transpose(Tensor(y), Tensor(k), stride=2, pad=0).data[0, 0]
        expected = np.zeros((5, 5))
        expected[2:5, 2:5] = k[0, 0]
        assert np.allclose(out, expected)

    def test_zero_input(self):
        out = T.conv2d_transpose(Tensor(np.zeros((1, 2, 4, 4))),
                                 Tensor(rng.standard_normal((2, 3, 3, 3))), 2, 1)
        assert not out.data.any()

    def test_inconsistent_out_hw_raises(self):
        with pytest.raises(ValueError):
            T.conv2d_transpose(Tensor(rng.standard_normal((1, 1, 4, 4))),
                               Tensor(rng.standard_normal((1, 1, 3, 3))),
                               stride=2, pad=1, out_hw=(128, 128))


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
        tape.backward(loss)
        assert np.allclose(x.grad, [0.5])


class TestBackward:
    def test_sum_gives_ones(self):
        p = Tensor(rng.standard_normal((3, 3)))
        with Tape() as tape:
            loss = T.tensor_sum(p)
        tape.backward(loss)
        assert np.array_equal(p.grad, np.ones((3, 3)))

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
        tape.backward(loss)
        assert np.allclose(p.grad, a + b)

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

    def test_parameter_grad_zeroing(self):
        # a parameter enters ops as itself; clearing its grad between steps
        # keeps a second backward from adding onto the first
        p = Parameter(rng.standard_normal((2, 2)), "w")
        for _ in range(2):
            p.grad = None
            with Tape() as tape:
                loss = T.tensor_sum(T.mul(p, p))
            tape.backward(loss)
            assert np.array_equal(p.grad, 2.0 * p.data)


class TestGradientSuite:
    """Every differentiable primitive against central finite differences."""

    @pytest.mark.parametrize("name,build,shapes", [
        ("add", lambda a, b: T.tensor_sum(T.mul(s := T.add(a, b), s)), [(3, 4), (3, 4)]),
        ("sub", lambda a, b: T.tensor_sum(T.mul(s := T.sub(a, b), s)), [(3, 4), (3, 4)]),
        ("mul", lambda a, b: T.tensor_sum(T.mul(a, b)), [(3, 4), (3, 4)]),
        ("scale", lambda a: T.tensor_sum(T.mul(s := T.scale(a, 1.7), s)), [(3, 4)]),
        ("sqrt", lambda a: T.tensor_sum(T.sqrt(T.add(T.mul(a, a), 1.0))), [(3, 4)]),
        ("gelu", lambda a: T.tensor_sum(T.gelu(a)), [(3, 4)]),
        ("sum_axes", lambda a: T.tensor_sum(
            T.mul(s := T.tensor_sum(a, axes=(1,)), s)), [(3, 4)]),
        ("forward_diff", lambda a: T.tensor_sum(
            T.mul(d := T.forward_diff(a, 1, 4.0), d)), [(3, 5)]),
    ])
    def test_primitive(self, name, build, shapes):
        tensors = [Tensor(rng.standard_normal(s)) for s in shapes]
        gradient_check(lambda: build(*tensors), tensors, tol=1e-4)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (2, 0)])
    def test_conv_gradients(self, stride, pad):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.4)
        gradient_check(
            lambda: T.tensor_sum(T.mul(c := T.conv2d(x, k, stride, pad), c)),
            [x, k], tol=1e-4)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1)])
    def test_conv_transpose_gradients(self, stride, pad):
        y = Tensor(rng.standard_normal((2, 4, 3, 3)))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.4)
        gradient_check(
            lambda: T.tensor_sum(T.mul(c := T.conv2d_transpose(y, k, stride, pad), c)),
            [y, k], tol=1e-4)
