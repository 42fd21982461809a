"""FNO / MgNO architectures: model input, spectral conv, V-cycle, forwards, registry, counts."""

import gc
import math
import operator
import threading
import time
import weakref

import numpy as np
import pytest

from conftest import gradient_check
from porolab import operators
from porolab import tensor as T
from porolab.dataio import NormStats
from porolab.operators import (_IN_CHANNELS, Fno, FnoConfig, Mgno, MgnoConfig, _mode_rows,
                               _two_shards, make_input, spectral_conv, vcycle_apply)
from porolab.tensor import Parameter, Tensor

rng = np.random.default_rng(17)
STATS = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
SMALL_MODELS = pytest.mark.parametrize(
    "cls,cfg", [(Fno, FnoConfig(width=4, modes1=2, modes2=2, depth=1)),
                (Mgno, MgnoConfig(depth=1, channels=3, levels=2))], ids=["fno", "mgno"])


def band_limit(x, m1, m2):
    """Project a field stack onto the retained-mode set (identity weights)."""
    eye = np.zeros((m1, m2, x.shape[1], x.shape[1]))
    for r in range(m1):
        for c in range(m2):
            eye[r, c] = np.eye(x.shape[1])
    return spectral_conv(Tensor(x), Tensor(eye), Tensor(np.zeros_like(eye))).data


class TestMakeInput:
    # each test draws one 8x8 field from the module's generator, which the
    # gradient checks further down also draw from
    def test_time_channel_levels(self):
        k = rng.random((8, 8))
        kn = np.stack([k, 2 * k, 3 * k])
        x = make_input(kn, [0.0, 1.0, 0.5])
        assert x.shape == (3, 4, 8, 8) and x.dtype == kn.dtype
        assert np.array_equal(x[:, 0], kn)
        assert not x[0, 1].any()
        assert np.all(x[1, 1] == 1.0) and np.all(x[2, 1] == 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_coordinate_channels(self, dtype):
        # zeros, not a draw from the module's generator; 6x5 tells the axes apart
        x = make_input(np.zeros((2, 6, 5), dtype=dtype), [0.0, 1.0])
        rows = (np.array([1, 3, 5, 7, 9, 11]) / 12).astype(dtype)
        cols = (np.array([1, 3, 5, 7, 9]) / 10).astype(dtype)
        assert x.dtype == dtype
        for b in (0, 1):
            assert np.array_equal(x[b, 2], np.broadcast_to(rows[:, None], (6, 5)))
            assert np.array_equal(x[b, 3], np.broadcast_to(cols, (6, 5)))

    def test_rollout_time_past_horizon(self):
        assert np.all(make_input(rng.random((8, 8))[None], [2.0])[0, 1] == 2.0)

    def test_one_time_per_field(self):
        # zeros, not a draw from the module's generator
        kn = np.zeros((3, 4, 4))
        for times in ([0.5], [0.5, 0.25], [[0.1, 0.2, 0.3]]):
            with pytest.raises(ValueError, match="t_frac needs one time per field"):
                make_input(kn, times)

    def test_negative_time_raises(self):
        kn = np.stack([rng.random((8, 8))] * 2)
        for bad in (-0.25, np.nan, np.inf):
            with pytest.raises(ValueError, match="time must be non-negative"):
                make_input(kn, [0.5, bad])

    @SMALL_MODELS
    def test_predict_fields_rejects_negative_days(self, cls, cfg):
        model = cls(cfg, stats=STATS)
        for bad in (-1, np.nan, np.inf):
            with pytest.raises(ValueError, match="time must be non-negative"):
                model.predict_fields(np.ones((8, 8)), [bad, 0])


class TestSpectralConv:
    def test_identity_on_band_limited(self):
        # one projection pass band-limits; a second identity pass preserves it
        x = rng.standard_normal((2, 3, 8, 8))
        xb = band_limit(x, 5, 3)
        assert np.max(np.abs(band_limit(xb, 5, 3) - xb)) < 1e-12

    def test_constant_input_dc_scaling(self):
        # scaling mode (0,0) by alpha scales a constant field by alpha
        alpha = 2.5
        w = np.zeros((3, 2, 1, 1))
        w[0, 0] = alpha
        x = np.full((1, 1, 8, 8), 1.7)
        out = spectral_conv(Tensor(x), Tensor(w), Tensor(np.zeros_like(w))).data
        assert np.max(np.abs(out - alpha * x)) < 1e-12

    def test_shift_equivariance_diagonal_weights(self):
        # diagonal per-mode weights commute with cyclic shifts (shift theorem)
        m1, m2, c = 4, 3, 2
        w_re = np.zeros((m1, m2, c, c))
        w_im = np.zeros((m1, m2, c, c))
        diag_rng = np.random.default_rng(5)
        for r in range(m1):
            for cc in range(m2):
                w_re[r, cc] = np.eye(c) * diag_rng.standard_normal()
                w_im[r, cc] = np.eye(c) * diag_rng.standard_normal()
        x = rng.standard_normal((1, c, 8, 8))
        shift = (3, 5)
        out_then_shift = np.roll(
            spectral_conv(Tensor(x), Tensor(w_re), Tensor(w_im)).data,
            shift, axis=(2, 3))
        shift_then_out = spectral_conv(
            Tensor(np.roll(x, shift, axis=(2, 3))), Tensor(w_re), Tensor(w_im)).data
        assert np.max(np.abs(out_then_shift - shift_then_out)) < 1e-11

    def test_output_band_limited(self):
        x = rng.standard_normal((1, 2, 8, 8))
        w = rng.standard_normal((4, 3, 2, 2))
        out = spectral_conv(Tensor(x), Tensor(w), Tensor(w * 0.5)).data
        spec = np.fft.rfft2(out)
        rows = _mode_rows(8, 4)
        mask = np.ones((8, 5), dtype=bool)
        mask[rows[:, None], np.arange(3)[None, :]] = False
        mask[(8 - rows) % 8, 0] = False   # column-0 conjugate images of a real field
        assert np.max(np.abs(spec[:, :, mask])) < 1e-10

    def test_linearity(self):
        w_re = Tensor(rng.standard_normal((4, 3, 2, 2)))
        w_im = Tensor(rng.standard_normal((4, 3, 2, 2)))
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 2, 8, 8))
        lhs = spectral_conv(Tensor(2 * x + 3 * y), w_re, w_im).data
        rhs = (2 * spectral_conv(Tensor(x), w_re, w_im).data
               + 3 * spectral_conv(Tensor(y), w_re, w_im).data)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_gradients(self):
        v = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w_re = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3)
        w_im = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3)
        gradient_check(
            lambda: T.tensor_sum(T.mul(c := spectral_conv(v, w_re, w_im), c)),
            [v, w_re, w_im], tol=1e-4)

    def test_float32_stays_float32(self):
        v = Tensor(rng.standard_normal((2, 3, 8, 7)).astype(np.float32))
        w_re = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        w_im = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        with T.Tape() as tape:
            out = spectral_conv(v, w_re, w_im)
            loss = T.tensor_sum(T.mul(out, out))
        grads = tape.backward(loss)
        assert out.dtype == grads[v.key].dtype == grads[w_re.key].dtype \
            == grads[w_im.key].dtype == np.float32

    def test_mode_bounds_checked(self):
        v = Tensor(rng.standard_normal((1, 2, 8, 8)))
        w = Tensor(rng.standard_normal((4, 6, 2, 2)))   # 6 > 8//2+1
        with pytest.raises(ValueError):
            spectral_conv(v, w, w)


WEIGHT_SHAPES = {"pointwise_linear": [(5, 3)], "conv2d": [(4, 3, 3, 3)],
                 "conv2d_transpose": [(3, 4, 3, 3)], "spectral_conv": [(4, 3, 3, 3)] * 2}


@pytest.mark.parametrize("x_dtype,w_dtype", [(np.float32, np.float64), (np.float64, np.float32)],
                         ids=["f32-input", "f64-input"])
@pytest.mark.parametrize("op", list(WEIGHT_SHAPES))
def test_spatial_layers_reject_mixed_dtypes(op, x_dtype, w_dtype):
    fn = spectral_conv if op == "spectral_conv" else getattr(T, op)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(x_dtype))
    weights = [Tensor(rng.standard_normal(shape).astype(w_dtype)) for shape in WEIGHT_SHAPES[op]]
    msg = f"{op}: weight dtype {np.dtype(w_dtype)} differs from input dtype {np.dtype(x_dtype)}"
    args = (1, 1, (8, 8)) if op == "conv2d_transpose" else ()
    with pytest.raises(ValueError, match=msg):
        fn(x, *weights, *args)


def random_level_kernels(ci, co, levels, scale=0.25, seed=0):
    """``(A, S, R, P)`` for each level above the coarsest, and the coarsest smoother."""
    r = np.random.default_rng(seed)
    out = []
    for _ in range(levels - 1):
        out.append(tuple(Tensor(r.standard_normal(shape) * scale)
                         for shape in ((ci, co, 3, 3), (co, ci, 3, 3),
                                       (ci, ci, 3, 3), (co, co, 3, 3))))
    return out, Tensor(r.standard_normal((co, ci, 3, 3)) * scale)


def dense_matrix(op, in_shape):
    """Matrix of the linear map ``op`` on [C,H,W] fields, from its unit-vector images."""
    n = int(np.prod(in_shape))
    return op(Tensor(np.eye(n).reshape((n,) + in_shape))).data.reshape(n, -1).T


def dense_vcycle(levels, coarse_s, ci, co, h, w):
    """V(1,1) cycle matrix composed from the dense matrix of each convolution."""
    if not levels:
        return dense_matrix(lambda x: T.conv2d(x, coarse_s, 1, 1), (ci, h, w))
    a, s, r, p = levels[0]
    smooth = dense_matrix(lambda x: T.conv2d(x, s, 1, 1), (ci, h, w))
    op = dense_matrix(lambda x: T.conv2d(x, a, 1, 1), (co, h, w))
    restrict = dense_matrix(lambda x: T.conv2d(x, r, 2, 1), (ci, h, w))
    prolong = dense_matrix(lambda x: T.conv2d_transpose(x, p, 2, 1, out_hw=(h, w)),
                           (co, h // 2, w // 2))
    coarse = dense_vcycle(levels[1:], coarse_s, ci, co, h // 2, w // 2)
    eye = np.eye(ci * h * w)
    # pre-smooth u = S f, then the prolonged coarse solve of the restricted residual
    corrected = smooth + prolong @ coarse @ restrict @ (eye - op @ smooth)
    return corrected + smooth @ (eye - op @ corrected)     # post-smooth


class TestVcycle:
    def test_zero_input_zero_output(self):
        levels, coarse_s = random_level_kernels(3, 3, 3)
        out = vcycle_apply(Tensor(np.zeros((1, 3, 8, 8))), levels, coarse_s)
        assert not out.data.any()

    def test_linearity(self):
        levels, coarse_s = random_level_kernels(2, 2, 3, seed=4)
        f = rng.standard_normal((1, 2, 8, 8))
        g = rng.standard_normal((1, 2, 8, 8))
        lhs = vcycle_apply(Tensor(1.5 * f - 2.0 * g), levels, coarse_s).data
        rhs = (1.5 * vcycle_apply(Tensor(f), levels, coarse_s).data
               - 2.0 * vcycle_apply(Tensor(g), levels, coarse_s).data)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_rectangular_channels(self):
        # first-layer form: input channels != hidden channels
        levels, coarse_s = random_level_kernels(2, 5, 3, seed=9)
        out = vcycle_apply(Tensor(rng.standard_normal((1, 2, 16, 16))), levels, coarse_s)
        assert out.data.shape == (1, 5, 16, 16)

    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    def test_matches_dense_composition(self, n_levels):
        ci, co, h, w = 2, 3, 8, 8
        levels, coarse_s = random_level_kernels(ci, co, n_levels, seed=n_levels)
        f = np.random.default_rng(30 + n_levels).standard_normal((2, ci, h, w))
        out = vcycle_apply(Tensor(f), levels, coarse_s).data
        assert out.dtype == np.float64 and out.shape == (2, co, h, w)
        mat = dense_vcycle(levels, coarse_s, ci, co, h, w)
        expected = (f.reshape(2, -1) @ mat.T).reshape(out.shape)
        assert np.max(np.abs(out - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


class TestFno:
    def make(self, **kw):
        cfg = FnoConfig(width=kw.pop("width", 6), modes1=kw.pop("modes1", 4),
                        modes2=kw.pop("modes2", 3), depth=kw.pop("depth", 2), **kw)
        return Fno(cfg, stats=STATS, seed=2)

    def test_zero_params_give_constant(self):
        model = self.make()
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        out = model.predict(rng.standard_normal((2, _IN_CHANNELS, 8, 8)))
        assert np.max(np.abs(out)) < 1e-14

    def test_lift_identity(self):
        model = self.make(width=_IN_CHANNELS)
        model.lift_w.data = np.eye(_IN_CHANNELS)
        model.lift_b.data = np.zeros(_IN_CHANNELS)
        x = Tensor(rng.standard_normal((1, _IN_CHANNELS, 8, 8)))
        v = T.pointwise_linear(x, model.lift_w, model.lift_b)
        assert np.allclose(v.data, x.data)

    def test_forward_shape_and_determinism(self):
        model = self.make()
        x = rng.standard_normal((3, _IN_CHANNELS, 8, 8))
        a = model.predict(x)
        assert a.shape == (3, 8, 8)
        assert np.array_equal(a, model.predict(x))

    def test_batch_order_invariance(self):
        model = self.make()
        x = rng.standard_normal((4, _IN_CHANNELS, 8, 8))
        out = model.predict(x)
        perm = np.array([2, 0, 3, 1])
        out_perm = model.predict(x[perm])
        assert np.allclose(out_perm, out[perm], atol=1e-12)

    def test_end_to_end_gradients(self):
        model = self.make()
        x = Tensor(rng.standard_normal((2, _IN_CHANNELS, 8, 8)))
        tensors = model.parameters() + [x]
        gradient_check(
            lambda: T.tensor_sum(T.mul(o := model.forward(x), o)), tensors, tol=1e-4)

    def test_resolution_transfer(self):
        # depth 1 has no activation: band-limited inputs evaluate identically
        # at 32x32 and 64x64 on the shared grid points
        cfg = FnoConfig(width=4, modes1=6, modes2=4, depth=1)
        model = Fno(cfg, stats=STATS, seed=8)
        coarse = rng.standard_normal((1, _IN_CHANNELS, 32, 32))
        coarse = band_limit(coarse, 5, 4)   # symmetric row set: rows 0..2, -2..-1
        spec_c = np.fft.rfft2(coarse)
        spec_f = np.zeros((1, _IN_CHANNELS, 64, 33), dtype=spec_c.dtype)
        rows_c = _mode_rows(32, 5)
        rows_f = _mode_rows(64, 5)
        spec_f[:, :, rows_f[:, None], np.arange(4)[None, :]] = \
            4.0 * spec_c[:, :, rows_c[:, None], np.arange(4)[None, :]]
        fine = np.fft.irfft2(spec_f, s=(64, 64))
        out_c = model.predict(coarse)
        out_f = model.predict(fine)
        assert np.max(np.abs(fine[0, :, ::2, ::2] - coarse[0])) < 1e-10
        assert np.max(np.abs(out_f[:, ::2, ::2] - out_c)) < 1e-8

    def test_prediction_on_uniform_k_depends_on_position(self):
        # every layer commutes with a circular shift of the grid, so only the
        # coordinate channels can make the output vary along the well axis
        model = self.make()
        out = model.predict_fields(np.full((8, 8), 3.0), [5])[0]
        assert np.min(np.ptp(out, axis=0)) > 1e-3 * np.max(np.abs(out))

    @pytest.mark.parametrize("name", ["width", "modes1", "modes2"])
    def test_sizes_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got 0"):
            FnoConfig(**{name: 0})

    def test_depth_must_be_non_negative(self):
        with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
            FnoConfig(depth=-1)
        assert FnoConfig(depth=0).depth == 0

    @pytest.mark.parametrize("hw,match", [((3, 8), "retained rows 4 exceed grid rows 3"),
                                          ((8, 3), "retained columns 3 exceed half-spectrum 2")],
                             ids=["rows", "columns"])
    def test_grid_smaller_than_modes_raises(self, hw, match):
        model = self.make()   # modes1=4, modes2=3
        with pytest.raises(ValueError, match=match):
            model.forward(Tensor(rng.standard_normal((1, _IN_CHANNELS) + hw)))


class TestMgno:
    def make(self, **kw):
        cfg = MgnoConfig(depth=kw.pop("depth", 2), channels=kw.pop("channels", 3),
                         levels=kw.pop("levels", 3), **kw)
        return Mgno(cfg, stats=STATS, seed=3)

    def test_bias_only_layer(self):
        from porolab.tensor import gelu
        model = self.make(depth=1)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        model.layers[0][3].data = np.array([0.3, -1.0, 2.0])   # layer bias
        model.out_w.data = np.array([[1.0, 1.0, 1.0]])
        out = model.predict(rng.standard_normal((1, _IN_CHANNELS, 8, 8)))
        expected = float(np.sum(gelu(Tensor(np.array([0.3, -1.0, 2.0]))).data))
        assert np.allclose(out, expected, atol=1e-6)

    def test_identity_bypass_layer(self):
        # zero V-cycle kernels, B = I: layer reduces to gelu(h)
        from porolab.tensor import gelu
        model = self.make(depth=1, channels=2)
        for p in model.parameters():
            p.data = np.zeros_like(p.data)
        model.layers[0][2].data = np.eye(2, _IN_CHANNELS)      # pointwise B onto channels 0, 1
        model.out_w.data = np.array([[1.0, 0.0]])
        x = rng.standard_normal((1, _IN_CHANNELS, 8, 8))
        out = model.predict(x)
        assert np.allclose(out, gelu(Tensor(x[:, 0])).data, atol=1e-12)

    def test_depth_zero_is_pointwise_linear(self):
        model = self.make(depth=0)
        assert [p.name for p in model.parameters()] == ["out.w"]
        model.out_w.data = np.zeros((1, _IN_CHANNELS))
        model.out_w.data[0, :2] = [2.0, -1.0]
        x = rng.standard_normal((1, _IN_CHANNELS, 8, 8))
        out = model.predict(x)
        assert np.allclose(out, 2.0 * x[:, 0] - x[:, 1], atol=1e-12)

    def test_output_shape_independent_of_depth(self):
        for depth in (1, 2, 3):
            model = self.make(depth=depth)
            out = model.predict(rng.standard_normal((1, _IN_CHANNELS, 16, 16)))
            assert out.shape == (1, 16, 16)

    def test_end_to_end_gradients(self):
        model = self.make()
        x = Tensor(rng.standard_normal((1, _IN_CHANNELS, 16, 16)))
        tensors = model.parameters() + [x]
        gradient_check(
            lambda: T.tensor_sum(T.mul(o := model.forward(x), o)), tensors, tol=1e-4)

    def test_end_to_end_gradients_on_odd_grid(self):
        # every level halves by ceil, as the simulator's hierarchy does: 9x7 -> 5x4 -> 3x2 -> 2x1.
        # The input has its own generator, so earlier tests' draws cannot move it; the
        # worst error reads 1.122e-07
        model = self.make(depth=1, levels=4)
        x = Tensor(np.random.default_rng(17).standard_normal((1, _IN_CHANNELS, 9, 7)))
        tensors = model.parameters() + [x]
        gradient_check(
            lambda: T.tensor_sum(T.mul(o := model.forward(x), o)), tensors, tol=1e-4)

    def test_levels_must_be_positive(self):
        for levels in (0, -1):
            with pytest.raises(ValueError, match="levels must be at least 1"):
                MgnoConfig(levels=levels)

    def test_channels_and_depth_validated(self):
        with pytest.raises(ValueError, match="channels must be at least 1, got 0"):
            MgnoConfig(channels=0)
        with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
            MgnoConfig(depth=-1)


@pytest.mark.parametrize("t_max", [0.0, -24.0, np.nan, np.inf],
                         ids=["zero", "negative", "nan", "inf"])
@SMALL_MODELS
def test_t_max_must_be_positive_and_finite(cls, cfg, t_max):
    with pytest.raises(ValueError, match="t_max must be positive and finite"):
        cls(cfg, stats=STATS, t_max=t_max)


@pytest.mark.parametrize("dtype", [np.float16, np.int32], ids=["float16", "int32"])
@SMALL_MODELS
def test_model_dtype_must_be_f4_or_f8(cls, cfg, dtype):
    # any other dtype would be promoted to float64 by Tensor, and the model would
    # train and predict in a precision its checkpoint does not record
    with pytest.raises(ValueError, match="model dtype must be float32 or float64"):
        cls(cfg, stats=STATS, dtype=dtype)


@SMALL_MODELS
def test_model_needs_stats(cls, cfg):
    with pytest.raises(TypeError):
        cls(cfg)
    with pytest.raises(ValueError, match="normalization stats"):
        cls(cfg, stats=None)


@SMALL_MODELS
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_predict_fields_normalizes_k_in_float64(cls, cfg, dtype):
    # a float32 permeability predicts the same bits as its float64 copy
    stats = NormStats(k_mean=1.3, k_std=0.7, target_mean=0.2, target_std=3.0)
    model = cls(cfg, stats=stats, dtype=dtype, seed=5)
    k32 = (10.0 * np.abs(np.random.default_rng(3).standard_normal((8, 8)))).astype(np.float32)
    days = np.arange(5)
    assert np.array_equal(model.predict_fields(k32, days),
                          model.predict_fields(k32.astype(np.float64), days))


@SMALL_MODELS
def test_predict_fields_builds_float32_inputs_for_float32_models(cls, cfg, monkeypatch):
    # a float32 model's input batch is built in float32, not cast down from a
    # float64 one, and it predicts the bits of the float64-built batch
    stats = NormStats(k_mean=1.3, k_std=0.7, target_mean=0.2, target_std=3.0)
    model = cls(cfg, stats=stats, dtype=np.float32, seed=5)
    k = 10.0 * np.abs(np.random.default_rng(3).standard_normal((8, 8)))
    days = np.arange(5.0)
    make = operators.make_input
    seen = []

    def spy(k_norm, t_frac):
        seen.append(k_norm.dtype)
        return make(k_norm, t_frac)

    monkeypatch.setattr(operators, "make_input", spy)
    out = model.predict_fields(k, days)
    assert seen == [np.float32] and out.dtype == np.float32
    kn = stats.normalize_k(k)
    x64 = make(np.broadcast_to(kn, (len(days), *kn.shape)), days / model.t_max)
    assert x64.dtype == np.float64
    assert np.array_equal(out, stats.denormalize_target(model.predict(x64)))


@SMALL_MODELS
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_predict_fields_of_no_days(cls, cfg, dtype):
    out = cls(cfg, stats=STATS, dtype=dtype).predict_fields(np.ones((10, 10)), [])
    assert out.shape == (0, 10, 10) and out.dtype == dtype


TAPE_MODELS = pytest.mark.parametrize(
    "cls,cfg", [(Mgno, MgnoConfig(depth=2, channels=4, levels=3)),
                (Fno, FnoConfig(width=8, modes1=4, modes2=4, depth=2))], ids=["mgno", "fno"])

# the ops whose backward rules close over their input's own array
_READ_THEIR_INPUT = {"pointwise_linear", "conv2d", "conv2d_transpose"}


def _taped_forward(cls, cfg, monkeypatch, keep):
    """One forward of a small float64 model and its summed output under a tape;
    ``keep(out, inputs, rule)`` sees each record as it is made and returns what
    to remember of it.  Returns the model, its input, the tape, the loss and the
    kept values in record order."""
    kept = []
    record = T.Tape.record

    def keeping(tape, out, inputs, backward_fn):
        kept.append(keep(out, inputs, backward_fn))
        record(tape, out, inputs, backward_fn)

    monkeypatch.setattr(T.Tape, "record", keeping)
    model = cls(cfg, STATS, dtype=np.float64, seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((2, _IN_CHANNELS, 16, 16)))
    with T.Tape() as tape:
        loss = T.tensor_sum(model.forward(x))
    return model, x, tape, loss, kept


def _op(rule) -> str:
    return rule.__qualname__.split(".")[0]


@TAPE_MODELS
def test_tape_keeps_only_what_rules_read(cls, cfg, monkeypatch):
    # of the outputs a forward pass records, exactly those that a rule reading
    # its input consumes (and the loss) outlive the prediction before backward
    # runs: 27 of 50 for this MgNO, 4 of 10 for this FNO
    model, x, tape, loss, kept = _taped_forward(
        cls, cfg, monkeypatch,
        lambda out, inputs, rule: (out.key, weakref.ref(out.data), _op(rule),
                                   [t.key for t in inputs]))
    gc.collect()
    read = {k for _, _, op, ins in kept if op in _READ_THEIR_INPUT for k in ins}
    outs = {key for key, _, _, _ in kept}
    alive = {key for key, ref, _, _ in kept if ref() is not None}
    assert alive == (read & outs) | {loss.key}
    assert 1 < len(alive) < len(kept)
    assert tape.backward(loss).keys() == {t.key for t in (x, *model.parameters())}


@TAPE_MODELS
def test_rules_hold_one_copy_of_what_they_read(cls, cfg, monkeypatch):
    # gelu's rule holds one array, its derivative; conv2d's holds its input's
    # own array and its kernel's, not a padded copy of the input
    *_, kept = _taped_forward(
        cls, cfg, monkeypatch,
        lambda out, inputs, rule: (_op(rule), [t.data for t in inputs],
                                   [c.cell_contents for c in rule.__closure__ or ()
                                    if isinstance(c.cell_contents, np.ndarray)]))
    seen = set()
    for op, (xd, *weights), held in kept:
        if op == "gelu":
            assert [a.shape for a in held] == [xd.shape]
        elif op == "conv2d":
            (kd,) = weights
            assert {id(a) for a in held} == {id(xd), id(kd)}
        seen.add(op)
    assert seen >= ({"gelu", "conv2d"} if cls is Mgno else {"gelu"})


def test_tape_holds_no_tensor():
    # everything reachable from a tape through its slots, its record list and
    # the record tuples is a key, a container of keys or a rule; the walk stops
    # at rules, whose closures may hold a parameter
    model = Mgno(MgnoConfig(depth=2, channels=4, levels=3), STATS, dtype=np.float64, seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((2, _IN_CHANNELS, 16, 16)))
    with T.Tape() as tape:
        T.tensor_sum(model.forward(x))
    found, todo = [], [tape]
    while todo:
        obj = todo.pop()
        found.append(obj)
        if isinstance(obj, T.Tape):
            todo.extend(getattr(obj, name) for name in type(obj).__slots__)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            todo.extend(obj)
    assert len(found) > 50 and not any(isinstance(obj, Tensor) for obj in found)


def _pieces(fn, *arrays) -> list:
    """:func:`_two_shards` with each piece's result in a list of its own, folded by
    list addition: every piece's result, in piece order."""
    return _two_shards(lambda *xs: [fn(*xs)], operator.add, *arrays)


class TestTwoShards:
    """``operators._two_shards``, the one runner of training steps and predictions:
    its piece bounds, its threads, its errors and its BLAS setting."""

    @pytest.fixture
    def blas(self):
        """numpy's BLAS thread-count getter, with the count set to 2 for the test and
        put back after; a getter of None where numpy exposes no OpenBLAS."""
        blas = operators._blas_threads()
        if blas is None:
            yield lambda: None
            return
        get, set_ = blas
        before = get()
        set_(2)
        try:
            yield get
        finally:
            set_(before)

    @pytest.mark.parametrize("bsz,cells,want", [
        # a 64x64 B=50 training step: five pieces of 5 on each thread
        (50, 64 * 64, [[(i, i + 5) for i in range(0, 25, 5)],
                       [(i, i + 5) for i in range(25, 50, 5)]]),
        # a 25-day 64x64 series: 5+4+4 | 6+6
        (25, 64 * 64, [[(0, 5), (5, 9), (9, 13)], [(13, 19), (19, 25)]]),
        # a 32x32 B=50 training step: one piece a half
        (50, 32 * 32, [[(0, 25)], [(25, 50)]]),
        (27, 64 * 64, [[(0, 5), (5, 10), (10, 14)], [(14, 19), (19, 23), (23, 27)]]),
        # pieces of at most 2 entries: 25 of 2 and one of 1, then 25 of 2
        (101, 96 * 96, [[(i, i + 2) for i in range(0, 50, 2)] + [(50, 51)],
                        [(i, i + 2) for i in range(51, 101, 2)]]),
        (5, 10 ** 9, [[(0, 1), (1, 2), (2, 3)], [(3, 4), (4, 5)]]),
        (1, 64 * 64, [[(0, 1)]]),
        (0, 64 * 64, [[(0, 0)]]),
        # [B, C, H, W]: an entry's cells are H*W, whatever C
        (50, (3, 64, 64), [[(i, i + 5) for i in range(0, 25, 5)],
                           [(i, i + 5) for i in range(25, 50, 5)]]),
        (50, (3, 32, 32), [[(0, 25)], [(25, 50)]]),
        # a 16x16 B=50 training step: one piece a half
        (50, 16 * 16, [[(0, 25)], [(25, 50)]]),
    ])
    def test_piece_bounds(self, bsz, cells, want):
        # each half, ceil(B/2) entries then the rest, in the fewest consecutive
        # pieces under the cap, larger first and at most one entry apart; the
        # first half on the calling thread, and every array cut alike.  An int
        # ``cells`` is one axis of a first array [B, 0, cells], which holds nothing
        grid = math.prod(cells[1:]) if isinstance(cells, tuple) else cells
        x = np.empty((bsz, *cells) if isinstance(cells, tuple) else (bsz, 0, cells))
        caller = threading.get_ident()
        out = _pieces(lambda xs, i: (threading.get_ident() == caller, len(xs), i.tolist()),
                      x, np.arange(bsz))
        assert out == [(h == 0, hi - lo, list(range(lo, hi)))
                       for h, half in enumerate(want) for lo, hi in half]
        cap = max(1, operators._PIECE_CELLS // grid)
        c = -(-bsz // 2)
        assert [(h[0][0], h[-1][1]) for h in want] == [(0, c), (c, bsz)][:1 + (c < bsz)]
        for half in want:
            sizes = [hi - lo for lo, hi in half]
            assert all(a[1] == b[0] for a, b in zip(half, half[1:]))
            assert len(sizes) == max(1, -(-sum(sizes) // cap)) and max(sizes) <= cap
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1

    @pytest.mark.parametrize("bsz,piece_cells,bounds", [
        # halves of 5 and 4 entries in pieces of at most 2: 2+2+1, then 2+2
        (9, 2, [(0, 2), (2, 4), (4, 5), (5, 7), (7, 9)]),
        (1, None, [(0, 1)]),
        (2, None, [(0, 1), (1, 2)]),
        (5, None, [(0, 3), (3, 5)]),
        (6, None, [(0, 3), (3, 6)]),
    ], ids=["9-in-pieces-of-2", "1", "2", "5", "6"])
    def test_pieces_in_order_each_half_on_its_thread(self, bsz, piece_cells, bounds,
                                                     monkeypatch):
        # the first ceil(B/2) entries of each array on the calling thread, the rest
        # on one other thread, each half's pieces in order
        if piece_cells is not None:
            monkeypatch.setattr(operators, "_PIECE_CELLS", piece_cells)
        a, b = np.arange(3.0 * bsz).reshape(bsz, 3), np.arange(bsz)
        caller = threading.get_ident()
        out = _pieces(lambda *xs: (threading.get_ident(), xs), a, b)
        c = -(-bsz // 2)
        assert len(out) == len(bounds)
        assert [ident == caller for ident, _ in out] == [lo < c for lo, _ in bounds]
        assert len({ident for ident, _ in out if ident != caller}) == (bsz > 1)
        for (_, got), (lo, hi) in zip(out, bounds):
            assert all(np.array_equal(g, r) for g, r in zip(got, (a[lo:hi], b[lo:hi]),
                                                           strict=True))

    @pytest.mark.parametrize("failing,slow", [({2}, range(5, 10)), ({7}, range(5)),
                                              ({2, 7}, range(5))],
                             ids=["first-half", "second-half", "both-halves"])
    def test_later_piece_raises_after_both_halves_end(self, failing, slow, blas,
                                                      monkeypatch):
        # pieces of one entry: a failing piece is its half's third and stops its half,
        # and the ``slow`` pieces end late, so a runner that did not wait for both
        # halves would raise before they end.  With both failing, the first half's
        # error is raised although the second half's comes first.  BLAS is back to
        # its count after the raise
        monkeypatch.setattr(operators, "_PIECE_CELLS", 1)
        errors = {i: RuntimeError(f"piece {i} failed") for i in failing}
        ended = []

        def fn(x):
            i = int(x[0])
            if i in slow:
                time.sleep(0.02)
            ended.append(i)
            if i in failing:
                raise errors[i]

        want = blas()
        with pytest.raises(RuntimeError) as info:
            _pieces(fn, np.arange(10))
        assert info.value is errors[min(failing)] and blas() == want
        stops = [min([i for i in failing if lo <= i < lo + 5], default=lo + 4) for lo in (0, 5)]
        assert sorted(ended) == [*range(stops[0] + 1), *range(5, stops[1] + 1)]

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)], ids=["first", "second", "both"])
    def test_raise_after_both_shards_end(self, failing, blas):
        # one piece a half: the half that does not fail ends late, so a runner that did
        # not wait for it would raise before it ends; with both failing, the first
        # half's error is raised.  BLAS and the thread count are back after the raise
        errors = [RuntimeError(f"shard {i} failed") for i in range(2)]
        ended = []

        def fn(x):
            i = int(x[0])
            if i not in failing:
                time.sleep(0.05)
            ended.append(i)
            if i in failing:
                raise errors[i]

        want, threads = blas(), threading.active_count()
        with pytest.raises(RuntimeError) as info:
            _pieces(fn, np.array([0, 0, 1]))
        assert info.value is errors[failing[0]] and sorted(ended) == [0, 1]
        assert (blas(), threading.active_count()) == (want, threads)

    def test_blas_on_one_thread_and_restored(self, blas, monkeypatch):
        want = blas()
        if want is None:
            pytest.skip("numpy exposes no scipy-openblas thread count")
        assert _pieces(lambda x: blas(), np.zeros(3)) == [1, 1] and blas() == want
        monkeypatch.setattr(operators, "_PIECE_CELLS", 2)   # pieces of 2, 2, 1 | 2, 2
        assert _pieces(lambda x: blas(), np.zeros(9)) == [1] * 5 and blas() == want

    def test_one_entry_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        assert _pieces(len, np.zeros(1)) == [1] and started == []
        assert _pieces(len, np.zeros(2)) == [1, 1] and len(started) == 1
        # however small the pieces: one worker for the second half, none for one entry
        monkeypatch.setattr(operators, "_PIECE_CELLS", 1)
        assert _pieces(len, np.zeros(1)) == [1] and len(started) == 1
        assert _pieces(len, np.zeros(4)) == [1] * 4 and len(started) == 2

    @pytest.mark.parametrize("bsz,piece_cells,want", [
        # halves of 5 and 4 entries in pieces of at most 2: 2+2+1, then 2+2
        (9, 2, "(((0-1+2-3)+4)+(5-6+7-8))"),
        (9, None, "(0-1-2-3-4+5-6-7-8)"),
        (1, None, "0"),
        (0, None, ""),
    ])
    def test_fold_order(self, bsz, piece_cells, want, monkeypatch):
        # each half folds its pieces left to right in piece order, and the first
        # half's result is folded with the second's; one half is returned unfolded
        if piece_cells is not None:
            monkeypatch.setattr(operators, "_PIECE_CELLS", piece_cells)
        out = _two_shards(lambda xs: "-".join(map(str, xs.tolist())),
                          lambda a, b: f"({a}+{b})", np.arange(bsz))
        assert out == want

    def test_each_thread_folds_a_piece_as_it_ends(self, monkeypatch):
        # pieces of one entry: on each thread, every piece after its half's first is
        # folded into the running result before the next piece starts
        monkeypatch.setattr(operators, "_PIECE_CELLS", 1)
        events = []

        def fn(x):
            events.append((threading.get_ident(), "piece"))
            return int(x[0])

        def fold(a, b):
            events.append((threading.get_ident(), "fold"))
            return a + b

        caller = threading.get_ident()
        assert _two_shards(fn, fold, np.arange(6)) == 15
        mine = [e for ident, e in events if ident == caller]
        theirs = [e for ident, e in events if ident != caller]
        assert mine == ["piece", "piece", "fold", "piece", "fold", "fold"]
        assert theirs == ["piece", "piece", "fold", "piece", "fold"]


class TestPredictShards:
    """``predict`` joins the forwards of the runner's two shards in order (the
    runner's own contract is ``TestTwoShards``')."""

    @SMALL_MODELS
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_two_shards_joined(self, cls, cfg, dtype, monkeypatch):
        model = cls(cfg, stats=STATS, dtype=dtype, seed=5)
        kn = np.random.default_rng(3).standard_normal((8, 8))
        x = make_input(np.stack([kn] * 25), np.arange(25) / model.t_max).astype(dtype)
        calls = []
        forward = model.forward

        def recording(xt):
            calls.append((threading.current_thread() is threading.main_thread(), len(xt.data)))
            return forward(xt)

        monkeypatch.setattr(model, "forward", recording)
        out = model.predict(x)
        monkeypatch.undo()
        assert sorted(calls) == [(False, 12), (True, 13)]
        shards = [model.forward(Tensor(xs)).data[:, 0] for xs in (x[:13], x[13:])]
        assert out.dtype == dtype and np.array_equal(out, np.concatenate(shards))
        if cls is Mgno:
            assert np.array_equal(out, model.forward(Tensor(x)).data[:, 0])

    @SMALL_MODELS
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_pieces_joined_in_piece_order(self, cls, cfg, dtype, monkeypatch):
        # pieces of at most 6 entries of the 8x8 grid cut a 25-day series as a 64x64
        # one is cut: 5+4+4 on the calling thread, 6+6 on the worker
        monkeypatch.setattr(operators, "_PIECE_CELLS", 6 * 8 * 8)
        model = cls(cfg, stats=STATS, dtype=dtype, seed=5)
        kn = np.random.default_rng(4).standard_normal((8, 8))
        x = make_input(np.stack([kn] * 25), np.arange(25) / model.t_max).astype(dtype)
        calls = []
        forward = model.forward

        def recording(xt):
            calls.append((threading.current_thread() is threading.main_thread(),
                          round(float(xt.data[0, 1, 0, 0]) * model.t_max), len(xt.data)))
            return forward(xt)

        monkeypatch.setattr(model, "forward", recording)
        out = model.predict(x)
        assert sorted(calls, key=lambda c: c[1]) == [
            (True, 0, 5), (True, 5, 4), (True, 9, 4), (False, 13, 6), (False, 19, 6)]
        bounds = [0, 5, 9, 13, 19, 25]
        pieces = [forward(Tensor(x[lo:hi])).data[:, 0] for lo, hi in zip(bounds, bounds[1:])]
        assert out.dtype == dtype and np.array_equal(out, np.concatenate(pieces))


def _reachable_parameters(model):
    """Every Parameter held in the model's attributes, its registry aside."""
    found, stack = [], [v for name, v in vars(model).items() if name != "_params"]
    while stack:
        item = stack.pop()
        if isinstance(item, Parameter):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


class TestParameterRegistry:
    """``parameters()`` lists each parameter once, in the order checkpoints store."""

    FNO_NAMES = ["lift.w", "lift.b",
                 "layer0.spec_re", "layer0.spec_im", "layer0.w", "layer0.b",
                 "layer1.spec_re", "layer1.spec_im", "layer1.w", "layer1.b",
                 "proj.w", "proj.b"]
    MGNO_NAMES = ["layer0.lvl0.a", "layer0.lvl0.s", "layer0.lvl0.r", "layer0.lvl0.p",
                  "layer0.lvl1.s", "layer0.bmat", "layer0.bias",
                  "layer1.lvl0.a", "layer1.lvl0.s", "layer1.lvl0.r", "layer1.lvl0.p",
                  "layer1.lvl1.s", "layer1.bmat", "layer1.bias",
                  "out.w"]

    @pytest.mark.parametrize("model,names", [
        (Fno(FnoConfig(width=4, modes1=2, modes2=2, depth=2), stats=STATS), FNO_NAMES),
        (Mgno(MgnoConfig(depth=2, channels=3, levels=2), stats=STATS), MGNO_NAMES),
    ], ids=["fno", "mgno"])
    def test_order_and_coverage(self, model, names):
        params = model.parameters()
        assert [p.name for p in params] == names
        assert len({id(p) for p in params}) == len(params)
        assert {id(p) for p in _reachable_parameters(model)} == {id(p) for p in params}


class TestParameterCount:
    """Parameter totals against the closed form of each architecture's layout."""

    def test_fno_matches_enumeration(self):
        d, m1, m2, depth = 32, 12, 12, 4
        model = Fno(FnoConfig(width=d, modes1=m1, modes2=m2, depth=depth), stats=STATS)
        lift = 4 * d + d                              # 4 input channels -> d, plus bias
        per_layer = 2 * m1 * m2 * d * d + d * d + d   # spectral re/im, pointwise w and b
        proj = d + 1                                  # d -> 1 output channel, plus bias
        assert sum(p.data.size for p in model.parameters()) == lift + depth * per_layer + proj

    def test_mgno_matches_enumeration(self):
        depth, c, levels = 3, 10, 4
        model = Mgno(MgnoConfig(depth=depth, channels=c, levels=levels), stats=STATS)
        total, ci = 0, 4
        for _ in range(depth):
            total += (2 * levels - 1) * 9 * ci * c               # A and S, no coarsest A
            total += (levels - 1) * 9 * (ci * ci + c * c)       # R and P per transition
            total += ci * c + c                                 # pointwise B and bias
            ci = c
        total += c                                              # final c -> 1 map
        assert sum(p.data.size for p in model.parameters()) == total

    def test_zero_depth_mgno(self):
        model = Mgno(MgnoConfig(depth=0, channels=8, levels=3), stats=STATS)
        assert sum(p.data.size for p in model.parameters()) == 4   # just the final 1x1 map
        # full-scale reference totals reported alongside the paper's table are
        # 11,989,761 (FNO) and 18,500,124 (MgNO); exact architectures are not
        # published, so these are context, not assertions.
