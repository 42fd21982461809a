"""Training loop, losses, checkpoints and evaluation on the 16x16 fixture."""

import re

import numpy as np
import pytest

from porolab import operators, training
from porolab.dataio import DatasetBundle, load_checkpoint, save_checkpoint
from porolab.operators import Fno, FnoConfig, Mgno, MgnoConfig, make_input
from porolab.tensor import Tensor

TINY = {"fno": (Fno, FnoConfig(width=8, modes1=4, modes2=4, depth=2)),
        "mgno": (Mgno, MgnoConfig(depth=2, channels=4, levels=2))}


def _model(bundle, kind, dtype=np.float32, seed=4):
    cls, cfg = TINY[kind]
    return cls(cfg, stats=bundle.fit_stats("p"), t_max=float(bundle.n_days), dtype=dtype,
               seed=seed)


def _train_cfg(epochs=2, **kw):
    return training.TrainConfig(epochs=epochs, batch_size=25, lr=1e-3,
                                train_fraction=1.0, seed=1, **kw)


@pytest.mark.parametrize("kind", ["fno", "mgno"])
def test_train_checkpoint_reload_is_bit_identical(tiny_bundle, tmp_path, kind):
    bundle, _ = tiny_bundle
    model = _model(bundle, kind)
    history = training.train(model, bundle, _train_cfg())
    assert len(history) == 2 and all(np.isfinite(r.train_loss) for r in history)
    save_checkpoint(model, tmp_path)
    # checkpoints written before NormStats lost its k_log field and the configs
    # lost their channel counts and MgNO's smoothing step count carry these lines
    with open(tmp_path / "manifest.txt", "a", encoding="utf-8") as fh:
        fh.write("stats.k_log: True\ncfg.in_channels: 2\ncfg.out_channels: 1\n"
                 "cfg.smooth_steps: 1\n")
    loaded = load_checkpoint(tmp_path)
    assert type(loaded) is type(model) and loaded.cfg == model.cfg
    assert loaded.stats == model.stats and loaded.t_max == model.t_max
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name and b.data.dtype == np.float32
        assert np.array_equal(a.data, b.data), a.name
    days = np.arange(bundle.n_days + 1)
    k = bundle.k[0].astype(np.float64)
    before, after = model.predict_fields(k, days), loaded.predict_fields(k, days)
    assert after.dtype == np.float32 and np.array_equal(before, after)


def test_checkpoint_with_bad_t_max_rejected(tiny_bundle, tmp_path):
    model = _model(tiny_bundle[0], "mgno")
    save_checkpoint(model, tmp_path)
    manifest = tmp_path / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace(f"t_max: {model.t_max}", "t_max: nan"), encoding="utf-8")
    with pytest.raises(ValueError, match="t_max must be positive and finite, got nan"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("kind", ["fno", "mgno"])
def test_training_is_bit_deterministic(tiny_bundle, kind):
    bundle, _ = tiny_bundle
    runs = []
    for _ in range(2):
        model = _model(bundle, kind)
        history = training.train(model, bundle, _train_cfg(epochs=3))
        runs.append(([r.train_loss for r in history], [p.data for p in model.parameters()]))
    (losses_a, params_a), (losses_b, params_b) = runs
    assert losses_a == losses_b
    for a, b in zip(params_a, params_b, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("key", ["kind", "t_max", "seed", "precision", "parameters", "cfg.width",
                                 "stats.k_mean", "stats.target_std", "stats.target_name"])
def test_checkpoint_missing_entry_rejected(tiny_bundle, tmp_path, key):
    save_checkpoint(_model(tiny_bundle[0], "fno"), tmp_path)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith(f"{key}:")),
                        encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path}: manifest has no {key!r} line")):
        load_checkpoint(tmp_path)


def test_checkpoint_parameter_list_must_match_the_architecture(tiny_bundle, tmp_path):
    bundle, _ = tiny_bundle
    model = _model(bundle, "mgno")
    save_checkpoint(model, tmp_path)
    names = [p.name for p in model.parameters()]
    # an MgNO written while the coarsest level still had an operator kernel
    # lists layer{i}.lvl1.a just before layer{i}.lvl1.s
    with_dead_kernel = []
    for name in names:
        if name.endswith(".lvl1.s"):
            with_dead_kernel.append(name[:-1] + "a")
        with_dead_kernel.append(name)
    manifest = tmp_path / "manifest.txt"
    with open(manifest, "a", encoding="utf-8") as fh:   # the last line wins
        fh.write(f"parameters: {','.join(with_dead_kernel)}\n")
    with pytest.raises(ValueError, match=r"extra \['layer0\.lvl1\.a', 'layer1\.lvl1\.a'\], "
                                         r"missing \[\]$"):
        load_checkpoint(tmp_path)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(f"parameters: {','.join(names[:-1])}\n")
    with pytest.raises(ValueError, match=r"extra \[\], missing \['out\.w'\]$"):
        load_checkpoint(tmp_path)


def test_checkpoint_precision_must_be_f4_or_f8(tiny_bundle, tmp_path):
    bundle, _ = tiny_bundle
    save_checkpoint(_model(bundle, "fno"), tmp_path)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    assert "precision: f4\n" in lines
    manifest.write_text("".join(lines) + "precision: f16\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown precision 'f16'"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("field, value", [("epochs", 0), ("lr", 0.0), ("batch_size", 0),
                                          ("batch_size", -5)])
def test_train_config_rejects_non_positive_values(field, value):
    with pytest.raises(ValueError, match="must be positive"):
        training.TrainConfig(**{field: value})


@pytest.mark.parametrize("kind", ["fno", "mgno"])
def test_every_parameter_gets_a_gradient(tiny_bundle, kind):
    bundle, _ = tiny_bundle
    model = _model(bundle, kind)
    training.train(model, bundle, _train_cfg(epochs=1))   # one batch of 25 pairs
    assert [p.name for p in model.parameters() if p.grad is None] == []


def test_normalized_loss_equals_physical_relative_error(tiny_bundle):
    bundle, _ = tiny_bundle
    model = _model(bundle, "fno", dtype=np.float64)
    stats = model.stats
    days = np.array([0, 3, 11, 24])
    k = bundle.k[0].astype(np.float64)
    x = make_input(np.stack([stats.normalize_k(k)] * len(days)), days / model.t_max)
    pred = model.predict(x)
    truth = bundle.p[0, days].astype(np.float64)
    denoms = training._pair_denominators(bundle, stats)[0, days]
    loss = training.batched_relative_loss(Tensor(pred[:, None]),
                                          stats.normalize_target(truth)[:, None],
                                          denominators=denoms)
    physical = np.mean([training.rel_l2(stats.denormalize_target(pred[j]), truth[j])
                        for j in range(len(days))])
    assert abs(loss.item() - physical) <= 1e-10


def test_train_batch_equals_stacked_make_input(tiny_bundle, monkeypatch):
    bundle, _ = tiny_bundle
    model = _model(bundle, "fno")
    seen = []
    forward = model.forward

    def recording(x):
        seen.append(x.data.copy())
        return forward(x)

    monkeypatch.setattr(model, "forward", recording)
    training.train(model, bundle, _train_cfg(epochs=1))
    # one sample x 25 days with batch size 25: the single batch holds every day once
    (batch,) = seen
    assert batch.dtype == np.float32 and batch.shape == (25, 2, 16, 16)
    batch = batch[np.argsort(batch[:, 1, 0, 0])]
    kn = model.stats.normalize_k(bundle.k[0].astype(np.float64)).astype(np.float32)
    expected = make_input(np.stack([kn] * 25), np.arange(25) / model.t_max)
    assert np.array_equal(batch, expected)


def test_evaluate_per_day_errors_are_relative_l2_of_predict_fields(tiny_bundle):
    bundle, _ = tiny_bundle
    # a second sample (the first one mirrored) so the per-day vector averages over samples
    two = DatasetBundle(k=np.stack([bundle.k[0], bundle.k[0, ::-1]]),
                        p=np.stack([bundle.p[0], bundle.p[0, :, ::-1]]),
                        sw=np.stack([bundle.sw[0], bundle.sw[0, :, ::-1]]),
                        manifest=bundle.manifest)
    model = _model(bundle, "mgno")
    err, per_day, secs = training.evaluate(model, two, [0, 1])
    days = np.arange(two.n_days + 1)
    by_sample = []
    for i in (0, 1):
        pred = model.predict_fields(two.k[i].astype(np.float64), days).astype(np.float64)
        truth = two.p[i].astype(np.float64)
        by_sample.append([np.linalg.norm(pred[d] - truth[d]) / np.linalg.norm(truth[d])
                          for d in days])
    assert per_day.shape == (two.n_days + 1,) and secs > 0
    np.testing.assert_allclose(per_day, np.mean(by_sample, axis=0), rtol=1e-13, atol=0)
    assert err == pytest.approx(per_day.mean(), rel=1e-14)


def test_split_must_match_the_normalization_split():
    rng = np.random.default_rng(0)
    bundle = DatasetBundle(k=rng.random((5, 8, 8)), p=rng.random((5, 3, 8, 8)) + 1.0,
                           sw=rng.random((5, 3, 8, 8)), manifest={"train_fraction": 0.8})
    model = Fno(FnoConfig(width=4, modes1=2, modes2=2, depth=1),
                stats=bundle.fit_stats("p"), t_max=2.0)
    with pytest.raises(ValueError, match="train_fraction"):
        training.train(model, bundle, training.TrainConfig(epochs=1, batch_size=3,
                                                           train_fraction=0.5))
    history = training.train(model, bundle, training.TrainConfig(epochs=1, batch_size=3,
                                                                 train_fraction=0.8))
    assert np.isfinite(history[0].val_rel_l2)


def test_throughput_report_times_both_sides(tiny_bundle):
    bundle, cfg = tiny_bundle
    model = _model(bundle, "mgno")
    model_s, sim_s, speedup = training.throughput_report(model, bundle, cfg, [0])
    assert model_s > 0 and sim_s > 0 and speedup == pytest.approx(sim_s / model_s)


@pytest.mark.parametrize("call", ["evaluate", "throughput_report"])
def test_empty_indices_are_rejected(tiny_bundle, call):
    bundle, cfg = tiny_bundle
    model = _model(bundle, "mgno")
    args = (model, bundle, []) if call == "evaluate" else (model, bundle, cfg, [])
    with pytest.raises(ValueError, match="indices"):
        getattr(training, call)(*args)


def test_one_make_input_per_series_and_per_batch(tiny_bundle, monkeypatch):
    # prediction builds a whole series, and training a whole batch, with one call
    bundle, _ = tiny_bundle
    calls = {"operators": 0, "training": 0}

    def counted(module):
        fn = module.make_input

        def wrapper(*args, **kwargs):
            calls[module.__name__.rpartition(".")[2]] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (operators, training):
        monkeypatch.setattr(module, "make_input", counted(module))
    model = _model(bundle, "mgno")
    training.train(model, bundle, training.TrainConfig(epochs=2, batch_size=5, lr=1e-3,
                                                       train_fraction=1.0, seed=1))
    assert calls == {"operators": 0, "training": 10}   # 2 epochs of 25 pairs in batches of 5
    model.predict_fields(bundle.k[0], np.arange(bundle.n_days + 1))
    training.evaluate(model, bundle, [0])
    assert calls == {"operators": 2, "training": 10}
