"""Training loop, losses, checkpoints and evaluation on the 16x16 fixture."""

import concurrent.futures
import functools
import re
import threading
import tracemalloc

import numpy as np
import pytest

from porolab import dataio, operators, training
from porolab.dataio import DatasetBundle, NormStats, load_checkpoint, save_checkpoint
from porolab.operators import Fno, FnoConfig, Mgno, MgnoConfig, make_input
from porolab.tensor import Tape, Tensor

TINY = {"fno": (Fno, FnoConfig(width=8, modes1=4, modes2=4, depth=2)),
        "mgno": (Mgno, MgnoConfig(depth=2, channels=4, levels=2))}


def _model(bundle, kind, dtype=np.float32, seed=4, target="p"):
    cls, cfg = TINY[kind]
    return cls(cfg, stats=bundle.fit_stats(target), t_max=float(bundle.n_days), dtype=dtype,
               seed=seed)


def _train_cfg(epochs=2, batch_size=25):
    return training.TrainConfig(epochs=epochs, batch_size=batch_size, train_fraction=1.0,
                                seed=1)


@pytest.mark.parametrize("kind,target", [("fno", "p"), ("mgno", "p"), ("fno", "sw"),
                                         ("mgno", "sw")],
                         ids=["fno", "mgno", "fno-sw", "mgno-sw"])
def test_train_checkpoint_reload_is_bit_identical(tiny_bundle, tmp_path, kind, target):
    bundle, _ = tiny_bundle
    model = _model(bundle, kind, target=target)
    logged = []
    history = training.train(model, bundle, _train_cfg(), log=logged.append)
    assert len(history) == 2 and all(np.isfinite(r.train_loss) for r in history)
    assert logged == history and [r.epoch for r in logged] == [0, 1]
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


@pytest.mark.parametrize("saved,stated", [(np.float64, "f4"), (np.float32, "f8")])
def test_checkpoint_parameter_dtype_must_match_the_precision(tiny_bundle, tmp_path,
                                                               saved, stated):
    # a parameter file in the other precision is an error, not a silent cast
    model = _model(tiny_bundle[0], "mgno", dtype=saved)
    save_checkpoint(model, tmp_path)
    manifest = tmp_path / "manifest.txt"
    with open(manifest, "a", encoding="utf-8") as fh:   # the last line wins
        fh.write(f"precision: {stated}\n")
    first = model.parameters()[0].name
    with pytest.raises(ValueError, match=re.escape(
            f"parameter {first} dtype {np.dtype(saved)} differs from the manifest's "
            f"precision '{stated}'")):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("what", ["format", "kind", "shape"])
def test_checkpoint_rejects_unknown_format_or_kind_and_a_misshapen_parameter(tiny_bundle,
                                                                           tmp_path, what):
    model = _model(tiny_bundle[0], "fno")
    save_checkpoint(model, tmp_path)
    first = model.parameters()[0]
    if what == "shape":
        np.save(tmp_path / dataio._param_file(first.name), first.data[:1])
        match = re.escape(f"parameter {first.name} shape {first.data[:1].shape} != expected "
                          f"{first.data.shape}")
    else:
        with open(tmp_path / "manifest.txt", "a", encoding="utf-8") as fh:   # the last line wins
            fh.write({"format": "format: porolab-checkpoint-0\n", "kind": "kind: unet\n"}[what])
        match = {"format": "unrecognized checkpoint format 'porolab-checkpoint-0'",
                 "kind": "unknown model kind 'unet'"}[what]
    with pytest.raises(ValueError, match=match):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("field, value", [("epochs", 0), ("batch_size", 0), ("batch_size", -5)])
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
    denoms = training._training_arrays(bundle, stats, np.float64)[2][0, days]
    loss = training.batched_relative_loss(Tensor(pred[:, None]),
                                          stats.normalize_target(truth)[:, None],
                                          (1.0 / denoms) / len(days))
    physical = np.mean([training.rel_l2(stats.denormalize_target(pred[j]), truth[j])
                        for j in range(len(days))])
    assert abs(loss.item() - physical) <= 1e-10


def test_training_arrays_hold_under_one_float64_target_copy():
    # the target is normalized one sample at a time, into the model's dtype, to
    # the bits of the whole-array formula
    rng = np.random.default_rng(6)
    bundle = DatasetBundle(k=rng.random((20, 16, 16)) + 0.5,
                           p=(rng.random((20, 25, 16, 16)) + 1.0).astype(np.float32),
                           sw=np.zeros((20, 25, 16, 16), np.float32),
                           manifest={"train_fraction": 1.0})
    stats = bundle.fit_stats("p")
    tracemalloc.start()
    try:
        _, tgt, denom = training._training_arrays(bundle, stats, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    phys = bundle.p.astype(np.float64)
    assert peak < phys.nbytes
    assert tgt.dtype == np.float32
    assert np.array_equal(tgt, stats.normalize_target(phys).astype(np.float32))
    assert np.array_equal(denom, np.sqrt((phys * phys).sum(axis=(2, 3))) / stats.target_std)


def _record_shards(monkeypatch):
    """Patch training._shard_step to keep each call's inputs and result, keyed by
    whether it ran on the main thread (half 0) or the worker (half 1)."""
    calls = []
    step = training._shard_step

    def recording(model, x, y, weights):
        result = step(model, x, y, weights)
        shard = 0 if threading.current_thread() is threading.main_thread() else 1
        calls.append((shard, x.copy(), y.copy(), weights.copy(), result))
        return result

    monkeypatch.setattr(training, "_shard_step", recording)
    return calls


def test_train_batch_equals_stacked_make_input(tiny_bundle, monkeypatch):
    bundle, _ = tiny_bundle
    model = _model(bundle, "fno")
    calls = _record_shards(monkeypatch)
    training.train(model, bundle, _train_cfg(epochs=1))
    # one sample x 25 days with batch size 25: the single batch holds every day once
    assert sorted((c[0], len(c[1])) for c in calls) == [(0, 13), (1, 12)]
    batch = np.concatenate([c[1] for c in sorted(calls, key=lambda c: c[0])])
    assert batch.dtype == np.float32 and batch.shape == (25, 4, 16, 16)
    batch = batch[np.argsort(batch[:, 1, 0, 0])]
    kn = model.stats.normalize_k(bundle.k[0].astype(np.float64)).astype(np.float32)
    expected = make_input(np.stack([kn] * 25), np.arange(25) / model.t_max)
    assert np.array_equal(batch, expected)


@pytest.mark.parametrize("kind,piece_cells,pieces", [
    # at 16x16 each half is one piece
    *[(kind, operators._PIECE_CELLS, [(0, 13), (1, 12)]) for kind in ("fno", "mgno")],
    # pieces of at most 7 of the 16x16 pairs cut the halves 7+6 and 6+6
    *[(kind, 7 * 16 * 16, [(0, 7), (0, 6), (1, 6), (1, 6)]) for kind in ("fno", "mgno")],
], ids=["fno", "mgno", "fno-in-pieces-of-7", "mgno-in-pieces-of-7"])
def test_sharded_step_matches_one_full_batch_tape(tiny_bundle, monkeypatch, kind,
                                                  piece_cells, pieces):
    """One float64 training step on the 25-pair batch: its pieces are ``pieces``
    ((half, size) in piece order), each grad is the sum of the first half's
    gradients in piece order plus that of the second half's, bit for bit, and the
    loss and grads match one full-batch tape."""
    bundle, _ = tiny_bundle
    monkeypatch.setattr(operators, "_PIECE_CELLS", piece_cells)
    model = _model(bundle, kind, dtype=np.float64)
    params = model.parameters()
    start = [p.data.copy() for p in params]
    calls = _record_shards(monkeypatch)
    history = training.train(model, bundle, _train_cfg(epochs=1))
    calls.sort(key=lambda c: c[0])        # stable: each half's pieces stay in order
    assert [(c[0], len(c[1])) for c in calls] == pieces
    halves = [[c[4] for c in calls if c[0] == h] for h in (0, 1)]

    def in_order(values):
        return np.add(*(functools.reduce(np.add, half) for half in values))

    for i, p in enumerate(params):
        want = in_order([[grads[i] for _, grads in half] for half in halves])
        assert p.grad.dtype == np.float64 and np.array_equal(p.grad, want), p.name
    # and that sum is the gradient of the whole batch's loss on one tape
    fresh = _model(bundle, kind, dtype=np.float64)
    for p, data in zip(fresh.parameters(), start):
        assert np.array_equal(p.data, data)
    x, y, weights = (np.concatenate([c[i] for c in calls]) for i in (1, 2, 3))
    with Tape() as tape:
        loss = training.batched_relative_loss(fresh.forward(Tensor(x)), y, weights)
    grads = tape.backward(loss)
    summed = in_order([[loss for loss, _ in half] for half in halves])
    assert history[0].train_loss == float(summed)
    np.testing.assert_allclose(summed, loss.data, rtol=1e-12, atol=0)
    for p, q in zip(params, fresh.parameters()):
        np.testing.assert_allclose(p.grad, grads[q.key], rtol=1e-12, atol=0, err_msg=p.name)


def test_add_steps_writes_only_into_its_own_sums():
    # a piece's (loss, gradients) are never written into; the first sum is new,
    # and the pieces after it are added into that sum
    pieces = [(np.float64(i), [np.full(3, float(i)), np.full((2, 2), 10.0 * i)])
              for i in (1, 2, 3)]
    copies = [(loss, [g.copy() for g in grads]) for loss, grads in pieces]
    first = training._add_steps(pieces[0], pieces[1])
    sums = first[1]
    total = training._add_steps(first, pieces[2])
    assert total[1] is sums and total[0] == 6.0
    assert np.array_equal(sums[0], np.full(3, 6.0))
    assert np.array_equal(sums[1], np.full((2, 2), 60.0))
    for (loss, grads), (loss0, grads0) in zip(pieces, copies):
        assert loss == loss0 and all(np.array_equal(g, g0) for g, g0 in zip(grads, grads0))


class InTurn:
    """A stand-in executor whose ``submit`` runs the call at once, on the calling thread."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


def _step_peaks(monkeypatch, model, n, sizes):
    """Traced peak of one ``_sharded_step`` of 8 pairs on an n x n grid in pieces of
    each of ``sizes`` entries, after one untraced warm-up step.  The halves run in
    turn on the calling thread, so a peak is one half's pieces at a time and does
    not hang on how two threads overlap."""
    rng = np.random.default_rng(8)
    x = model.inputs(rng.standard_normal((8, n, n)).astype(np.float32), np.arange(8))
    y = rng.standard_normal((8, 1, n, n)).astype(np.float32)
    denoms = rng.random(8) + 1.0
    monkeypatch.setattr(operators, "ThreadPoolExecutor", InTurn)
    training._sharded_step(model, x, y, denoms)
    peaks = {}
    for size in sizes:
        monkeypatch.setattr(operators, "_PIECE_CELLS", size * n * n)
        tracemalloc.start()
        try:
            training._sharded_step(model, x, y, denoms)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("kind", ["fno", "mgno"])
def test_pieces_bound_what_a_step_holds(monkeypatch, kind):
    # halves of 4 pairs, whole or in pieces of 2, run in turn: the ratio reads 0.561
    # (FNO) and 0.528 (MgNO) on every run, on two threads anywhere from 0.47 to 0.70.
    # TestTwoShards covers the two-thread split itself
    cls, cfg = TINY[kind]
    stats = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
    model = cls(cfg, stats=stats, dtype=np.float32, seed=1)
    peaks = _step_peaks(monkeypatch, model, 32, (4, 2))
    assert peaks[2] <= 0.65 * peaks[4]


def test_a_half_holds_one_running_gradient(monkeypatch):
    # an FNO whose weights outweigh one entry's activations (a tape holds 0.39x the
    # weight bytes an entry at 12x12), so that what a step holds turns on how many
    # gradients it keeps.  In pieces of 1 a half keeps its running sum besides the
    # piece's own, and the peak reads 4.55x the weight bytes, against 5.04x in
    # pieces of 4; a step that kept every piece's gradient until the batch ended
    # read 9.59x in pieces of 1.  At 8x8 (0.18x an entry) the running sum
    # outweighs the 3 entries that pieces of 4 add: 4.29x against 4.03x
    stats = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
    model = Fno(FnoConfig(width=32, modes1=4, modes2=3, depth=2), stats=stats,
                dtype=np.float32, seed=1)
    peaks = _step_peaks(monkeypatch, model, 12, (4, 1))
    assert peaks[1] <= peaks[4]


@pytest.mark.parametrize("kind", ["fno", "mgno"])
def test_batch_of_one_trains_on_the_calling_thread_alone(tiny_bundle, monkeypatch, kind):
    bundle, _ = tiny_bundle
    model = _model(bundle, kind)
    calls = _record_shards(monkeypatch)
    history = training.train(model, bundle, _train_cfg(epochs=1, batch_size=1))
    assert np.isfinite(history[0].train_loss)
    # 25 steps, each one pair on the calling thread and no worker
    assert [(c[0], len(c[1])) for c in calls] == [(0, 1)] * 25
    for p in model.parameters():
        assert p.grad is not None and p.grad.dtype == np.float32, p.name


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


def test_split_needs_the_manifest_train_fraction():
    rng = np.random.default_rng(0)
    bundle = DatasetBundle(k=rng.random((5, 8, 8)), p=rng.random((5, 3, 8, 8)) + 1.0,
                           sw=rng.random((5, 3, 8, 8)), manifest={"grid": 8, "days": 2})
    with pytest.raises(ValueError, match="train_fraction"):
        bundle.fit_stats("p")
    stats = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
    model = Fno(FnoConfig(width=4, modes1=2, modes2=2, depth=1), stats=stats, t_max=2.0)
    with pytest.raises(ValueError, match="train_fraction"):
        training.train(model, bundle, training.TrainConfig(epochs=1, batch_size=3,
                                                           train_fraction=0.8))


@pytest.mark.parametrize("fraction", [0, -0.2, 1.5])
def test_split_takes_one_to_all_samples(fraction):
    rng = np.random.default_rng(0)
    bundle = DatasetBundle(k=rng.random((5, 8, 8)), p=rng.random((5, 3, 8, 8)) + 1.0,
                           sw=rng.random((5, 3, 8, 8)), manifest={"train_fraction": fraction})
    with pytest.raises(ValueError, match="train_fraction"):
        bundle.fit_stats("p")
    with pytest.raises(ValueError, match="train_fraction"):
        bundle.val_indices()
    stats = NormStats(k_mean=0.0, k_std=1.0, target_mean=0.0, target_std=1.0)
    model = Fno(FnoConfig(width=4, modes1=2, modes2=2, depth=1), stats=stats, t_max=2.0)
    with pytest.raises(ValueError, match="train_fraction"):
        training.train(model, bundle, training.TrainConfig(epochs=1, batch_size=3,
                                                           train_fraction=fraction))


def test_train_rejects_an_oversized_batch_and_a_non_finite_loss(tiny_bundle, monkeypatch):
    bundle, _ = tiny_bundle
    model = _model(bundle, "mgno")
    with pytest.raises(ValueError, match="batch size 26 exceeds training pairs 25"):
        training.train(model, bundle, _train_cfg(batch_size=26))
    # the 8th step of batches of 5 (5 a epoch) is epoch 1, step 2
    steps = []
    step = training._sharded_step

    def failing(*args):
        loss, grads = step(*args)
        steps.append(loss)
        return (np.float32(np.inf) if len(steps) == 8 else loss), grads

    monkeypatch.setattr(training, "_sharded_step", failing)
    with pytest.raises(RuntimeError, match="non-finite loss inf at epoch 1, step 2"):
        training.train(model, bundle, _train_cfg(batch_size=5))


@pytest.mark.parametrize("call", ["evaluate"])
def test_empty_indices_are_rejected(tiny_bundle, call):
    bundle, _ = tiny_bundle
    model = _model(bundle, "mgno")
    with pytest.raises(ValueError, match="indices"):
        getattr(training, call)(model, bundle, [])


def test_one_make_input_per_series_and_per_batch(tiny_bundle, monkeypatch):
    # prediction builds a whole series, and training a whole batch, with one call
    bundle, _ = tiny_bundle
    calls = []
    make_input = operators.make_input
    monkeypatch.setattr(operators, "make_input",
                        lambda *args: calls.append(len(args[0])) or make_input(*args))
    model = _model(bundle, "mgno")
    training.train(model, bundle, _train_cfg(batch_size=5))
    assert calls == [5] * 10   # 2 epochs of 25 pairs in batches of 5
    model.predict_fields(bundle.k[0], np.arange(bundle.n_days + 1))
    training.evaluate(model, bundle, [0])
    assert calls == [5] * 10 + [25] * 2
