"""Losses, Adam optimization, the training loop and evaluation protocols.

Training pairs flatten (sample, day): every daily snapshot is an independent
supervised example whose input is the normalized permeability plus a
constant time channel.  The one training loss is the relative L2 error,
computed on z-score-normalized targets but scaled so that it equals the
relative L2 error of the denormalized (physical) fields, which is also the
reported metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import tensor as T
from .dataio import DatasetBundle, NormStats
from .operators import _stack_inputs
from .tensor import Parameter, Tape, Tensor


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

def rel_l2(pred: np.ndarray, target: np.ndarray) -> float:
    """||pred - target||_2 / ||target||_2 over flattened entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"rel_l2: shape mismatch {pred.shape} vs {target.shape}")
    denom = np.linalg.norm(target.ravel())
    if denom == 0.0:
        raise ValueError("rel_l2: zero-norm target")
    return float(np.linalg.norm((pred - target).ravel()) / denom)


def batched_relative_loss(pred: Tensor, target: np.ndarray,
                          denominators: np.ndarray) -> Tensor:
    """Mean over the batch of per-sample relative L2 errors.

    ``denominators`` are the per-sample normalizing norms; the training loop
    passes the physical-field norms (divided by the target std, see
    :func:`_pair_denominators`) so the normalized-space loss equals the
    physical relative error exactly.
    """
    tgt = Tensor(np.ascontiguousarray(target, dtype=pred.dtype))
    d = T.sub(pred, tgt)
    num = T.sqrt(T.tensor_sum(T.mul(d, d), axes=(1, 2, 3)))
    weights = (1.0 / np.asarray(denominators)) / pred.shape[0]
    return T.tensor_sum(T.mul(num, Tensor(weights.astype(pred.dtype))))


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

_WEIGHT_DECAY = 1e-5    # decoupled, scaled by the learning rate
_BETA1 = 0.9            # first-moment decay
_BETA2 = 0.999          # second-moment decay
_EPS = 1e-8             # denominator floor of the Adam update


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 50
    lr: float = 1e-4
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.lr <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, batch_size and lr must be positive")


class AdamState:
    """First/second moments and step counter, mirroring the parameter list."""

    def __init__(self, params: list[Parameter]):
        self.m = [np.zeros(p.data.shape, dtype=p.data.dtype) for p in params]
        self.v = [np.zeros(p.data.shape, dtype=p.data.dtype) for p in params]
        self.step = 0


def adam_step(params: list[Parameter], state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with bias correction and decoupled weight decay."""
    state.step += 1
    t = state.step
    b1, b2 = _BETA1, _BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        g = p.grad
        m = state.m[i]
        v = state.v[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + _EPS)
        p.data = p.data - cfg.lr * update - cfg.lr * _WEIGHT_DECAY * p.data


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    val_rel_l2: float


def evaluate(model, bundle: DatasetBundle, indices):
    """Mean physical-space relative L2 over (sample, day) pairs, plus timing.

    Returns (mean error, per-day error vector over days 0..n_days, seconds
    per full time series).
    """
    days = np.arange(bundle.n_days + 1)
    truth = bundle.target(model.stats.target_name)
    errors = np.empty((len(indices), len(days)))
    elapsed = 0.0
    for row, i in enumerate(indices):
        t0 = time.perf_counter()
        pred = model.predict_fields(bundle.k[i].astype(np.float64), days)
        elapsed += time.perf_counter() - t0
        for day in days:
            errors[row, day] = rel_l2(pred[day], truth[i, day].astype(np.float64))
    return float(errors.mean()), errors.mean(axis=0), elapsed / max(len(indices), 1)


def throughput_report(model, bundle: DatasetBundle, cfg, indices):
    """Wall-clock seconds per full time series: surrogate vs simulator."""
    from .simulator import run_simulation

    days = np.arange(bundle.n_days + 1)
    t0 = time.perf_counter()
    for i in indices:
        model.predict_fields(bundle.k[i].astype(np.float64), days)
    model_s = (time.perf_counter() - t0) / len(indices)
    t0 = time.perf_counter()
    for i in indices:
        run_simulation(bundle.k[i].astype(np.float64), cfg)
    sim_s = (time.perf_counter() - t0) / len(indices)
    return model_s, sim_s, sim_s / model_s


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _normalized_views(bundle: DatasetBundle, stats: NormStats, dtype):
    k_norm = stats.normalize_k(bundle.k.astype(np.float64)).astype(dtype)
    tgt = stats.normalize_target(
        bundle.target(stats.target_name).astype(np.float64)).astype(dtype)
    return k_norm, tgt


def _pair_denominators(bundle: DatasetBundle, stats: NormStats) -> np.ndarray:
    """Physical per-(sample, day) target norms scaled into normalized space.

    Dividing the normalized-space error norm by these reproduces the
    physical relative error, which is also the reported validation metric.
    """
    phys = bundle.target(stats.target_name).astype(np.float64)
    denom = np.sqrt((phys * phys).sum(axis=(2, 3))) / stats.target_std
    if np.any(denom == 0.0):
        raise ValueError("relative loss: zero-norm target snapshot")
    return denom


def train(model, bundle: DatasetBundle, cfg: TrainConfig, *, log=None):
    """Train a model in place; returns the list of per-epoch metrics.

    The split takes the first ``train_fraction`` of samples (generation
    order) for training, and must be the split the dataset's manifest
    records, on which :meth:`DatasetBundle.fit_stats` fits the
    normalization; batch order within an epoch is shuffled by a
    counter-based generator keyed on the config seed, so the whole run is a
    pure function of (dataset, config, seed).  Each epoch takes as many full
    batches of ``batch_size`` (sample, day) pairs as fit and drops the final
    partial batch.  The loss is the batch mean of per-pair relative L2 errors
    (:func:`batched_relative_loss`).
    """
    if model.stats is None:
        raise ValueError("model needs normalization stats before training")
    n_train = int(np.ceil(bundle.n_samples * cfg.train_fraction))
    if n_train < 1 or n_train > bundle.n_samples:
        raise ValueError(f"empty or invalid split: {n_train} of {bundle.n_samples}")
    if n_train != bundle.n_train():
        raise ValueError(
            f"train_fraction {cfg.train_fraction} takes {n_train} training samples, but "
            f"the dataset's split, on which its normalization is fitted, takes "
            f"{bundle.n_train()}")
    val_idx = bundle.val_indices()
    days = bundle.n_days
    dtype = model.dtype
    k_norm, tgt_norm = _normalized_views(bundle, model.stats, dtype)
    denom_table = _pair_denominators(bundle, model.stats)

    pairs = np.stack(np.meshgrid(np.arange(n_train), np.arange(days + 1),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    if cfg.batch_size > len(pairs):
        raise ValueError(f"batch size {cfg.batch_size} exceeds training pairs {len(pairs)}")
    params = model.parameters()
    state = AdamState(params)

    history: list[MetricsRecord] = []
    for epoch in range(cfg.epochs):
        order = Generator(Philox(key=cfg.seed, counter=epoch << 64)).permutation(len(pairs))
        losses = []
        for start in range(0, len(pairs) - cfg.batch_size + 1, cfg.batch_size):
            si, day = pairs[order[start:start + cfg.batch_size]].T
            x = _stack_inputs(k_norm[si], day / model.t_max)
            y = tgt_norm[si, day][:, None]
            denoms = denom_table[si, day]
            with Tape() as tape:
                pred = model.forward(Tensor(x))
                loss = batched_relative_loss(pred, y, denominators=denoms)
            value = loss.item()
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss {value} at epoch {epoch}, step {start // cfg.batch_size}")
            for p in params:
                p.grad = None
            tape.backward(loss)
            adam_step(params, state, cfg)
            losses.append(value)
        val = evaluate(model, bundle, val_idx)[0] if len(val_idx) else np.nan
        record = MetricsRecord(epoch=epoch, train_loss=float(np.mean(losses)), val_rel_l2=val)
        history.append(record)
        if log is not None:
            log(record)
    return history
