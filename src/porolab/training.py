"""Losses, Adam optimization, the training loop and evaluation protocols.

Training pairs flatten (sample, day): every daily snapshot is an independent
supervised example whose input the model builds (``model.inputs``): the
normalized permeability, a constant time channel and the cell-centre
coordinates.  The one training loss is the relative L2 error, computed on
z-score-normalized targets but scaled so that it equals the relative L2 error
of the denormalized (physical) fields, which is also the reported metric.

A training step runs its batch through the runner ``operators._two_shards``,
as inference does (its docstring gives the halves, threads and pieces), each
piece's forward and backward pass under its own tape.  The parameter gradients
and the loss are the pieces' sums, each half's taken in piece order as its pieces
end, and the second half's sum added to the first's.  The pieces and that order
depend only on the batch size and the grid, not on the machine, so neither does
any bit of the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import tensor as T
from .dataio import DatasetBundle, NormStats
from .operators import _two_shards
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


def batched_relative_loss(pred: Tensor, target: np.ndarray, weights: np.ndarray) -> Tensor:
    """The sum over samples of ``weights`` times each sample's L2 error norm.

    With ``weights = (1 / denominators) / B`` for a batch of B samples this is
    the batch mean of per-sample relative L2 errors, or, on a piece of the
    batch, that piece's part of the mean.  The training loop's denominators
    are the physical-field norms divided by the target std (see
    :func:`_training_arrays`), so the normalized-space loss equals the
    physical relative error exactly.
    """
    tgt = Tensor(np.ascontiguousarray(target, dtype=pred.dtype))
    d = T.sub(pred, tgt)
    num = T.sqrt(T.tensor_sum(T.mul(d, d), axes=(1, 2, 3)))
    return T.tensor_sum(T.mul(num, Tensor(weights.astype(pred.dtype))))


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay
# ---------------------------------------------------------------------------

_LR = 1e-4              # learning rate, constant over the run
_WEIGHT_DECAY = 1e-5    # decoupled, scaled by the learning rate
_BETA1 = 0.9            # first-moment decay
_BETA2 = 0.999          # second-moment decay
_EPS = 1e-8             # denominator floor of the Adam update


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 50
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


class AdamState:
    """First/second moments and step counter, mirroring the parameter list."""

    def __init__(self, params: list[Parameter]):
        self.m = [np.zeros(p.data.shape, dtype=p.data.dtype) for p in params]
        self.v = [np.zeros(p.data.shape, dtype=p.data.dtype) for p in params]
        self.step = 0


def adam_step(params: list[Parameter], state: AdamState) -> None:
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
        p.data = p.data - _LR * update - _LR * _WEIGHT_DECAY * p.data


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
    if len(indices) == 0:
        raise ValueError("indices is empty; give at least one sample index")
    days = np.arange(bundle.n_days + 1)
    truth = bundle.target(model.stats.target_name)
    errors = np.empty((len(indices), len(days)))
    elapsed = 0.0
    for row, i in enumerate(indices):
        t0 = time.perf_counter()
        pred = model.predict_fields(bundle.k[i], days)
        elapsed += time.perf_counter() - t0
        for day in days:
            errors[row, day] = rel_l2(pred[day], truth[i, day].astype(np.float64))
    return float(errors.mean()), errors.mean(axis=0), elapsed / len(indices)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _training_arrays(bundle: DatasetBundle, stats: NormStats, dtype):
    """Normalized K and targets in ``dtype``, and the physical per-(sample, day)
    target norms scaled into normalized space, from a float64 copy of one
    sample's target at a time.

    Dividing the normalized-space error norm by these denominators reproduces
    the physical relative error, which is also the reported validation metric.
    """
    k_norm = stats.normalize_k(bundle.k).astype(dtype)
    target = bundle.target(stats.target_name)
    tgt_norm = np.empty(target.shape, dtype=dtype)
    denom = np.empty(target.shape[:2])
    for i, sample in enumerate(target):
        phys = sample.astype(np.float64)
        denom[i] = np.sqrt((phys * phys).sum(axis=(1, 2))) / stats.target_std
        tgt_norm[i] = stats.normalize_target(phys)
    if np.any(denom == 0.0):
        raise ValueError("relative loss: zero-norm target snapshot")
    return k_norm, tgt_norm, denom


def _shard_step(model, x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Forward and backward of one piece of a batch on the calling thread: its
    part of the batch loss and the gradient of each parameter, in parameter
    order."""
    with Tape() as tape:
        pred = model.forward(Tensor(x))
        loss = batched_relative_loss(pred, y, weights)
    grads = tape.backward(loss)
    return loss.data, [grads[p.key] for p in model.parameters()]


class _Sums(list):
    """Gradient sums that :func:`_add_steps` made, and so may add into."""


def _add_steps(a, b):
    """The sum of two (loss, gradients) results.  A piece's arrays may be held
    elsewhere, so none is written into: the first sum is formed out of place, and
    later ones add into it.  Adding in place keeps the memory a thread holds from
    being freed and taken back from the C library piece after piece; out of place,
    a 64x64 FNO step took twice the page faults and ~12% longer on a 2-core Xeon."""
    if not isinstance(a[1], _Sums):
        return a[0] + b[0], _Sums(ga + gb for ga, gb in zip(a[1], b[1], strict=True))
    for ga, gb in zip(a[1], b[1], strict=True):
        ga += gb
    return a[0] + b[0], a[1]


def _sharded_step(model, x: np.ndarray, y: np.ndarray, denoms: np.ndarray):
    """Loss and per-parameter gradients of one batch, as sums over its pieces
    (:func:`operators._two_shards`): each half adds its pieces' results in piece
    order as they end, so a thread holds one running gradient besides its
    piece's, and the second half's sum is added to the first's.  The batch mean
    is formed here, once: each piece gets its samples' weights
    ``(1 / denoms) / B``."""
    return _two_shards(lambda *piece: _shard_step(model, *piece), _add_steps,
                       x, y, (1.0 / denoms) / len(x))


def train(model, bundle: DatasetBundle, cfg: TrainConfig, *, log=None):
    """Train a model in place; returns the list of per-epoch metrics.

    The split is the dataset's (:meth:`DatasetBundle.n_train`: the first
    ``train_fraction`` of samples in generation order, on which
    :meth:`DatasetBundle.fit_stats` fits the normalization), and
    ``cfg.train_fraction`` must take the same number of samples.  Training
    pair ``j`` is sample ``j // (n_days + 1)`` on day ``j % (n_days + 1)``.
    Pair order within an epoch is shuffled by a counter-based generator
    keyed on the config seed, so the whole run is a pure function of
    (dataset, config, seed).  Each epoch takes as many full batches of
    ``batch_size`` pairs as fit and drops the final partial batch.  The loss
    is the batch mean of per-pair relative L2 errors, formed by
    :func:`_sharded_step` over the pieces of the batch.  After each step every
    parameter's ``grad`` holds its gradient for that step's batch.
    """
    n_train = bundle.n_train()
    asked = int(np.ceil(bundle.n_samples * cfg.train_fraction))
    if asked != n_train:
        raise ValueError(
            f"train_fraction {cfg.train_fraction} takes {asked} training samples, but "
            f"the dataset's split, on which its normalization is fitted, takes {n_train}")
    val_idx = bundle.val_indices()
    days = bundle.n_days
    k_norm, tgt_norm, denom_table = _training_arrays(bundle, model.stats, model.dtype)

    n_pairs = n_train * (days + 1)
    if cfg.batch_size > n_pairs:
        raise ValueError(f"batch size {cfg.batch_size} exceeds training pairs {n_pairs}")
    params = model.parameters()
    state = AdamState(params)

    history: list[MetricsRecord] = []
    for epoch in range(cfg.epochs):
        order = Generator(Philox(key=cfg.seed, counter=epoch << 64)).permutation(n_pairs)
        losses = []
        for start in range(0, n_pairs - cfg.batch_size + 1, cfg.batch_size):
            si, day = np.divmod(order[start:start + cfg.batch_size], days + 1)
            x = model.inputs(k_norm[si], day)
            loss, grads = _sharded_step(model, x, tgt_norm[si, day][:, None],
                                        denom_table[si, day])
            value = float(loss)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"step {start // cfg.batch_size}")
            for p, g in zip(params, grads):
                p.grad = g
            adam_step(params, state)
            losses.append(value)
        val = evaluate(model, bundle, val_idx)[0] if len(val_idx) else np.nan
        record = MetricsRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                               val_rel_l2=val)
        history.append(record)
        if log is not None:
            log(record)
    return history
