"""Shared test helpers: finite-difference gradient checking, the forward DCT and tiny
datasets; and a check, around every test, that it leaves no thread running, no tape
open and numpy's OpenBLAS thread count as it found it."""

import threading

import numpy as np
import pytest
import scipy.fft

from porolab import operators, tensor
from porolab.tensor import Tape


@pytest.fixture(autouse=True)
def _no_thread_tape_or_blas_change_left():
    """Fail a test that leaves a thread running, the main thread's tape slot set or
    numpy's OpenBLAS thread count changed (not checked where numpy exposes none)."""
    blas = operators._blas_threads()
    blas_threads = blas[0]() if blas is not None else None
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before, "a thread outlived the test"
    assert getattr(tensor._THREAD, "tape", None) is None, "the test left a tape open"
    if blas is not None:
        assert blas[0]() == blas_threads, "the test left numpy's OpenBLAS thread count changed"


def numerical_gradients(build_loss, arrays, eps=1e-5):
    """Central finite differences of a scalar loss w.r.t. each array entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(a.size):
            old = flat[i]
            flat[i] = old + eps
            fp = build_loss()
            flat[i] = old - eps
            fm = build_loss()
            flat[i] = old
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def gradient_check(build_loss, tensors, tol=1e-4, eps=1e-5):
    """Compare reverse-mode gradients of ``build_loss()`` against central FD.

    ``build_loss`` must construct the loss Tensor from the given input
    tensors each time it is called; returns the worst error, each tensor's
    largest entry error divided by its largest numeric gradient entry, so that
    round-off on an entry near zero does not read as a wrong gradient.
    """
    with Tape() as tape:
        loss = build_loss()
    grads = tape.backward(loss)
    analytic = [grads.get(t.key, np.zeros_like(t.data)) for t in tensors]
    numeric = numerical_gradients(lambda: build_loss().item(),
                                  [t.data for t in tensors], eps=eps)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        worst = max(worst, float(np.max(np.abs(a - n)) / (np.max(np.abs(n)) + 1e-8)))
    assert worst < tol, f"gradient mismatch: max rel err {worst:.3e} >= {tol}"
    return worst


def dct2(x):
    """Orthonormal type-II DCT over the last two axes: the oracle inverse of ``spectral.idct2``."""
    return scipy.fft.dctn(x, type=2, norm="ortho", axes=(-2, -1))


@pytest.fixture(scope="session")
def tiny_bundle():
    """One simulated 16x16 sample, 24 days: shared by training-level tests."""
    from porolab.dataio import DatasetBundle
    from porolab.grf import GrfSpec, sample_grf, to_permeability
    from porolab.simulator import ReservoirConfig, run_simulation

    cfg = ReservoirConfig(nx=16, nz=16, total_days=24)
    k = to_permeability(sample_grf(GrfSpec(n=16, seed=11), 0), 10.0)
    s = run_simulation(k, cfg)
    return DatasetBundle(
        k=k[None].astype(np.float32),
        p=s.p_series[None].astype(np.float32),
        sw=s.sw_series[None].astype(np.float32),
        manifest={"train_fraction": 1.0, "grid": 16, "days": 24, "seed": 11},
    ), cfg
