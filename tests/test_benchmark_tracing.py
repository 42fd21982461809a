"""The benchmark's tracer finds every function its per-layer metrics read.

``perfbench/tracing.py`` wraps porolab's functions by name from outside the
package; a renamed or deleted function would leave its per-layer metric at
zero without an error. This installs the tracer the way ``perfbench/run.py``
does and checks that nothing the metrics need is missing, and that each span
books the work of its own function.
"""

import importlib.util
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_the_metrics_read_is_installed():
    tracing, metrics = _load("tracing"), _load("metrics")
    tracer = tracing.Tracer()
    tracing.install(tracer).restore()
    assert tracer.absent == []
    assert sorted(metrics.span_names() - tracer.installed) == []


def test_spectral_adjoints_book_their_own_work():
    # the adjoints reach the basis products directly, so none of their work lands
    # under a forward spectral span
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        from porolab import operators, tensor
        rng = np.random.default_rng(0)
        v = tensor.Tensor(rng.standard_normal((2, 3, 8, 8)))
        w_re, w_im = (tensor.Parameter(rng.standard_normal((4, 3, 3, 3)), name)
                      for name in ("re", "im"))
        with tensor.Tape() as tape:
            loss = tensor.tensor_sum(operators.spectral_conv(v, w_re, w_im))
        tape.backward(loss)
    finally:
        patches.restore()
    name, parent = tracing.NAME, tracing.PARENT
    spans = tracer.spans
    adjoints = {i for i, s in enumerate(spans) if s[name].endswith("_adjoint")}
    assert {spans[i][name] for i in adjoints} == {"spectral.rfft2_adjoint",
                                                   "spectral.irfft2_adjoint"}
    assert [s[name] for s in spans if s[name] in ("spectral.rfft2", "spectral.irfft2")
            and s[parent] in adjoints] == []
