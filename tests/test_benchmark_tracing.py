"""The benchmark's tracer finds every function its per-layer metrics read.

``perfbench/tracing.py`` wraps porolab's functions by name from outside the
package; a renamed or deleted function would leave its per-layer metric at
zero without an error. This installs the tracer the way ``perfbench/run.py``
does and checks that nothing the metrics need is missing.
"""

import importlib.util
from pathlib import Path

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
