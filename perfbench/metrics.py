"""Metric definitions: end-to-end metrics, per-layer metrics and the tail rule.

A *step* is one IMPES time step (saturation update, mobility, pressure
assembly and solve) on ``dataset-64`` and one B=50 training step on
``train-*``. An *op* is the unit of work a run repeats a fixed number of
times: one accepted 64x64, 24-day sample on ``dataset-64``, one training step
on ``train-*``; per-layer ``/op`` values are per op. A *series* is one
``predict_fields`` call over days 0..24 for one field.
Names, units and directions are read from ``BENCHMARK.json``; this module
only says which spans each per-layer metric is computed from.
"""

from __future__ import annotations

import math

ELEMENTWISE = tuple(f"tensor.{op}" for op in
                    ("add", "sub", "mul", "scale", "tensor_sum", "sqrt", "forward_diff"))
FFTS = tuple(f"spectral.{op}" for op in ("rfft2", "irfft2", "rfft2_adjoint", "irfft2_adjoint"))
FORWARD = ("operators.Fno.forward", "operators.Mgno.forward")
PREDICT = ("operators.Fno.predict_fields", "operators.Mgno.predict_fields")


def _bwd(names):
    return tuple(n + ".bwd" for n in names)


def _names(spans) -> tuple:
    return (spans,) if isinstance(spans, str) else spans


# name, phase, span name(s), statistic.
# phase "op": the workload's timed phase, divided by its op count;
# "infer": the inference phase, divided by its series count;
# "all": every phase, divided by the number of calls.
# statistic: calls, total (outermost spans), self, extra, failed, failed_total.
SPAN_METRICS = (
    ("simulator.run_simulation.s", "op", "simulator.run_simulation", "total"),
    ("simulator.run_simulation.self_s", "op", "simulator.run_simulation", "self"),
    ("simulator.solve_pressure.calls", "op", "simulator.solve_pressure", "calls"),
    ("simulator.solve_pressure.s", "op", "simulator.solve_pressure", "total"),
    ("simulator.update_saturation.calls", "op", "simulator.update_saturation", "calls"),
    ("simulator.update_saturation.s", "op", "simulator.update_saturation", "total"),
    ("simulator.stable_dt.s", "op", "simulator.stable_dt", "total"),
    ("simulator.draws", "op", "simulator.run_simulation", "calls"),
    ("simulator.draws_rejected", "op", "simulator.run_simulation", "failed"),
    ("simulator.rejected_s", "op", "simulator.run_simulation", "failed_total"),
    ("grf.sample_grf.s", "op", "grf.sample_grf", "total"),
    ("dataio.save_dataset.s", "all", "dataio.save_dataset", "total"),
    ("dataio.load_dataset.s", "all", "dataio.load_dataset", "total"),
    ("dataio.save_checkpoint.s", "all", "dataio.save_checkpoint", "total"),
    ("dataio.load_checkpoint.s", "all", "dataio.load_checkpoint", "total"),
    ("tensor.conv2d.calls", "op", "tensor.conv2d", "calls"),
    ("tensor.conv2d.fwd_s", "op", "tensor.conv2d", "self"),
    ("tensor.conv2d.bwd_s", "op", "tensor.conv2d.bwd", "self"),
    ("tensor.conv2d_transpose.calls", "op", "tensor.conv2d_transpose", "calls"),
    ("tensor.conv2d_transpose.fwd_s", "op", "tensor.conv2d_transpose", "self"),
    ("tensor.conv2d_transpose.bwd_s", "op", "tensor.conv2d_transpose.bwd", "self"),
    ("tensor.pointwise_linear.fwd_s", "op", "tensor.pointwise_linear", "self"),
    ("tensor.pointwise_linear.bwd_s", "op", "tensor.pointwise_linear.bwd", "self"),
    ("tensor.gelu.fwd_s", "op", "tensor.gelu", "self"),
    ("tensor.gelu.bwd_s", "op", "tensor.gelu.bwd", "self"),
    ("tensor.elementwise.fwd_s", "op", ELEMENTWISE, "self"),
    ("tensor.elementwise.bwd_s", "op", _bwd(ELEMENTWISE), "self"),
    ("tensor.tape.backward_s", "op", "tensor.Tape.backward", "total"),
    ("spectral.rfft2.s", "op", "spectral.rfft2", "self"),
    ("spectral.irfft2.s", "op", "spectral.irfft2", "self"),
    ("spectral.rfft2_adjoint.s", "op", "spectral.rfft2_adjoint", "self"),
    ("spectral.irfft2_adjoint.s", "op", "spectral.irfft2_adjoint", "self"),
    ("spectral.promoted_calls", "op", FFTS, "extra"),
    ("operators.spectral_conv.calls", "op", "operators.spectral_conv", "calls"),
    ("operators.spectral_conv.fwd_s", "op", "operators.spectral_conv", "self"),
    ("operators.spectral_conv.bwd_s", "op", "operators.spectral_conv.bwd", "self"),
    ("operators.forward.s", "op", FORWARD, "total"),
    ("training.batched_relative_loss.s", "op", "training.batched_relative_loss", "total"),
    ("training.adam_step.s", "op", "training.adam_step", "total"),
    ("training.batch_s", "op", "training.train", "self"),
    ("training.evaluate.s", "all", "training.evaluate", "total"),
    ("operators.predict_fields.s", "infer", PREDICT, "total"),
    ("operators.make_input.s", "infer", "operators.make_input", "total"),
    ("infer.tensor.conv2d.fwd_s", "infer", "tensor.conv2d", "self"),
    ("infer.tensor.conv2d_transpose.fwd_s", "infer", "tensor.conv2d_transpose", "self"),
    ("infer.operators.spectral_conv.fwd_s", "infer", "operators.spectral_conv", "self"),
    ("infer.spectral.s", "infer", FFTS, "self"),
)


def tail_percentile(values, min_beyond: int = 10):
    """Highest whole percentile with at least ``min_beyond`` samples beyond it.

    Uses nearest-rank percentiles: the p-th percentile of n sorted samples is
    the one at rank ceil(p n / 100). Returns (p, value, samples beyond), or
    None when there are too few samples for any percentile to qualify.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        return None
    p = (100 * (n - min_beyond)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1], n - rank


def _sum(stats, phases, names, field):
    return sum(getattr(stats[(phase, name)], field)
               for phase in phases for name in names if (phase, name) in stats)


def layer_metrics(stats, counts, op_phase: str, n_ops: int, n_series: int, extra: dict) -> dict:
    """Per-layer values from aggregated spans and counters, plus the derived ones;
    ``extra`` supplies workload-side values."""
    phases = {phase for phase, _ in stats} | {phase for phase, _ in counts}
    out = {}
    for name, where, spans, field in SPAN_METRICS:
        names = _names(spans)
        if where == "all":
            calls = _sum(stats, phases, names, "calls")
            out[name] = _sum(stats, phases, names, field) / calls if calls else 0.0
        else:
            phase, denom = (op_phase, n_ops) if where == "op" else ("infer", n_series)
            out[name] = _sum(stats, (phase,), names, field) / max(denom, 1)
    solves = _sum(stats, (op_phase,), ("simulator.solve_pressure",), "calls")
    out["simulator.solve_pressure.ms_per_call"] = (
        1e3 * _sum(stats, (op_phase,), ("simulator.solve_pressure",), "total") / solves
        if solves else 0.0)
    draws = _sum(stats, (op_phase,), ("simulator.run_simulation",), "calls")
    out["simulator.accept_ratio"] = n_ops / draws if draws else 0.0
    convs = ("tensor.conv2d", "tensor.conv2d.bwd")
    flop = _sum(stats, (op_phase,), convs, "extra")
    busy = _sum(stats, (op_phase,), convs, "self")
    out["tensor.conv2d.gflop"] = flop / 1e9 / max(n_ops, 1)
    out["tensor.conv2d.gflop_per_s"] = flop / 1e9 / busy if busy else 0.0
    out["tensor.tape.nodes"] = counts.get((op_phase, "tensor.tape.nodes"), 0) / max(n_ops, 1)
    out["infer.tensor.tape.nodes"] = (counts.get(("infer", "tensor.tape.nodes"), 0)
                                      / max(n_series, 1))
    for name in ("dataio.dataset_mb", "training.evaluate.rel_l2"):
        out[name] = extra.get(name, 0.0)
    return out


def span_names() -> set[str]:
    """Every function or method name the per-layer metrics read spans of."""
    names = set()
    for *_, spans, _ in SPAN_METRICS:
        names.update(n[:-4] if n.endswith(".bwd") else n for n in _names(spans))
    return names
