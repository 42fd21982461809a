"""Tests of the benchmark itself: tracing, metric arithmetic and the correctness gate.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``. The
smoke runs use the 16x16 ``tiny`` shape and take a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot():
    """Every attribute of every porolab module and of the patched classes."""
    from porolab import operators, tensor
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "porolab"}
    classes = {cls: dict(vars(cls)) for cls in (tensor.Tape, operators.Fno, operators.Mgno)}
    return mods, classes


def test_install_wraps_callers_and_restores_every_name():
    from porolab import dataio, operators, simulator, tensor
    before = _snapshot()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        # names looked up where the caller imported them are wrapped too
        assert dataio.run_simulation is not before[0]["porolab.simulator"]["run_simulation"]
        assert dataio.run_simulation is simulator.run_simulation
        assert operators.conv2d is tensor.conv2d
        assert operators.conv2d is not before[0]["porolab.tensor"]["conv2d"]
        x = tensor.Tensor(np.ones((1, 2, 4, 4)))
        k = tensor.Tensor(np.ones((3, 2, 3, 3)))
        with tensor.Tape() as tape:
            loss = tensor.tensor_sum(operators.conv2d(x, k, 1, 1))
        tape.backward(loss)
    finally:
        patches.restore()
    names = [span[0] for span in tracer.spans]
    assert {"tensor.conv2d", "tensor.tensor_sum", "tensor.Tape.backward",
            "tensor.conv2d.bwd", "tensor.tensor_sum.bwd"} <= set(names)
    conv = next(s for s in tracer.spans if s[0] == "tensor.conv2d")
    assert conv[tracing.EXTRA] == 2.0 * 3 * 16 * 2 * 9
    assert tracer.counts[("setup", "tensor.tape.nodes")] == 2
    after = _snapshot()
    for name, attrs in before[0].items():
        assert all(after[0][name][a] is v for a, v in attrs.items()), name
    for cls, attrs in before[1].items():
        assert all(vars(cls)[a] is v for a, v in attrs.items()), cls


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "MODULES", tracing.MODULES + ("no_such_module",))
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + ("operators.Fno.no_such_method",))
    tracer = tracing.Tracer()
    tracing.install(tracer).restore()
    assert "no_such_module" in tracer.absent
    assert "operators.Fno.no_such_method" in tracer.absent


def _span(name, start, end, parent=-1, nested=False, failed=False):
    return [name, start, end, parent, "op", 0, failed, nested, 0.0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),      # overlaps a: children cover [1, 6]
        _span("a.child", 2.0, 3.0, parent=1),
        _span("late", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 0.5, 2.0, 3.0, 1.0, 1.5])


def test_aggregate_counts_recursion_once_in_total():
    spans = [
        _span("f", 0.0, 4.0),
        _span("f", 1.0, 3.0, parent=0, nested=True),
        _span("g", 5.0, 6.0, failed=True),
    ]
    stats = tracing.aggregate(spans)
    f, g = stats[("op", "f")], stats[("op", "g")]
    assert (f.calls, f.total, f.self) == (2, 4.0, pytest.approx(4.0))
    assert (g.failed, g.failed_total) == (1, 1.0)


@pytest.mark.parametrize("n, p", [(11, 9), (15, 33), (20, 50), (40, 75), (100, 90), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    values = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    got_p, value, beyond = metrics.tail_percentile(values)
    assert got_p == p
    assert beyond == sum(v > value for v in values) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert metrics.tail_percentile(list(range(10))) is None


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    if workload == "dataset-64":
        # the tiny grid rejects draw 3 of seed 0, like the 64x64 grid
        assert last["failed"] == 1
        assert "draw 3: saturation bounds violated" in proc.stdout


def _in_process(monkeypatch, capsys, workload):
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in run.THREAD_VARS:     # run pins these; put them back afterwards
        monkeypatch.setenv(var, os.environ.get(var, str(len(os.sched_getaffinity(0)))))
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.1",
                     "--size", "tiny"])
    return code, capsys.readouterr()


def test_gate_fails_on_a_corrupted_dataset(monkeypatch, capsys):
    from porolab import dataio
    load = dataio.load_dataset

    def corrupted(path):
        bundle = load(path)
        bundle.sw[0, 1, 0, 0] += np.float32(1e-3)
        return bundle

    monkeypatch.setattr(dataio, "load_dataset", corrupted)
    code, out = _in_process(monkeypatch, capsys, "dataset-64")
    assert code == 1
    assert "check load_roundtrip: FAILED" in out.out
    assert json.loads(out.out.splitlines()[-1])["correct"] is False
    assert "load_roundtrip" in out.err


def test_gate_fails_on_a_corrupted_checkpoint(monkeypatch, capsys):
    from porolab import dataio
    load = dataio.load_checkpoint

    def corrupted(path):
        model = load(path)
        p = model.parameters()[0]
        p.value.data = p.data + np.float32(1e-2)
        return model

    monkeypatch.setattr(dataio, "load_checkpoint", corrupted)
    code, out = _in_process(monkeypatch, capsys, "train-fno-64")
    assert code == 1
    assert "check checkpoint_reload: FAILED" in out.out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("pool64", "__pycache__"))
    proc = _run("--workload", "dataset-64", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
