"""porolab benchmark: one workload per process, or all of them in turn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dataset-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it name every metric with its unit and sample count, every
correctness check, and the environment. A failed check makes the exit code 1.
``--workload all`` runs each workload in a fresh process; with ``--trace 1``
it runs each one untraced and traced and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
IMPORT_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("paper", "tiny"), default="paper",
                    help="tiny: 16x16 smoke shape for the benchmark's own tests")
    return ap.parse_args(argv)


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def _blas_threads():
    import ctypes
    import numpy._core._multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(nproc: int) -> dict:
    """Record what the numbers depend on; cap scipy.fft workers at ``nproc``."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from porolab import spectral
        if getattr(spectral, "_WORKERS", 1) > nproc:
            spectral._WORKERS = nproc
        fft_workers = getattr(spectral, "_WORKERS", "scipy default")
    except ImportError:
        fft_workers = "absent"
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "fft_workers": fft_workers,
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def import_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter that imports the benchmark and porolab."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import metrics, tracing, workloads")
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    nproc = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import metrics
    import tracing
    import workloads
    env = environment(nproc)
    import_s = import_seconds(IMPORT_REPS)

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(float32_model=args.workload != "dataset-64") if args.trace else None
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed, seconds=args.seconds,
                            shape=workloads.SHAPES[args.size], import_s=import_s, tracer=tracer)
    patches = tracing.install(tracer) if tracer else None
    try:
        res = workloads.run(args.workload, ctx)
    finally:
        if patches:
            patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} ops={res.n_ops} series={res.n_series}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, n) in res.metrics.items():
        print(f"{name} = {value:.6g} {UNITS[name]} (n={n})")
    for name, value in res.info.items():
        print(f"# {name}: {_fmt(value)}")
    for name, detail in res.checks.items():
        print(f"# check {name}: {'ok' if not detail else 'FAILED: ' + detail}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "env": env, "info": res.info, "checks": res.checks,
              "attempted": res.attempted, "failed": res.failed, "step_s": res.step_s,
              "end_to_end": {k: {"value": v, "unit": UNITS[k], "n": n}
                             for k, (v, n) in res.metrics.items()}}
    if tracer:
        stats = tracing.aggregate(tracer.spans)
        layer = metrics.layer_metrics(stats, tracer.counts, res.op_phase, res.n_ops,
                                      res.n_series, res.layer)
        missing = sorted(metrics.span_names() - tracer.installed)
        tracer.absent += [n for n in missing if n not in tracer.absent]
        for name, value in layer.items():
            print(f"{name} = {value:.6g} {UNITS[name]}")
        print(f"# traced spans: {len(tracer.spans)}; "
              f"absent: {', '.join(tracer.absent) or 'none'}")
        tracer.write(out_dir / f"{tag}.spans.json")
        record["per_layer"] = layer
        record["absent"] = tracer.absent
        record["spans"] = len(tracer.spans)
        shown = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                 for m in SPEC["per_layer"]}
    else:
        shown = {m["name"]: {"value": res.metrics[m["name"]][0], "unit": m["unit"]}
                 for m in SPEC["end_to_end"] if m["name"] in res.metrics}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    correct = not any(res.checks.values())
    if not correct:
        failed = [name for name, detail in res.checks.items() if detail]
        print(f"# correctness gate FAILED: {', '.join(failed)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": shown}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; with --trace 1 also traced, with the overhead."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        results = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            status = max(status, proc.returncode)
            if proc.returncode not in (0, 1) or not lines:
                summary["correct"] = False
                continue
            last = json.loads(lines[-1])
            summary["correct"] &= last["correct"]
            if trace == 0:
                summary["attempted"] += last["attempted"]
                summary["failed"] += last["failed"]
                for name, m in last["metrics"].items():
                    summary["metrics"][f"{workload}.{name}"] = m
            results[trace] = json.loads(
                (ROOT / ".perfbench" / f"{workload}-seed{args.seed}-trace{trace}.json").read_text())
        if len(results) == 2:
            print(f"# tracing overhead on {workload} (traced - untraced):")
            for name, plain in results[0]["end_to_end"].items():
                traced = results[1]["end_to_end"].get(name)
                if traced:
                    delta = traced["value"] - plain["value"]
                    print(f"#   {name}: {delta:+.6g} {plain['unit']} "
                          f"({100 * delta / plain['value']:+.2f}%)")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "porolab").is_dir():
        print(f"error: no porolab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
