"""The benchmark workloads, their correctness gate and their end-to-end metrics.

Each workload runs closed-loop in one process: it issues its next operation
only when the previous one has returned. The library is called through
module attributes (``dataio.build_dataset``), so the tracing wrappers, when
installed, see every call.
"""

from __future__ import annotations

import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from porolab import dataio, grf, operators, simulator, training
from porolab.simulator import ReservoirConfig

from make_pool import POOL_SAMPLES, POOL_SEED, build_pool
from metrics import tail_percentile

N_TRAIN = 2          # pool samples trained on: 2 x 25 daily snapshots = one B=50 batch
# dataset-64 simulates the same fields on every run, so every run does the
# same work: at this GRF seed draw 0 is rejected (saturation bounds) and
# draw 1 is accepted, so the load includes a rejected draw.
FIELD_SEED = 41


@dataclass(frozen=True)
class Shape:
    """Problem size. ``paper`` is what the benchmark measures; ``tiny`` is for its tests."""

    grid: int
    fno: operators.FnoConfig
    mgno: operators.MgnoConfig
    field_seed: int           # GRF seed of the fields dataset-64 simulates
    dataset_samples: int      # accepted samples per dataset-64 build
    pool: str | None          # committed training pool, relative to the checkout root
    ref_op_s: dict            # seconds per op (build or step) on a 2-core Xeon
    min_ops: dict
    setup_reps: int
    infer_series: int


SHAPES = {
    "paper": Shape(64, operators.FnoConfig(), operators.MgnoConfig(), FIELD_SEED, 1,
                   "perfbench/pool64",
                   {"dataset-64": 17.0, "train-fno-64": 1.2, "train-mgno-64": 2.5},
                   {"dataset-64": 2, "train-fno-64": 10, "train-mgno-64": 6},
                   setup_reps=3, infer_series=8),
    "tiny": Shape(16, operators.FnoConfig(width=8, modes1=4, modes2=4, depth=2),
                  operators.MgnoConfig(depth=2, channels=4, levels=2), POOL_SEED, 4, None,
                  {"dataset-64": 0.5, "train-fno-64": 0.05, "train-mgno-64": 0.05},
                  {"dataset-64": 1, "train-fno-64": 3, "train-mgno-64": 3},
                  setup_reps=2, infer_series=2),
}


@dataclass
class Context:
    root: Path
    work: Path                # scratch directory of this run, inside the checkout
    seed: int
    seconds: float
    shape: Shape
    import_s: float
    tracer: object = None

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def n_ops(self, workload: str) -> int:
        """Fixed work per run: about ``seconds`` of it on the reference machine."""
        return max(self.shape.min_ops[workload],
                   round(self.seconds / self.shape.ref_op_s[workload]))


@dataclass
class Result:
    op_phase: str
    metrics: dict = field(default_factory=dict)   # name -> (value, sample count)
    checks: dict = field(default_factory=dict)    # name -> failure detail, "" when it passed
    info: dict = field(default_factory=dict)      # printed and saved, not gated
    layer: dict = field(default_factory=dict)     # workload-side per-layer values
    attempted: int = 0
    failed: int = 0
    n_ops: int = 0            # accepted samples or training steps
    n_series: int = 0
    step_s: list = field(default_factory=list)    # every step time, saved with the result

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = "" if ok else detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.iterdir()) / 1e6


def _report_setup(res: Result, ctx: Context, reps) -> None:
    """setup_s: median fresh-interpreter import time plus median in-process set-up."""
    res.metrics["setup_s"] = (ctx.import_s + statistics.median(reps), len(reps))
    res.info["import_s"] = ctx.import_s
    res.info["setup_reps_s"] = [round(t, 4) for t in reps]


def _report_steps(res: Result, times) -> None:
    res.step_s = [float(t) for t in times]
    tail = tail_percentile(times)
    res.info["steps"] = len(times)
    res.info["step_s_mean"] = statistics.fmean(times)
    res.info["step_s_p50"] = statistics.median(times)
    res.info["step_s_min"] = min(times)
    res.info["step_s_max"] = max(times)
    res.info["step_s_tail"] = (
        f"p{tail[0]} = {tail[1]:.6g} s ({tail[2]} steps beyond, n={len(times)})"
        if tail else f"none: n={len(times)} leaves no percentile with 10 steps beyond")


# ---------------------------------------------------------------------------
# dataset-64
# ---------------------------------------------------------------------------

_RESAMPLED = re.compile(r"draw (\d+): (.*?)(?=; draw \d+: |$)")


def parse_resampled(manifest: dict):
    """(draw index, reason) pairs from the manifest's ``resampled`` field, or None if absent."""
    text = manifest.get("resampled")
    if text is None:
        return None
    return [(int(d), reason) for d, reason in _RESAMPLED.findall(str(text))]


@dataclass
class Draw:
    seconds: float
    error: str = ""
    budget: float = 0.0
    sw_min: float = 0.0
    sw_max: float = 0.0


def run_dataset(ctx: Context) -> Result:
    res = Result(op_phase="build")
    g = ctx.shape.grid
    builds, per_build = ctx.n_ops("dataset-64"), ctx.shape.dataset_samples

    # set-up: configuration, the first GRF draw and one pressure assembly and solve
    reps = []
    for _ in range(ctx.shape.setup_reps):
        t0 = time.perf_counter()
        cfg = ReservoirConfig(nx=g, nz=g)
        k = grf.to_permeability(grf.sample_grf(grf.GrfSpec(n=g, seed=ctx.seed), 0), 10.0)
        a, b = simulator.assemble_pressure(k, np.full((g, g), cfg.sw_init), cfg)
        simulator.solve_pressure(a, b)
        reps.append(time.perf_counter() - t0)
    _report_setup(res, ctx, reps)

    # Observe every draw's outcome for the gate, and the end of every IMPES
    # step (one saturation update each) for the printed step times; results
    # pass through unchanged.
    draws: list[Draw] = []
    simulate = dataio.run_simulation
    update = simulator.update_saturation
    step_times: list[float] = []
    last = [0.0]

    def stepped(*args, **kwargs):
        out = update(*args, **kwargs)
        now = time.perf_counter()
        step_times.append(now - last[0])
        last[0] = now
        return out

    def observed(k, cfg):
        t0 = time.perf_counter()
        try:
            sample = simulate(k, cfg)
        except (RuntimeError, ValueError, AssertionError) as exc:
            draws.append(Draw(time.perf_counter() - t0, error=str(exc)))
            raise
        draws.append(Draw(time.perf_counter() - t0,
                          budget=simulator.water_budget_error(sample, cfg),
                          sw_min=float(sample.sw_series.min()),
                          sw_max=float(sample.sw_series.max())))
        return sample

    # timed loop: the same build, of the same fields, ``builds`` times
    walls: list[float] = []
    rejected: list | None = []
    lo, hi = cfg.swc, 1.0 - cfg.sor
    sw_ok = same = True
    for i in range(builds):
        out = ctx.work / f"dataset{i}"
        ctx.phase("build")
        dataio.run_simulation, simulator.update_saturation = observed, stepped
        t0 = last[0] = time.perf_counter()
        try:
            bundle = dataio.build_dataset(per_build, cfg, ctx.shape.field_seed, out_dir=out,
                                          progress=lambda _i: ctx.next_op())
        except AssertionError as exc:       # build_dataset's own water-budget check
            res.check("water_budget", False, str(exc))
            res.attempted = len(draws)
            return res
        finally:
            dataio.run_simulation, simulator.update_saturation = simulate, update
        walls.append(time.perf_counter() - t0)
        ctx.phase("load")
        loaded = dataio.load_dataset(out)
        ctx.phase("done")
        listed = parse_resampled(bundle.manifest)
        rejected = None if listed is None or rejected is None else rejected + listed
        sw_ok &= bool(np.all((bundle.sw >= np.float32(lo)) & (bundle.sw <= np.float32(hi))))
        same &= all(a.dtype == b.dtype and np.array_equal(a, b)
                    for a, b in ((bundle.k, loaded.k), (bundle.p, loaded.p),
                                 (bundle.sw, loaded.sw)))
        res.layer["dataio.dataset_mb"] = _dir_mb(out)
        shutil.rmtree(out, ignore_errors=True)

    res.metrics["s_per_op"] = (statistics.median(walls) / per_build, builds)
    res.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    _report_steps(res, step_times)

    observed_rejects = [d for d in draws if d.error]
    accepted = [d for d in draws if not d.error]
    res.n_ops = builds * per_build
    res.attempted = len(draws)
    res.failed = len(rejected) if rejected is not None else len(observed_rejects)
    res.info["build_s"] = [round(t, 3) for t in walls]
    res.info["fail_frac"] = res.failed / max(res.attempted, 1)
    res.info["draws"] = len(draws)
    res.info["rejected"] = [f"draw {d}: {why}" for d, why in rejected or ()]
    res.info["rejected_s"] = sum(d.seconds for d in observed_rejects)

    res.check("sw_bounds",
              sw_ok and len(accepted) == res.n_ops
              and all(lo <= d.sw_min and d.sw_max <= hi for d in accepted),
              f"accepted samples leave [{lo}, {hi}]")
    worst = max((d.budget for d in accepted), default=float("inf"))
    res.check("water_budget", worst <= 1e-8, f"water budget error {worst:.3e} > 1e-8")
    res.check("load_roundtrip", same, "load_dataset differs from the built bundle")
    res.check("rejections_recorded",
              rejected is not None and len(rejected) == len(observed_rejects),
              f"manifest lists {None if rejected is None else len(rejected)} rejected draws, "
              f"{len(observed_rejects)} were observed")
    return res


# ---------------------------------------------------------------------------
# train-fno-64, train-mgno-64
# ---------------------------------------------------------------------------

def _subset(pool, idx) -> dataio.DatasetBundle:
    idx = list(idx)
    return dataio.DatasetBundle(k=pool.k[idx], p=pool.p[idx], sw=pool.sw[idx],
                                manifest={**pool.manifest, "train_fraction": 1.0})


def pool_dir(ctx: Context) -> Path:
    """The committed training pool; the tiny shape simulates a fresh one in the run's work dir."""
    if ctx.shape.pool is not None:
        return ctx.root / ctx.shape.pool
    path = ctx.work / "pool"
    build_pool(path, ctx.shape.grid)
    return path


def run_train(ctx: Context, kind: str) -> Result:
    res = Result(op_phase="train")
    workload = f"train-{kind}-64"
    model_cls, model_cfg = ((operators.Fno, ctx.shape.fno) if kind == "fno"
                            else (operators.Mgno, ctx.shape.mgno))
    order = Generator(Philox(key=ctx.seed)).permutation(POOL_SAMPLES)
    train_idx, eval_idx = sorted(order[:N_TRAIN]), int(order[N_TRAIN])
    path = pool_dir(ctx)

    def train_config(steps: int) -> training.TrainConfig:
        return training.TrainConfig(epochs=steps, batch_size=N_TRAIN * 25, train_fraction=1.0,
                                    seed=ctx.seed)

    # set-up: load the pool, initialise the model, one warm-up step
    reps = []
    for _ in range(ctx.shape.setup_reps):
        t0 = time.perf_counter()
        pool = dataio.load_dataset(path)
        train_set = _subset(pool, train_idx)
        model = model_cls(model_cfg, stats=train_set.fit_stats("p"), t_max=float(pool.n_days),
                          dtype=np.float32, seed=ctx.seed)
        training.train(model, train_set, train_config(1))
        reps.append(time.perf_counter() - t0)
    _report_setup(res, ctx, reps)

    # timed loop: one step per epoch, since the two samples make exactly one batch
    n = ctx.n_ops(workload)
    marks: list[float] = []
    losses: list[float] = []

    def log(record):
        marks.append(time.perf_counter())
        losses.append(record.train_loss)
        ctx.next_op()

    ctx.phase("train")
    t0 = time.perf_counter()
    try:
        training.train(model, train_set, train_config(n), log=log)
        error = ""
    except RuntimeError as exc:      # train() raises on a non-finite loss
        error = str(exc)
    ctx.phase("done")
    step_times = list(np.diff([t0] + marks))
    res.n_ops = len(step_times)
    res.attempted = len(step_times) + (1 if error else 0)
    res.failed = 1 if error else 0
    res.info["fail_frac"] = res.failed / res.attempted
    res.info["first_loss"] = losses[0] if losses else float("nan")
    res.info["last_loss"] = losses[-1] if losses else float("nan")
    res.check("loss_finite", not error and all(np.isfinite(losses)), error or "non-finite loss")
    res.check("loss_decreased", len(losses) > 1 and losses[-1] < losses[0],
              f"loss {res.info['first_loss']:.6g} -> {res.info['last_loss']:.6g}")
    if error:
        return res
    res.metrics["s_per_op"] = (statistics.fmean(step_times), len(step_times))
    _report_steps(res, step_times)
    params = model.parameters()
    res.check("float32_gradients",
              all(p.data.dtype == np.float32 and (p.grad is None or p.grad.dtype == np.float32)
                  for p in params) and any(p.grad is not None for p in params),
              "a parameter or gradient of the float32 model is not float32")

    days = np.arange(pool.n_days + 1, dtype=np.float64)
    k_eval = pool.k[eval_idx].astype(np.float64)
    ctx.phase("ckpt")
    ckpt = ctx.work / "checkpoint"
    dataio.save_checkpoint(model, ckpt)
    loaded = dataio.load_checkpoint(ckpt)
    before = model.predict_fields(k_eval, days)
    after = loaded.predict_fields(k_eval, days)
    res.check("checkpoint_reload", before.dtype == after.dtype and np.array_equal(before, after),
              "the reloaded checkpoint predicts differently")
    res.check("float32_predictions", after.dtype == np.float32,
              f"predictions are {after.dtype}, not float32")
    shutil.rmtree(ckpt, ignore_errors=True)

    ctx.phase("infer")
    series_times = []
    for i in range(ctx.shape.infer_series):
        k = pool.k[order[i % POOL_SAMPLES]].astype(np.float64)
        t0 = time.perf_counter()
        loaded.predict_fields(k, days)
        series_times.append(time.perf_counter() - t0)
    res.n_series = len(series_times)

    ctx.phase("eval")
    rel_l2, _, _ = training.evaluate(loaded, _subset(pool, [eval_idx]), [0])
    ctx.phase("done")
    res.metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    res.info["rel_l2"] = rel_l2
    res.info["infer_s_per_series"] = statistics.median(series_times)
    res.layer["training.evaluate.rel_l2"] = rel_l2
    res.layer["dataio.dataset_mb"] = _dir_mb(path)
    res.check("rel_l2_finite", bool(np.isfinite(rel_l2)), f"rel_l2 is {rel_l2}")
    return res


def run(workload: str, ctx: Context) -> Result:
    if workload == "dataset-64":
        return run_dataset(ctx)
    return run_train(ctx, workload.split("-")[1])
