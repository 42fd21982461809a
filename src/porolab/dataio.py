"""Dataset construction, normalization, and dataset and checkpoint files.

Arrays are stored as NPY files (``numpy.save``) holding little-endian
float32 or float64 values in C order.  Datasets live in a directory as
``K.npy``, ``P.npy``, ``Sw.npy`` plus a plain-text ``manifest.txt``;
checkpoints store one NPY per parameter next to a manifest describing the
architecture and normalization.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .grf import GrfSpec, sample_grf, to_permeability
from .simulator import ReservoirConfig, run_simulation, water_budget_error

_FLOAT_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))
_AMPLITUDE = 10.0   # dataset permeability K = _AMPLITUDE * |g| of a GRF sample g


def _save_npy(path, array: np.ndarray, dtype=None) -> None:
    """Write ``array`` (cast to ``dtype`` if given) as a little-endian C-order NPY file."""
    array = np.asarray(array, dtype=dtype, order="C")
    np.save(path, array.astype(array.dtype.newbyteorder("<"), copy=False))


def _load_npy(path) -> np.ndarray:
    """Read an NPY file; only little-endian float32 and float64 arrays are accepted.

    A truncated or non-NPY file raises ``ValueError``, as does an empty one.
    """
    try:
        array = np.load(path, allow_pickle=False)
    except EOFError as exc:
        raise ValueError(f"{path}: empty file") from exc
    if array.dtype not in _FLOAT_DTYPES:
        raise ValueError(f"{path}: unsupported dtype {array.dtype.str!r}")
    return array


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    """Z-score statistics from the training split; K is log(1+K) first."""

    k_mean: float
    k_std: float
    target_mean: float
    target_std: float
    target_name: str = "p"

    @staticmethod
    def _safe_std(x: np.ndarray, what: str) -> float:
        s = float(x.std())
        if s == 0.0:
            warnings.warn(f"degenerate constant {what}: std is zero, using identity scale")
            return 1.0
        return s

    @classmethod
    def fit(cls, k_train: np.ndarray, target_train: np.ndarray,
            target_name: str) -> "NormStats":
        klog = np.log1p(k_train)
        return cls(
            k_mean=float(klog.mean()),
            k_std=cls._safe_std(klog, "permeability"),
            target_mean=float(target_train.mean()),
            target_std=cls._safe_std(target_train, target_name),
            target_name=target_name,
        )

    def normalize_k(self, k: np.ndarray) -> np.ndarray:
        return (np.log1p(k) - self.k_mean) / self.k_std

    def normalize_target(self, x: np.ndarray) -> np.ndarray:
        return (x - self.target_mean) / self.target_std

    def denormalize_target(self, x: np.ndarray) -> np.ndarray:
        return x * self.target_std + self.target_mean


# ---------------------------------------------------------------------------
# dataset bundle
# ---------------------------------------------------------------------------

@dataclass
class DatasetBundle:
    """All arrays of one generated dataset plus its provenance manifest."""

    k: np.ndarray            # (N, nx, nz)
    p: np.ndarray            # (N, T+1, nx, nz)
    sw: np.ndarray           # (N, T+1, nx, nz)
    manifest: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.k.shape[0]

    @property
    def n_days(self) -> int:
        return self.p.shape[1] - 1

    def n_train(self) -> int:
        return int(np.ceil(self.n_samples * float(self.manifest.get("train_fraction", 0.8))))

    def train_indices(self) -> np.ndarray:
        return np.arange(self.n_train())

    def val_indices(self) -> np.ndarray:
        return np.arange(self.n_train(), self.n_samples)

    def target(self, name: str) -> np.ndarray:
        if name == "p":
            return self.p
        if name == "sw":
            return self.sw
        raise ValueError(f"unknown target {name!r} (expected 'p' or 'sw')")

    def fit_stats(self, target_name: str) -> NormStats:
        """Normalization statistics from the training split only."""
        tr = self.train_indices()
        return NormStats.fit(self.k[tr], self.target(target_name)[tr], target_name)


def build_dataset(n_samples: int, cfg: ReservoirConfig, seed: int,
                  train_fraction: float = 0.8, out_dir=None,
                  progress=None) -> DatasetBundle:
    """Generate permeability fields and simulate their daily time series.

    Sample i is fully determined by (seed, i); if the simulator fails on a
    draw, the event is recorded in the manifest and the next unused draw
    index is taken instead.  The water budget of every accepted sample must
    close to 1e-8.
    """
    if cfg.nx != cfg.nz:
        raise ValueError("dataset grids are square: nx must equal nz")
    spec = GrfSpec(n=cfg.nx, seed=seed)
    days = cfg.total_days
    k_arr = np.empty((n_samples, cfg.nx, cfg.nz), dtype=np.float32)
    p_arr = np.empty((n_samples, days + 1, cfg.nx, cfg.nz), dtype=np.float32)
    sw_arr = np.empty((n_samples, days + 1, cfg.nx, cfg.nz), dtype=np.float32)
    resampled = []
    draw = 0
    for i in range(n_samples):
        while True:
            k = to_permeability(sample_grf(spec, draw), _AMPLITUDE)
            draw += 1
            try:
                sample = run_simulation(k, cfg)
            except (RuntimeError, ValueError, AssertionError) as exc:
                resampled.append(f"draw {draw - 1}: {exc}")
                continue
            break
        err = water_budget_error(sample, cfg)
        if err > 1e-8:
            raise AssertionError(f"sample {i}: water budget error {err:.3e} > 1e-8")
        k_arr[i] = k
        p_arr[i] = sample.p_series
        sw_arr[i] = sample.sw_series
        if progress is not None:
            progress(i)
    manifest = {
        "n_samples": n_samples,
        "seed": seed,
        "train_fraction": train_fraction,
        "amplitude": _AMPLITUDE,
        **_config_entries(cfg),
        "layout": "canonical",
        "resampled": "; ".join(resampled) if resampled else "none",
    }
    bundle = DatasetBundle(k=k_arr, p=p_arr, sw=sw_arr, manifest=manifest)
    if out_dir is not None:
        save_dataset(bundle, out_dir)
    return bundle


# Config fields a manifest records under other keys: the square grid's extent
# as ``grid`` and the horizon as ``days``.
_RENAMED_FIELDS = ("nx", "nz", "total_days")


def _config_entries(cfg: ReservoirConfig) -> dict:
    """Manifest entries from which :func:`reservoir_config_from_manifest` rebuilds ``cfg``."""
    entries = {f.name: getattr(cfg, f.name) for f in fields(cfg)
               if f.name not in _RENAMED_FIELDS}
    return {"grid": cfg.nx, "days": cfg.total_days, **entries}


def _write_manifest(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(entries):
            fh.write(f"{key}: {entries[key]}\n")


def _entry(manifest: dict, key: str, where):
    """``manifest[key]``; a missing key raises ``ValueError`` naming ``where`` and the key."""
    if key not in manifest:
        raise ValueError(f"{where}: manifest has no {key!r} line")
    return manifest[key]


def _read_manifest(path) -> dict:
    """Each ``key: value`` line of a manifest, the value as the Python literal it
    spells where ``ast.literal_eval`` accepts it and as text otherwise."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            key, _, value = line.partition(":")
            value = value.strip()
            try:
                out[key.strip()] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                out[key.strip()] = value
    return out


def save_dataset(bundle: DatasetBundle, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _save_npy(out / "K.npy", bundle.k, "<f4")
    _save_npy(out / "P.npy", bundle.p, "<f4")
    _save_npy(out / "Sw.npy", bundle.sw, "<f4")
    _write_manifest(out / "manifest.txt", {**bundle.manifest, "layout": "canonical"})


def load_dataset(in_dir) -> DatasetBundle:
    src = Path(in_dir)
    if not (src / "manifest.txt").exists():
        raise FileNotFoundError(f"no dataset manifest found in {src}")
    manifest = _read_manifest(src / "manifest.txt")
    if manifest.get("layout") != "canonical":
        raise ValueError(f"{src}: unsupported dataset layout {manifest.get('layout')!r}")
    k, p, sw = (_load_npy(src / name) for name in ("K.npy", "P.npy", "Sw.npy"))
    if p.ndim != 4 or p.shape != sw.shape or k.shape != (p.shape[0], *p.shape[2:]):
        raise ValueError(f"{src}: K {k.shape}, P {p.shape} and Sw {sw.shape} are not "
                         f"[N,H,W], [N,T+1,H,W] and [N,T+1,H,W]")
    return DatasetBundle(k=k, p=p, sw=sw, manifest=manifest)


def reservoir_config_from_manifest(manifest: dict) -> ReservoirConfig:
    """Rebuild the simulator configuration recorded in a dataset manifest.

    A field the manifest does not record (an older manifest lacks the Corey
    exponents) takes its default.
    """
    recorded = {f.name: type(f.default)(manifest[f.name]) for f in fields(ReservoirConfig)
                if f.name in manifest and f.name not in _RENAMED_FIELDS}
    grid = int(_entry(manifest, "grid", "dataset"))
    return ReservoirConfig(nx=grid, nz=grid, total_days=int(_entry(manifest, "days", "dataset")),
                           **recorded)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model, out_dir) -> None:
    """One NPY per parameter plus a plain-text manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = {
        "format": "porolab-checkpoint-1",
        "kind": model.kind,
        "t_max": model.t_max,
        "seed": model.seed,
        "precision": "f8" if model.dtype == np.float64 else "f4",
    }
    entries.update({f"cfg.{key}": val for key, val in asdict(model.cfg).items()})
    entries.update({f"stats.{key}": val for key, val in asdict(model.stats).items()})
    names = []
    for param in model.parameters():
        fname = param.name.replace(".", "__") + ".npy"
        _save_npy(out / fname, param.data)
        names.append(param.name)
    entries["parameters"] = ",".join(names)
    _write_manifest(out / "manifest.txt", entries)


def load_checkpoint(in_dir):
    """Rebuild a model whose forward pass is bit-identical to the saved one."""
    from .operators import Fno, FnoConfig, Mgno, MgnoConfig

    src = Path(in_dir)
    raw = _read_manifest(src / "manifest.txt")
    if raw.get("format") != "porolab-checkpoint-1":
        raise ValueError(f"{src}: unrecognized checkpoint format {raw.get('format')!r}")
    kind = _entry(raw, "kind", src)
    stats = NormStats(target_name=_entry(raw, "stats.target_name", src),
                      **{f.name: float(_entry(raw, f"stats.{f.name}", src))
                         for f in fields(NormStats) if f.name != "target_name"})
    precision = _entry(raw, "precision", src)
    if precision not in ("f4", "f8"):
        raise ValueError(f"{src}: unknown precision {precision!r} (expected 'f4' or 'f8')")
    dtype = np.float64 if precision == "f8" else np.float32
    common = dict(stats=stats, t_max=float(_entry(raw, "t_max", src)), dtype=dtype,
                  seed=int(_entry(raw, "seed", src)))
    classes = {"fno": (Fno, FnoConfig), "mgno": (Mgno, MgnoConfig)}
    if kind not in classes:
        raise ValueError(f"{src}: unknown model kind {kind!r}")
    model_cls, cfg_cls = classes[kind]
    cfg = cfg_cls(**{f.name: int(_entry(raw, f"cfg.{f.name}", src)) for f in fields(cfg_cls)})
    model = model_cls(cfg, **common)
    expected = _entry(raw, "parameters", src).split(",")
    actual = [p.name for p in model.parameters()]
    if expected != actual:
        extra = [n for n in expected if n not in actual]
        missing = [n for n in actual if n not in expected]
        raise ValueError(f"{src}: parameter list mismatch with architecture config: "
                         f"extra {extra}, missing {missing}")
    for param in model.parameters():
        data = _load_npy(src / (param.name.replace(".", "__") + ".npy"))
        if data.shape != param.data.shape:
            raise ValueError(f"{src}: parameter {param.name} shape {data.shape} "
                             f"!= expected {param.data.shape}")
        param.data = data.astype(model.dtype, copy=False)
    return model
