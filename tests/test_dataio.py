"""Dataset and checkpoint files: NPY format, round trips, manifests."""

import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porolab import dataio
from porolab.dataio import (DatasetBundle, NormStats, build_dataset, load_dataset,
                            reservoir_config_from_manifest, save_dataset)
from porolab.grf import GrfSpec, sample_grf, to_permeability
from porolab.simulator import ReservoirConfig

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool64"


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _bundle(dtype=np.float32, n=3, days=4, grid=8):
    rng = np.random.default_rng(5)
    return DatasetBundle(
        k=rng.random((n, grid, grid)).astype(dtype),
        p=rng.standard_normal((n, days + 1, grid, grid)).astype(dtype),
        sw=rng.random((n, days + 1, grid, grid)).astype(dtype),
        manifest={"n_samples": n, "grid": grid, "days": days, "seed": 3,
                  "train_fraction": 0.8, "mu_o": 5.0, "resampled": "none"},
    )


class TestDatasetRoundTrip:
    def test_arrays_and_manifest_survive(self, tmp_path):
        bundle = _bundle()
        save_dataset(bundle, tmp_path)
        loaded = load_dataset(tmp_path)
        for name in ("k", "p", "sw"):
            a, b = getattr(bundle, name), getattr(loaded, name)
            assert b.dtype == np.float32 and np.array_equal(a, b), name
        assert loaded.manifest == {**bundle.manifest, "layout": "canonical"}
        assert np.load(tmp_path / "K.npy").shape == (3, 8, 8)

    def test_other_layout_rejected(self, tmp_path):
        # a dataset written with K repeated per day, [N, T+1, H, W]
        save_dataset(_bundle(), tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text(encoding="utf-8")
        (tmp_path / "manifest.txt").write_text(
            manifest.replace("layout: canonical", "layout: repeated"), encoding="utf-8")
        with pytest.raises(ValueError, match="layout 'repeated'"):
            load_dataset(tmp_path)

    def test_float64_bundle_is_stored_as_float32(self, tmp_path):
        bundle = _bundle(np.float64)
        save_dataset(bundle, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.p.dtype == np.float32
        assert np.array_equal(loaded.p, bundle.p.astype(np.float32))

    def test_files_are_numpy_npy_in_c_order(self, tmp_path):
        # a Fortran-ordered field must still be written in C order
        bundle = _bundle()
        bundle.p = np.asfortranarray(bundle.p)
        save_dataset(bundle, tmp_path)
        for fname, array in (("K.npy", bundle.k), ("P.npy", bundle.p), ("Sw.npy", bundle.sw)):
            expected = _npy_bytes(np.ascontiguousarray(array, dtype="<f4"))
            assert (tmp_path / fname).read_bytes() == expected, fname

    def test_committed_pool_reloads_and_resaves_byte_identically(self, tmp_path):
        pool = load_dataset(POOL)
        for name, fname in (("k", "K.npy"), ("p", "P.npy"), ("sw", "Sw.npy")):
            committed = np.load(POOL / fname)
            assert getattr(pool, name).dtype == np.float32
            assert np.array_equal(getattr(pool, name), committed)
        save_dataset(pool, tmp_path)
        for fname in ("K.npy", "P.npy", "Sw.npy"):
            assert (tmp_path / fname).read_bytes() == (POOL / fname).read_bytes(), fname

    @pytest.mark.parametrize("k, p, sw", [
        ((3, 8, 8), (2, 5, 8, 8), (2, 3, 8, 8)),
        ((2, 8, 8), (2, 5, 8, 8), (2, 4, 8, 8)),
        ((3, 8, 8), (2, 5, 8, 8), (2, 5, 8, 8)),
        ((2, 8, 6), (2, 5, 8, 8), (2, 5, 8, 8)),
        ((2, 5, 8, 8), (2, 5, 8, 8), (2, 5, 8, 8)),
        ((2, 8, 8), (2, 8, 8), (2, 8, 8)),
        ((2, 8, 8, 1), (2, 5, 8, 8, 1), (2, 5, 8, 8, 1)),
    ], ids=["all-three", "p-sw-days", "k-samples", "k-grid", "k-per-day", "no-day-axis",
            "extra-axis"])
    def test_arrays_that_disagree_rejected(self, tmp_path, k, p, sw):
        save_dataset(_bundle(), tmp_path)
        rng = np.random.default_rng(0)
        for fname, shape in (("K.npy", k), ("P.npy", p), ("Sw.npy", sw)):
            np.save(tmp_path / fname, rng.random(shape).astype("<f4"))
        with pytest.raises(ValueError, match=rf"K \({k[0]}, .*are not \[N,H,W\]"):
            load_dataset(tmp_path)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)


class TestNpyFiles:
    def test_zero_dim_array_keeps_its_shape(self, tmp_path):
        dataio._save_npy(tmp_path / "s.npy", np.float64(3.5))
        back = dataio._load_npy(tmp_path / "s.npy")
        assert back.shape == () and back.dtype == np.float64 and back == 3.5

    def test_int_array_rejected(self, tmp_path):
        save_dataset(_bundle(), tmp_path)
        np.save(tmp_path / "K.npy", np.arange(3 * 8 * 8).reshape(3, 8, 8))
        with pytest.raises(ValueError, match="unsupported dtype"):
            load_dataset(tmp_path)

    def test_big_endian_array_rejected(self, tmp_path):
        np.save(tmp_path / "b.npy", np.ones(4, dtype=">f8"))
        with pytest.raises(ValueError, match="unsupported dtype"):
            dataio._load_npy(tmp_path / "b.npy")

    @pytest.mark.parametrize("keep", [0, 5, 60, -4])
    def test_truncated_file_rejected(self, tmp_path, keep):
        save_dataset(_bundle(), tmp_path)
        data = (tmp_path / "P.npy").read_bytes()
        (tmp_path / "P.npy").write_bytes(data[:keep] if keep >= 0 else data[:len(data) + keep])
        with pytest.raises(ValueError):
            load_dataset(tmp_path)

    def test_non_npy_bytes_rejected(self, tmp_path):
        (tmp_path / "x.npy").write_bytes(b"not an array, just some text\n" * 4)
        with pytest.raises(ValueError):
            dataio._load_npy(tmp_path / "x.npy")

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(0, 6), min_size=0, max_size=4),
           dtype=st.sampled_from(["<f4", "<f8"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, shape, dtype, seed):
        array = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
        buf = io.BytesIO()
        dataio._save_npy(buf, array)
        assert buf.getvalue() == _npy_bytes(array)
        buf.seek(0)
        back = dataio._load_npy(buf)
        assert back.dtype == np.dtype(dtype) and back.shape == array.shape
        assert back.tobytes() == array.tobytes()


class TestNormStats:
    def test_constant_permeability_warns_and_uses_unit_scale(self):
        k = np.full((2, 4, 4), 3.0)
        p = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
        with pytest.warns(UserWarning, match="degenerate constant permeability"):
            stats = NormStats.fit(k, p, "p")
        assert stats.k_std == 1.0 and stats.k_mean == pytest.approx(np.log1p(3.0), rel=1e-15)
        assert stats.target_std == p.std() and stats.target_mean == p.mean()
        assert np.max(np.abs(stats.normalize_k(k))) < 1e-15


class TestManifestConfig:
    def test_build_records_every_config_field(self, tmp_path):
        cfg = ReservoirConfig(nx=8, nz=8, total_days=2, corey_nw=3.0, corey_no=1.5,
                              mu_o=4.0, substep_cfl=0.4)
        built = build_dataset(1, cfg, seed=2, out_dir=tmp_path)
        assert reservoir_config_from_manifest(built.manifest) == cfg
        assert reservoir_config_from_manifest(load_dataset(tmp_path).manifest) == cfg

    @pytest.mark.parametrize("key", ["grid", "days"])
    def test_missing_grid_or_days_rejected(self, key):
        manifest = dataio._config_entries(ReservoirConfig(nx=8, nz=8, total_days=2))
        del manifest[key]
        with pytest.raises(ValueError, match=f"manifest has no '{key}' line"):
            reservoir_config_from_manifest(manifest)

    def test_negative_injection_raises_at_once(self):
        # a negative injection rate once made every draw fail its saturation
        # bounds, and build_dataset resampled without end
        with pytest.raises(ValueError, match="q_inj must be non-negative"):
            build_dataset(1, ReservoirConfig(nx=8, nz=8, q_inj=-0.1), seed=0)

    def test_committed_pool_reproduces_its_permeability(self):
        # sample i is the i-th draw that the manifest's resampled line does not list
        pool = load_dataset(POOL)
        manifest = pool.manifest
        skipped = {int(d) for d in re.findall(r"draw (\d+):", manifest["resampled"])}
        draws = [d for d in range(pool.n_samples + len(skipped)) if d not in skipped]
        assert draws == [0, 1, 2, 4]
        spec = GrfSpec(n=manifest["grid"], seed=manifest["seed"])
        for i, draw in enumerate(draws):
            k = to_permeability(sample_grf(spec, draw), manifest["amplitude"])
            assert np.array_equal(pool.k[i], k.astype(np.float32)), draw

    def test_committed_pool_manifest_loads_with_default_physics(self):
        # the pool predates recording the Corey exponents: they take their defaults
        cfg = reservoir_config_from_manifest(load_dataset(POOL).manifest)
        assert cfg == ReservoirConfig(nx=64, nz=64, total_days=24)
