"""Build the training pool that the train-* workloads load.

The pool is real simulator output: ``build_dataset`` at 64x64 over 24 days
with the default ``ReservoirConfig`` and GRF seed 0, saved with
``save_dataset``. It is committed, so training runs never simulate and their
numbers do not move when the simulator changes. Regenerate it from the
checkout root with ``python3 perfbench/make_pool.py [OUT_DIR]``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_SAMPLES = 4
POOL_SEED = 0


def build_pool(out_dir, grid: int) -> None:
    from porolab import dataio
    from porolab.simulator import ReservoirConfig

    dataio.build_dataset(POOL_SAMPLES, ReservoirConfig(nx=grid, nz=grid), POOL_SEED,
                         train_fraction=1.0, out_dir=out_dir)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    build_pool(sys.argv[1] if len(sys.argv) > 1 else ROOT / "perfbench" / "pool64", 64)
