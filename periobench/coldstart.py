"""One cold start of the serving path, run as a fresh process.

Imports periocast, loads the served model from its checkpoint and answers
one forecast for the window stored in WINDOW_NPY (rows: x_long, y_period).
Prints {"ready": <perf_counter at the answer>, "y": [...]}; perf_counter is
the system-wide monotonic clock, so the parent subtracts its own reading
taken just before it started this process.

    python3 periobench/coldstart.py CHECKPOINT WINDOW_NPY
"""

import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import json  # noqa: E402

import numpy as np  # noqa: E402

from periocast.checkpoint import load_checkpoint  # noqa: E402
from periocast.model import Ablation, SampleWindow, WindowConfig, forward  # noqa: E402


def main() -> None:
    store, meta, _ = load_checkpoint(sys.argv[1])
    cfg = WindowConfig.from_meta(meta["model"])
    rows = np.load(sys.argv[2])
    x_long, y_period = rows[0], rows[1][: cfg.j]
    window = SampleWindow("coldstart", 0, x_long, x_long[cfg.m - cfg.i:], y_period,
                          np.zeros(cfg.j), np.zeros(cfg.j, dtype=bool))
    y = forward(window, store, cfg, Ablation.FULL).y
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "y": y.tolist()}))


if __name__ == "__main__":
    main()
