"""Seeded inputs for the three benchmark workloads.

Every machine is generated here with numpy's PCG64 stream, so the program
under test only ever sees CSV files and the windows it cuts from them.  Each
machine records the cycle lengths it was generated with, which the period
check compares the detected period against.

Machine kinds:

* ``periodic``  0.5 + A sin(2 pi t / P) + noise, one fixed integer P.
* ``lax``       the same with a drifting cycle: every cycle draws its own
                integer length from [P_lo, P_hi] and the phase stays
                continuous, so the template never lines up exactly.
* ``ar1``       x_t = phi x_{t-1} + noise around 0.5; no period exists.

Every kind gets rare one-tick heavy spikes, so the heavy slice (points above
mean + one std) holds both cycle crests and spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The README model: recent window, long window, horizon, network size.
WINDOW = dict(i=24, m=48, j=2, hidden=32, layers=2, ds_step=8, ds_window=48)

# The accuracy model is trained on a fleet drawn from this seed, never from
# --seed, so test_mse and heavy_mse repeat bit for bit on every run and only
# a change to the arithmetic can move them.
ACCURACY_SEED = 20230803

TRAIN_BATCH = 64
FORECAST_BATCH = 256

SPIKE_RATE = 0.01
SPIKE_HEIGHT = 0.45


@dataclass(frozen=True)
class Machine:
    machine_id: str
    kind: str                    # "periodic", "lax" or "ar1"
    cycle_lengths: tuple[int, int] | None   # (lo, hi); None for ar1
    values: np.ndarray           # raw load, positive


@dataclass(frozen=True)
class WorkloadSpec:
    """Make-up of one workload.

    `kinds` lists the kind of each machine of the seeded fleet; the timed
    loop ingests one machine's CSV per ingest operation, in turn.  A round
    is one ingest operation, `train_steps` training steps of TRAIN_BATCH
    windows and `batched` no-tape forecasts of FORECAST_BATCH windows, with
    `online` single-window requests after each of those operations.
    """

    name: str
    kinds: tuple[str, ...]
    length: int
    accuracy_kinds: tuple[str, ...]
    accuracy_length: int
    accuracy_epochs: int
    periods: tuple[int, ...]     # fixed periods drawn for periodic machines
    lax_range: tuple[int, int]   # cycle-length range of lax machines
    distance: str = "mse"
    dtw_band: int | None = None
    train_steps: int = 1
    batched: int = 1
    online: int = 2


WORKLOADS: dict[str, WorkloadSpec] = {
    # Training-bound: a dozen short mixed machines, four training steps
    # per round, light ingest.
    "fleet-train": WorkloadSpec(
        name="fleet-train",
        kinds=("periodic",) * 5 + ("lax",) * 4 + ("ar1",) * 3,
        length=600,
        accuracy_kinds=("periodic",) * 5 + ("lax",) * 4 + ("ar1",) * 3,
        accuracy_length=600,
        accuracy_epochs=3,
        periods=(12, 14, 16, 18),
        lax_range=(20, 28),
        train_steps=4, batched=1, online=2,
    ),
    # Serving-bound: long traces (ACF cost grows with n * k_max), template
    # matching for thousands of windows per machine, and batched plus online
    # forecasts from the served checkpoint.  One training step per round.
    "fleet-serve": WorkloadSpec(
        name="fleet-serve",
        kinds=("periodic",) * 12 + ("lax",) * 8 + ("ar1",) * 4,
        length=3000,
        accuracy_kinds=("periodic",) * 3 + ("lax",) * 2 + ("ar1",) * 1,
        accuracy_length=1000,
        accuracy_epochs=3,
        periods=(12, 14, 16, 18),
        lax_range=(20, 28),
        train_steps=1, batched=4, online=6,
    ),
    # The same matching call done by banded DTW on lax machines with short
    # drifting cycles; ingest dominates and nothing else touches DTW.
    "lax-dtw": WorkloadSpec(
        name="lax-dtw",
        kinds=("lax",) * 12,
        length=160,
        accuracy_kinds=("lax",) * 6,
        accuracy_length=160,
        accuracy_epochs=10,
        periods=(),
        lax_range=(11, 13),
        distance="dtw",
        dtw_band=1,
        train_steps=1, batched=1, online=3,
    ),
}


def _periodic(rng: np.random.Generator, n: int, period: int) -> np.ndarray:
    amp = rng.uniform(0.2, 0.3)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(n)
    return 0.5 + amp * np.sin(2.0 * math.pi * t / period + phase) + rng.normal(0.0, 0.04, n)


def _lax(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    amp = rng.uniform(0.2, 0.3)
    phase = np.empty(n)
    pos = 0
    start = rng.uniform(0.0, 2.0 * math.pi)
    while pos < n:
        length = int(rng.integers(lo, hi + 1))
        step = np.arange(min(length, n - pos))
        phase[pos: pos + len(step)] = start + 2.0 * math.pi * step / length
        start += 2.0 * math.pi
        pos += length
    return 0.5 + amp * np.sin(phase) + rng.normal(0.0, 0.04, n)


def _ar1(rng: np.random.Generator, n: int) -> np.ndarray:
    phi = rng.uniform(0.3, 0.5)
    noise = rng.normal(0.0, 0.08, n)
    x = np.empty(n)
    x[0] = noise[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return 0.5 + x


def fleet(spec: WorkloadSpec, kinds: tuple[str, ...], length: int, seed: int) -> list[Machine]:
    """Draw one fleet; the same (spec, kinds, length, seed) gives the same values."""
    rng = np.random.default_rng([seed, len(kinds), length])
    machines = []
    for k, kind in enumerate(kinds):
        if kind == "periodic":
            period = int(spec.periods[k % len(spec.periods)])
            base = _periodic(rng, length, period)
            cycles = (period, period)
        elif kind == "lax":
            base = _lax(rng, length, *spec.lax_range)
            cycles = spec.lax_range
        else:
            base = _ar1(rng, length)
            cycles = None
        spikes = rng.uniform(size=length) < SPIKE_RATE
        values = np.maximum(base + SPIKE_HEIGHT * spikes, 0.02) * 100.0
        machines.append(Machine(f"{kind}-{k:03d}", kind, cycles, values))
    return machines


def write_csv(machine: Machine, path: Path) -> None:
    """One machine per file in the generic schema (machine_id,timestamp,value)."""
    lines = ["machine_id,timestamp,value"]
    lines += [f"{machine.machine_id},{t},{v:.6f}" for t, v in enumerate(machine.values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
