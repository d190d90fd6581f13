"""Loading, normalising and synthesising per-machine workload traces.

A trace file is a UTF-8 CSV with a header row; columns are picked by name
through a `CsvSchema`.  One `RawTrace` is produced per distinct machine id,
rows sorted by timestamp.  Values are normalised per machine to [0, 1] by
dividing by the machine's maximum, which keeps every machine on a common
scale without mixing information across machines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyFile, MalformedRow, NonMonotonicTimestamps
from .rng import Prng


@dataclass(frozen=True)
class RawTrace:
    """One machine's raw usage series, timestamps strictly increasing."""

    machine_id: str
    timestamps: np.ndarray  # int64
    values: np.ndarray      # float64, finite

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1 or vals.ndim != 1 or len(ts) != len(vals):
            raise ValueError("timestamps and values must be 1-D and equal length")
        if len(ts) < 1:
            raise ValueError("a trace needs at least one row")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise NonMonotonicTimestamps(f"{self.machine_id}: timestamps not strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise MalformedRow(f"{self.machine_id}: non-finite value")
        ts.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class WorkloadSeries:
    """Normalised series in [0, 1]; `scale` recovers the raw units."""

    machine_id: str
    values: np.ndarray
    scale: float = 1.0
    tick: float = 1.0  # sampling interval in seconds, metadata only

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("values must be 1-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if len(vals) and (vals.min() < 0.0 or vals.max() > 1.0):
            raise ValueError("normalised values must lie in [0, 1]")
        if not (self.scale > 0.0):
            raise ValueError("scale must be positive")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CsvSchema:
    """Column names for a trace CSV.

    `machine_col=None` handles single-machine files with no id column;
    such rows are attributed to `default_machine`.  `tick` is carried as
    metadata into the series; timestamps are never resampled.
    """

    machine_col: str | None
    time_col: str
    value_col: str
    tick: float = 1.0
    default_machine: str = "machine-0"


# Presets for the common public trace layouts.
SCHEMAS: dict[str, CsvSchema] = {
    "generic": CsvSchema("machine_id", "timestamp", "value", tick=1.0),
    "alibaba2018": CsvSchema("machine_id", "time_stamp", "cpu_util_percent", tick=10.0),
    "dinda": CsvSchema(None, "timestamp", "load", tick=1.0, default_machine="host-0"),
    "smd": CsvSchema("machine", "timestamp", "value", tick=60.0),
}


def _read_rows(path: Path, schema: CsvSchema) -> dict[str, list[tuple[int, float]]]:
    """Each machine's (timestamp, value) rows, in file order."""
    per_machine: dict[str, list[tuple[int, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        needed = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {missing}")
        for lineno, row in enumerate(reader, start=2):
            machine = row[schema.machine_col] if schema.machine_col else schema.default_machine
            try:
                ts = int(row[schema.time_col])
                val = float(row[schema.value_col])
            except (TypeError, ValueError) as exc:
                raise MalformedRow(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(val):
                raise MalformedRow(f"{path}:{lineno}: non-finite value {val!r}")
            if val < 0.0:
                raise MalformedRow(f"{path}:{lineno}: negative value {val!r}")
            per_machine.setdefault(machine, []).append((ts, val))
    return per_machine


def _first_non_utf8_line(path: Path) -> int:
    """The line, counted from 1, that holds the first byte of `path` that is
    not UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return data.count(b"\n") + 1


def load_csv(path: str | Path, schema: CsvSchema, allow_gaps: bool = False) -> list[RawTrace]:
    """Read a trace CSV into one RawTrace per machine, in first-seen order.

    Timestamps within a machine must form a uniform grid: after sorting, every
    step must equal the smallest step.  A larger gap raises
    NonMonotonicTimestamps unless `allow_gaps` is set, in which case missing
    ticks are forward-filled with the previous value.  Duplicate
    (machine, timestamp) rows are always rejected.  A value that is not a
    finite, non-negative number, or a byte that is not UTF-8, raises
    MalformedRow naming the file and line.
    """
    path = Path(path)
    try:
        per_machine = _read_rows(path, schema)
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}:{_first_non_utf8_line(path)}: not UTF-8 ({exc.reason})") from exc
    if not per_machine:
        raise EmptyFile(f"{path}: no data rows")

    traces = []
    for machine, rows in per_machine.items():
        rows.sort(key=lambda r: r[0])
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        vals = np.array([r[1] for r in rows], dtype=np.float64)
        if len(ts) > 1:
            steps = np.diff(ts)
            if np.any(steps == 0):
                raise NonMonotonicTimestamps(f"{path}: duplicate timestamp for {machine}")
            base = int(steps.min())
            if np.any(steps % base != 0) or (np.any(steps > base) and not allow_gaps):
                raise NonMonotonicTimestamps(
                    f"{path}: {machine} has gaps larger than one tick (pass allow_gaps to forward-fill)"
                )
            if allow_gaps and np.any(steps > base):
                # each tick of the full grid takes the last row at or before it
                full_ts = np.arange(ts[0], ts[-1] + base, base, dtype=np.int64)
                last_row = np.zeros(len(full_ts), dtype=np.int64)
                last_row[(ts - ts[0]) // base] = np.arange(len(ts))
                ts, vals = full_ts, vals[np.maximum.accumulate(last_row)]
        traces.append(RawTrace(machine, ts, vals))
    return traces


def save_csv(traces: list[RawTrace], path: str | Path, schema: CsvSchema) -> None:
    """Write traces back out in the given schema (inverse of load_csv)."""
    path = Path(path)
    cols = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for trace in traces:
            for ts, val in zip(trace.timestamps, trace.values):
                row = [trace.machine_id] if schema.machine_col else []
                writer.writerow(row + [int(ts), repr(float(val))])


def normalize(trace: RawTrace, tick: float = 1.0) -> WorkloadSeries:
    """Scale a machine's values into [0, 1] by its own maximum.

    An all-zero machine keeps scale 1 so the series stays defined (it carries
    no signal either way).
    """
    peak = float(trace.values.max()) if len(trace) else 0.0
    scale = peak if peak > 0.0 else 1.0
    return WorkloadSeries(trace.machine_id, trace.values / scale, scale=scale, tick=tick)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic workload series.

    value(t) = clip_[0,1]( 0.5 + amplitude*sin(2*pi*t/period) + trend_slope*t
                           + gauss(0, noise_std) + burst(t) )

    where burst(t) adds burst_height with probability burst_rate per tick.
    The base level is fixed at 0.5 so a parameter-free spec yields a constant
    mid-scale series.
    """

    length: int
    period: int | None = None
    amplitude: float = 0.0
    noise_std: float = 0.0
    burst_rate: float = 0.0
    burst_height: float = 0.0
    trend_slope: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.period is not None:
            if self.period < 2:
                raise ValueError("period must be >= 2")
            if self.length < 2 * self.period:
                raise ValueError("length must cover at least two periods")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")
        if not (0.0 <= self.burst_rate <= 1.0):
            raise ValueError("burst_rate must lie in [0, 1]")


def generate(spec: SyntheticSpec) -> WorkloadSeries:
    """Draw a synthetic series; identical spec => identical values.

    Exactly three RNG draws happen per tick (two for the Gaussian, one for
    the burst) no matter which features are enabled, so toggling one
    parameter never shifts the draws used by another.
    """
    rng = Prng(spec.seed)
    vals = np.empty(spec.length, dtype=np.float64)
    for t in range(spec.length):
        noise = rng.gauss(0.0, 1.0) * spec.noise_std
        burst = spec.burst_height if rng.uniform() < spec.burst_rate else 0.0
        level = 0.5 + spec.trend_slope * t + noise + burst
        if spec.period is not None:
            level += spec.amplitude * math.sin(2.0 * math.pi * t / spec.period)
        vals[t] = min(1.0, max(0.0, level))
    return WorkloadSeries(f"synth-{spec.seed}", vals, scale=1.0, tick=1.0)
