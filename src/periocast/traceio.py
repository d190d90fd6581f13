"""Loading, normalising and synthesising per-machine workload traces.

A trace file is a UTF-8 CSV with a header row; columns are picked by name
through a `CsvSchema`.  One `RawTrace` is produced per distinct machine id,
rows sorted by timestamp.  Values are normalised per machine to [0, 1] by
dividing by the machine's maximum, which keeps every machine on a common
scale without mixing information across machines.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyFile, MalformedRow, NonMonotonicTimestamps
from .rng import Prng

_INT64 = np.iinfo(np.int64)
_CHUNK_ROWS = 1024  # rows (or lines) parsed at once: bounds the memory a read takes
# Only csv.reader reads a quote.  numpy's number parsing strips \x1c-\x1f as
# spaces, which Python's int and float refuse, and takes some non-ASCII
# letters as digits, so files with any of these go to csv.reader too.
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


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


def _bad_row(path: Path, text: str, schema: CsvSchema, at: dict[str, int]) -> MalformedRow:
    """The error for the first row, in file order, that `load_csv` cannot
    take, naming the line that row starts on.  `at` maps each column the
    schema reads to its index in a row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)  # the header
    start = reader.line_num + 1  # each row starts on the line after the last one read
    for row in reader:
        line, start = start, reader.line_num + 1
        if not row:
            continue
        try:
            for name, k in at.items():
                if k >= len(row):
                    raise ValueError(f"no {name!r} field")
            ts = int(row[at[schema.time_col]])
            if not _INT64.min <= ts <= _INT64.max:
                raise ValueError(f"timestamp {ts} outside the int64 range")
            val = float(row[at[schema.value_col]])
        except ValueError as exc:
            return MalformedRow(f"{path}:{line}: {exc}")
        if not math.isfinite(val):
            return MalformedRow(f"{path}:{line}: non-finite value {val!r}")
        if val < 0.0:
            return MalformedRow(f"{path}:{line}: negative value {val!r}")
    raise AssertionError(f"{path}: no bad row found")


def _plain_blocks(text: str, schema: CsvSchema, at: dict[str, int]):
    """The data rows of a plain file, as (ids, timestamps, values)
    per block of `_CHUNK_ROWS` lines, parsed by numpy's C tokenizer.  It
    raises on any row it cannot take, including cells that Python's `int`
    or `float` accept but it does not (`1_000`), and on a line longer than
    `csv.reader`'s field limit."""
    fields = [("ts", np.int64, schema.time_col), ("val", np.float64, schema.value_col)]
    if schema.machine_col:
        fields.insert(0, ("id", object, schema.machine_col))
    dtype = np.dtype([(name, kind) for name, kind, _ in fields])
    usecols = [at[col] for _, _, col in fields]
    limit = csv.field_size_limit()
    lines = io.StringIO(text, newline=None)  # ends lines at \n, \r\n and \r, as csv.reader does
    next(lines)  # the header
    while block := list(itertools.islice(lines, _CHUNK_ROWS)):
        if max(map(len, block)) > limit:
            raise ValueError("a line longer than the csv field limit")
        if block.count("\n") == len(block):
            continue  # only blank lines, which loadtxt would warn about
        rows = np.loadtxt(block, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=1)
        yield (rows["id"] if schema.machine_col else None), rows["ts"], rows["val"]


def _csv_blocks(path: Path, text: str, reader, schema: CsvSchema, at: dict[str, int]):
    """The data rows after the header that `reader` has read, as (ids,
    timestamps, values) per block of `_CHUNK_ROWS` non-blank rows.  Each
    block is transposed into columns and converted whole by Python's `int`
    and `float`."""
    rows = filter(None, reader)  # csv.reader gives [] for a blank line
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        columns = list(zip(*chunk))  # as many columns as the shortest row has
        n = len(chunk)
        del chunk
        if len(columns) <= max(at.values()):
            raise _bad_row(path, text, schema, at)
        ids = columns[at[schema.machine_col]] if schema.machine_col else None
        yield (ids, np.fromiter(map(int, columns[at[schema.time_col]]), np.int64, n),
               np.fromiter(map(float, columns[at[schema.value_col]]), np.float64, n))


def _gather(blocks) -> tuple[dict[str, int], list, list, list]:
    """Each machine id's code in first-seen order, and the timestamp, value
    and code parts of every block."""
    code_of: dict[str, int] = {}
    ts_parts, val_parts, code_parts = [], [], []
    for ids, ts, vals in blocks:
        ts_parts.append(ts)
        val_parts.append(vals)
        if ids is not None:
            for machine in dict.fromkeys(ids):
                code_of.setdefault(machine, len(code_of))
            code_parts.append(np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ts)))
    return code_of, ts_parts, val_parts, code_parts


def load_csv(path: str | Path, schema: CsvSchema, allow_gaps: bool = False) -> list[RawTrace]:
    """Read a trace CSV into one RawTrace per machine, in first-seen order.

    A plain file, ASCII with no `"` and no \\x1c-\\x1f, is read by numpy's
    `loadtxt` in blocks of `_CHUNK_ROWS` lines.  Any other file, and any
    file that reader refuses, is read from its first row in one
    `csv.reader` pass that skips blank rows and converts each block's
    columns with Python's `int` and `float`; both give the same arrays for
    every file the first one takes.  Timestamps within a machine must form
    a uniform grid: after sorting, every step must equal the smallest step.
    A larger gap raises NonMonotonicTimestamps unless `allow_gaps` is set,
    in which case missing ticks are forward-filled with the previous value.
    Duplicate (machine, timestamp) rows are always rejected.  A row without
    the schema's columns, a value that is not a finite, non-negative number,
    or a byte that is not UTF-8 raises MalformedRow naming the file and the
    line the first such row starts on.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at \n, \r\n or \r, as csv.reader counts them
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedRow(f"{path}:{line}: not UTF-8 ({exc.reason})") from exc
    del data
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        names = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
        missing = [c for c in names if c not in header]
        if missing:
            raise MalformedRow(f"{path}: missing column(s) {missing}")
        # a repeated column name reads its last occurrence, as csv.DictReader does
        at = {c: len(header) - 1 - header[::-1].index(c) for c in names}
        parts = None
        if text.isascii() and not any(ch in text for ch in _NOT_PLAIN):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a warning is a row loadtxt reads differently
                    parts = _gather(_plain_blocks(text, schema, at))
            except Exception:  # csv.reader below decides every file this reader refuses
                pass
        if parts is None:
            parts = _gather(_csv_blocks(path, text, reader, schema, at))
    except csv.Error as exc:
        raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from exc
    except (ValueError, OverflowError):
        raise _bad_row(path, text, schema, at) from None
    code_of, ts_parts, val_parts, code_parts = parts
    if not ts_parts:
        raise EmptyFile(f"{path}: no data rows")
    ts, vals = np.concatenate(ts_parts), np.concatenate(val_parts)
    if not np.all(np.isfinite(vals) & (vals >= 0.0)):
        raise _bad_row(path, text, schema, at)
    if schema.machine_col:
        machines, codes = list(code_of), np.concatenate(code_parts)
    else:
        machines, codes = [schema.default_machine], np.zeros(len(ts), dtype=np.intp)
    # rows grouped by machine in first-seen order, each machine's rows by
    # timestamp; lexsort is stable, so equal timestamps keep file order
    order = np.lexsort((ts, codes))
    bounds = np.cumsum(np.bincount(codes))[:-1]

    traces = []
    for machine, rows_of in zip(machines, np.split(order, bounds)):
        m_ts, m_vals = ts[rows_of], vals[rows_of]
        if len(m_ts) > 1:
            steps = np.diff(m_ts)
            if np.any(steps == 0):
                raise NonMonotonicTimestamps(f"{path}: duplicate timestamp for {machine}")
            base = int(steps.min())
            if np.any(steps % base != 0) or (np.any(steps > base) and not allow_gaps):
                raise NonMonotonicTimestamps(
                    f"{path}: {machine} has gaps larger than one tick (pass allow_gaps to forward-fill)"
                )
            if allow_gaps and np.any(steps > base):
                # each tick of the full grid takes the last row at or before it
                full_ts = np.arange(m_ts[0], m_ts[-1] + base, base, dtype=np.int64)
                last_row = np.zeros(len(full_ts), dtype=np.int64)
                last_row[(m_ts - m_ts[0]) // base] = np.arange(len(m_ts))
                m_ts, m_vals = full_ts, m_vals[np.maximum.accumulate(last_row)]
        traces.append(RawTrace(machine, m_ts, m_vals))
    return traces


def save_csv(traces: list[RawTrace], path: str | Path, schema: CsvSchema) -> None:
    """Write traces back out in the given schema (inverse of load_csv)."""
    path = Path(path)
    cols = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for trace in traces:
            ids = [itertools.repeat(trace.machine_id)] if schema.machine_col else []
            writer.writerows(zip(*ids, trace.timestamps.tolist(), map(repr, trace.values.tolist())))


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
