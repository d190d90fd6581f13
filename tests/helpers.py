"""Shared test utilities: independent oracles and gradient checking.

The oracles here are deliberately naive re-derivations (double loops, path
enumeration, per-sequence loops) so they cannot share a bug with the library
implementations.
"""

from __future__ import annotations

import csv
import importlib.util
import math
import sys
from dataclasses import dataclass
from itertools import cycle, islice
from pathlib import Path

import numpy as np

from periocast.errors import BadLength, EmptyFile, MalformedRow, NonFinite, ShapeMismatch
from periocast.loss import LossConfig
from periocast.model import SampleWindow, WindowConfig
from periocast.neural import (ParamStore, Tape, Tensor, _cell_dz, _cell_state, _check_cell, _gate_rows,
                              _quarters, _squash, recurrent_cell_step, scalar_attention)
from periocast.traceio import CsvSchema, RawTrace, WorkloadSeries


BENCH = Path(__file__).resolve().parent.parent / "periobench"


def load_bench_module(name: str):
    """`periobench/<name>.py`, imported as `periobench_<name>`."""
    spec = importlib.util.spec_from_file_location(f"periobench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# --- independent oracles ----------------------------------------------------

def acf_naive(x, k_max: int) -> np.ndarray:
    """Autocorrelation by the definition, scalar double loop."""
    x = [float(v) for v in x]
    n = len(x)
    mean = sum(x) / n
    denom = sum((v - mean) ** 2 for v in x)
    out = []
    for k in range(k_max + 1):
        num = 0.0
        for t in range(k, n):
            num += (x[t] - mean) * (x[t - k] - mean)
        out.append(num / denom)
    return np.array(out)


def dtw_exhaustive(a, b) -> float:
    """Minimum alignment cost by enumerating every monotone path."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n, m = len(a), len(b)
    best = [np.inf]

    def walk(i, j, cost):
        cost += (a[i] - b[j]) ** 2
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def dtw_reference(a, b, band: int | None = None) -> float:
    """Banded DTW by the scalar recurrence, one cell at a time (the library's
    former implementation): cost + min(up, left, diagonal), two rows kept."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    n, m = len(a), len(b)
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        lo, hi = 1, m
        if band is not None:
            lo = max(1, i - band)
            hi = min(m, i + band)
        for jj in range(lo, hi + 1):
            cost = (a[i - 1] - b[jj - 1]) ** 2
            cur[jj] = cost + min(prev[jj], cur[jj - 1], prev[jj - 1])
        prev = cur
    return float(prev[m])


def match_mse_lanes(template, x_short, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MSE template matching over every window x offset lane (the library's
    former `match` MSE pass): each offset's squared differences added into
    one (n, p) table tick by tick, divided by I, ties to the smallest offset.
    Takes a stack (n, I) and returns t_a (n,), y_period (n, j) and distance
    (n,): the reference for the screened `match`."""
    xp = np.asarray(template, dtype=np.float64)
    stack = np.asarray(x_short, dtype=np.float64)
    n, width = stack.shape
    p = len(xp)
    ticks = xp[(np.arange(width)[:, None] + np.arange(p)) % p]  # row i: tick i of each offset
    dists = np.zeros((n, p))
    for i in range(width):
        sq = ticks[i] - stack[:, i, None]
        dists += sq * sq
    dists /= width
    t_a = np.argmin(dists, axis=1)
    return t_a, xp[(t_a[:, None] + width + np.arange(j)) % p], dists[np.arange(n), t_a]


def logistic(x) -> np.ndarray:
    """sigmoid(x) by the exp/where formula (the library's former gate
    activation).  exp(-|x|) never overflows; where it underflows the gate is
    0 or 1 to within an ulp, so underflow is not an error here."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def verify_bound(series: WorkloadSeries | np.ndarray, k: int, threshold: float) -> tuple[float, float]:
    """Empirical mean of (x_{t-k} - x_t)^2 against the stationary-case bound
    2 * (1 - threshold) * variance.  Returns (empirical, bound)."""
    x = series.values if isinstance(series, WorkloadSeries) else np.asarray(series, dtype=np.float64)
    if not (0 < k < len(x)):
        raise ValueError("need 0 < k < len(series)")
    d = x[k:] - x[:-k]
    empirical = float(np.mean(d * d))
    bound = 2.0 * (1.0 - threshold) * float(x.var())
    return empirical, bound


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    return e / e.sum(axis=-1, keepdims=True)


def attention_weights(q: Tensor, k: Tensor) -> np.ndarray:
    """softmax(q @ k.T / sqrt(d_k)) with row-wise max subtraction."""
    scale = 1.0 / np.sqrt(q.cols)
    return _softmax_rows(q.data @ k.data.T * scale)


def attention(tape: Tape, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Generic scaled dot-product attention, softmax(q @ k.T / sqrt(d_k)) @ v,
    with its backward pass: the reference for the model's batched variants."""
    if q.cols != k.cols:
        raise ShapeMismatch(f"attention: q cols {q.cols} != k cols {k.cols}")
    if k.rows != v.rows:
        raise ShapeMismatch(f"attention: k rows {k.rows} != v rows {v.rows}")
    scale = 1.0 / np.sqrt(q.cols)
    a = attention_weights(q, k)
    out = Tensor(a @ v.data)
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            g = out.grad
            da = g @ v.data.T
            ds = a * (da - (da * a).sum(axis=1, keepdims=True))
            if v.grad is not None:
                v.grad += a.T @ g
            if q.grad is not None:
                q.grad += ds @ k.data * scale
            if k.grad is not None:
                k.grad += ds.T @ q.data * scale
        tape.record(_back)
    return out


def cell_per_tick(tape: Tape, inputs: list[Tensor], wx: Tensor, wh: Tensor, b: Tensor) -> list[Tensor]:
    """One recurrent layer as one `recurrent_cell_step` per input, from a zero
    state: the hidden state after each input."""
    h = c = Tensor(np.zeros((inputs[0].rows, wh.rows)))
    hs = []
    for x in inputs:
        h, c = recurrent_cell_step(tape, x, h, c, wx, wh, b)
        hs.append(h)
    return hs


def encode_per_tick(tape: Tape, store: ParamStore, cfg: WindowConfig,
                    x_short: Tensor, x_long: Tensor) -> tuple[Tensor, np.ndarray]:
    """`model.encode` with one `recurrent_cell_step` per layer and tick, each
    tick entering as a column view of `x_short` (the library's former
    encoder): the reference for `recurrent_stack`."""
    seq = [Tensor(x_short.data[:, t: t + 1]) for t in range(cfg.i)]
    for layer in range(cfg.layers):
        seq = cell_per_tick(tape, seq, store[f"enc.l{layer}.wx"], store[f"enc.l{layer}.wh"],
                            store[f"enc.l{layer}.b"])
    ds = x_long.data[:, cfg.m - cfg.effective_ds_window():: cfg.ds_step]
    return seq[-1], scalar_attention(ds, ds)


def recurrent_sequence(tape: Tape, xs: Tensor, steps: int, wx: Tensor, wh: Tensor, b: Tensor,
                       keep_seq: bool = True) -> tuple[Tensor | None, Tensor]:
    """One `recurrent_cell_step` layer over a whole sequence, as one tape node
    (the library's former per-layer encoder op): the reference for
    `recurrent_stack`.

    `xs` holds the inputs time-major, (steps * batch, d_in): rows
    t * batch ... (t + 1) * batch - 1 are tick t.  The state starts at zero.
    Returns the hidden sequence in the same layout, or None when `keep_seq`
    is false, and the final hidden state (batch, hidden).

    The loop runs tick by tick over preallocated slabs.  While the tape
    records, every tick's gates and states are kept for the backward;
    otherwise only the hidden sequence, if `keep_seq`, and the rest lives in
    one or two rolling rows.  The backward steps only the recurrence
    (dh <- dz @ wh.T and the cell-state gradient), writing each tick's dz
    over its gate activations, then forms the gradients of the weights and
    of `xs` with one product or sum each over all ticks.
    """
    hidden = wh.rows
    if steps < 1 or xs.rows % steps:
        raise ShapeMismatch(f"sequence: {xs.rows} rows do not split into {steps} ticks")
    _check_cell(xs.cols, hidden, wx, wh, b)
    batch = xs.rows // steps
    record = tape.recording
    # The weights pre-multiplied by the gate scale, a power of two, give
    # z * scale exactly, so each tick only squashes.
    scale, shift = _gate_rows(hidden)
    wxs, whs, bs = wx.data * scale, wh.data * scale, b.data * scale
    # Row 0 of hs and cs is the zero initial state.  Tick t reads row t and
    # writes row t + 1; a one- or two-row slab is reused in turn.
    hs = np.empty((steps + 1 if record or keep_seq else 2, batch, hidden))
    cs = np.empty((steps + 1 if record else 2, batch, hidden))
    tcs = np.empty((steps if record else 1, batch, hidden))
    ss = np.empty((steps if record else 1, batch, 4 * hidden))
    hs[0] = 0.0
    cs[0] = 0.0
    hz = np.empty((batch, 4 * hidden))
    for x, s, h_prev, h, c_prev, c, tc in zip(
            xs.data.reshape(steps, batch, xs.cols), cycle(ss), cycle(hs), islice(cycle(hs), 1, None),
            cycle(cs), islice(cycle(cs), 1, None), cycle(tcs)):
        np.matmul(h_prev, whs, out=s)
        s += np.matmul(x, wxs, out=hz)
        s += bs
        _cell_state(*_quarters(_squash(s, scale, shift)), c_prev, c, tc, h)
    seq = Tensor(hs[1:].reshape(steps * batch, hidden)) if record or keep_seq else None
    h_last = Tensor(hs[steps % len(hs)])
    if record:
        seq.grad = np.zeros_like(seq.data)
        h_last.grad = np.zeros_like(h_last.data)

        def _back():
            dhs = seq.grad.reshape(steps, batch, hidden)
            dhs[-1] += h_last.grad
            dc = np.zeros((batch, hidden))
            for t in range(steps - 1, -1, -1):
                dc = _cell_dz(dhs[t], dc, ss[t], cs[t], tcs[t])
                if t:
                    dhs[t - 1] += ss[t] @ wh.data.T
            dz = ss.reshape(steps * batch, 4 * hidden)
            if wx.grad is not None:
                wx.grad += xs.data.T @ dz
            if wh.grad is not None:
                wh.grad += hs[:-1].reshape(steps * batch, hidden).T @ dz
            if b.grad is not None:
                b.grad += dz.sum(axis=0, keepdims=True)
            if xs.grad is not None:
                xs.grad += dz @ wx.data.T
        tape.record(_back)
    return seq if keep_seq else None, h_last


def forward_fill_loop(ts: np.ndarray, vals: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaps in sorted timestamps filled tick by tick with the last value seen
    (the library's former `load_csv` loop under `allow_gaps`)."""
    full_ts = np.arange(ts[0], ts[-1] + base, base, dtype=np.int64)
    full_vals = np.empty(len(full_ts), dtype=np.float64)
    pos = ((ts - ts[0]) // base).astype(np.int64)
    filled = np.zeros(len(full_ts), dtype=bool)
    full_vals[pos] = vals
    filled[pos] = True
    last = vals[0]
    for i in range(len(full_ts)):
        if filled[i]:
            last = full_vals[i]
        else:
            full_vals[i] = last
    return full_ts, full_vals


def read_rows_dictreader(path: Path, schema: CsvSchema) -> dict[str, list[tuple[int, float]]]:
    """Each machine's (timestamp, value) rows, in file order, read one
    `csv.DictReader` row at a time (the library's former `load_csv` reader).
    Its error lines count data rows, so they are file lines only when the
    file has no blank lines and no quoted field spans two lines."""
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


def save_csv_rowwise(traces: list[RawTrace], path: Path, schema: CsvSchema) -> None:
    """`save_csv` one `writerow` at a time (the library's former writer)."""
    cols = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for trace in traces:
            for ts, val in zip(trace.timestamps, trace.values):
                row = [trace.machine_id] if schema.machine_col else []
                writer.writerow(row + [int(ts), repr(float(val))])


def denormalize(series: WorkloadSeries) -> np.ndarray:
    """The series back in the units it was loaded in."""
    return series.values * series.scale


@dataclass(frozen=True)
class LossValue:
    value: float
    alpha: np.ndarray  # per-step weights, nonnegative, sum to 1
    argmax_t: int      # index of the largest squared error (first on ties)


def _check(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    if pred.shape != truth.shape:
        raise BadLength(f"pred {pred.shape} vs truth {truth.shape}")
    if pred.shape[-1] < 2:
        raise BadLength("sequence loss needs length >= 2")
    e = pred - truth
    if not np.all(np.isfinite(e)):
        raise NonFinite("non-finite prediction or truth")
    return e


def loss(pred, truth, cfg: LossConfig) -> LossValue:
    """Worst-step loss of one sequence: the per-row reference for `batch_loss`."""
    e = _check(np.asarray(pred, dtype=np.float64).ravel(),
               np.asarray(truth, dtype=np.float64).ravel())
    sq = e * e
    t = int(np.argmax(sq))
    if cfg.mode == "mse":
        alpha = np.full(len(sq), 1.0 / len(sq))
        return LossValue(float(sq.mean()), alpha, t)
    if cfg.mode == "limit":
        alpha = np.zeros(len(sq))
        alpha[t] = 1.0
        return LossValue(float(sq[t]), alpha, t)
    m = sq[t]
    # Max is subtracted before exponentiating; one term is exactly exp(0),
    # so the log argument is >= 1 and the value is >= m exactly.
    ex = np.exp((sq - m) / cfg.gamma)
    alpha = ex / ex.sum()
    return LossValue(float(m + cfg.gamma * np.log(ex.sum())), alpha, t)


def backward(pred, truth, cfg: LossConfig) -> np.ndarray:
    """d loss / d pred of one sequence; equals alpha * 2e in every mode."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    e = _check(p, t)
    return loss(p, t, cfg).alpha * 2.0 * e


# --- gradient checking ------------------------------------------------------

def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    """Worst elementwise relative error; elements where both grads are below
    `floor` in magnitude count as exact."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    ok = scale < floor
    rel = np.where(ok, 0.0, err / np.maximum(scale, floor))
    return float(rel.max()) if rel.size else 0.0


def fd_param_grad(f, store: ParamStore, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() over every parameter."""
    base = store.get_flat()
    grad = np.empty_like(base)
    for idx in range(base.size):
        theta = base.copy()
        theta[idx] = base[idx] + h
        store.set_flat(theta)
        up = f()
        theta[idx] = base[idx] - h
        store.set_flat(theta)
        down = f()
        grad[idx] = (up - down) / (2.0 * h)
    store.set_flat(base)
    return grad


def fd_array_grad(f, arr: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f(arr) over every element."""
    grad = np.empty_like(arr, dtype=np.float64)
    flat = arr.ravel()
    gflat = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = f(arr)
        flat[idx] = orig - h
        down = f(arr)
        flat[idx] = orig
        gflat[idx] = (up - down) / (2.0 * h)
    return grad


# --- model fixtures ---------------------------------------------------------

def tiny_config(**overrides) -> WindowConfig:
    base = dict(i=6, m=12, j=2, hidden=4, layers=2, ds_step=4, ds_window=12)
    base.update(overrides)
    return WindowConfig(**base)


def random_window(cfg: WindowConfig, rng: np.random.Generator,
                  sentinel: bool = False, machine: str = "m0") -> SampleWindow:
    x_long = rng.uniform(0.0, 1.0, cfg.m)
    y_period = np.full(cfg.j, -1.0) if sentinel else rng.uniform(0.0, 1.0, cfg.j)
    return SampleWindow(
        machine_id=machine,
        start=0,
        x_long=x_long,
        x_short=x_long[cfg.m - cfg.i:],
        y_period=y_period,
        target=rng.uniform(0.0, 1.0, cfg.j),
        heavy=rng.uniform(size=cfg.j) > 0.7,
    )
