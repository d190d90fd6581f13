"""Shared test utilities: independent oracles and gradient checking.

The oracles here are deliberately naive re-derivations (double loops, path
enumeration, per-sequence loops) so they cannot share a bug with the library
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from periocast.errors import BadLength, NonFinite, ShapeMismatch
from periocast.loss import LossConfig
from periocast.model import SampleWindow, WindowConfig
from periocast.neural import ParamStore, Tape, Tensor
from periocast.traceio import WorkloadSeries


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
        def _back():
            g = out.grad
            if g is None:
                return
            da = g @ v.data.T
            ds = a * (da - (da * a).sum(axis=1, keepdims=True))
            q.ensure_grad()
            k.ensure_grad()
            v.ensure_grad()
            v.grad += a.T @ g
            q.grad += ds @ k.data * scale
            k.grad += ds.T @ q.data * scale
        tape.record(_back)
    return out


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
