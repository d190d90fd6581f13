"""Correctness checks computed apart from the program under test.

Each check takes the program's answer together with the inputs it came
from, recomputes what the answer must be by a route of its own (a loop over
a definition, a full-matrix dynamic program, a direct count), and raises
`CheckFailed` when the two disagree.  None of them imports periocast, so a
bug in the program cannot also hide in its check.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _fail(name: str, message: str) -> None:
    raise CheckFailed(f"{name}: {message}")


def check_acf(x, rho, k_max: int) -> None:
    """rho[k] = sum_{t>=k} (x_t - mean)(x_{t-k} - mean) / sum_t (x_t - mean)^2."""
    x = np.asarray(x, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    if len(rho) != k_max + 1:
        _fail("acf", f"expected {k_max + 1} lags, got {len(rho)}")
    mean = math.fsum(x) / len(x)
    c = [v - mean for v in x]
    denom = math.fsum(v * v for v in c)
    for k in range(k_max + 1):
        want = math.fsum(c[t] * c[t - k] for t in range(k, len(c))) / denom
        if abs(want - rho[k]) > 1e-9:
            _fail("acf", f"lag {k}: program {rho[k]!r}, definition {want!r}")


def dtw_full(a, b, band: int | None) -> float:
    """Banded DTW by filling the whole (n+1) x (m+1) cost matrix."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    d = np.full((n + 1, m + 1), np.inf)
    d[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if band is not None and abs(i - j) > band:
                continue
            d[i, j] = (a[i - 1] - b[j - 1]) ** 2 + min(d[i - 1, j], d[i, j - 1], d[i - 1, j - 1])
    return float(d[n, m])


def check_dtw(a, b, band: int | None, value: float) -> None:
    """The program's DTW equals the full-matrix program and is no larger than
    the diagonal (no-warping) path, which every band admits."""
    if len(a) == len(b):
        diagonal = float(np.sum((np.asarray(a) - np.asarray(b)) ** 2))
        if value > diagonal + 1e-12:
            _fail("dtw", f"{value!r} exceeds the diagonal path cost {diagonal!r}")
    want = dtw_full(a, b, band)
    if not math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-12):
        _fail("dtw", f"program {value!r}, full matrix {want!r}")


def check_match(template, x_short, j: int, distance, t_a: int, y_period, reported: float) -> None:
    """`t_a` minimises `distance(segment, x_short)` over every cyclic offset
    and `y_period` continues the template from it.

    `distance` is the check's own implementation (mean squared difference,
    or `dtw_full`)."""
    xp = np.asarray(template, dtype=np.float64)
    xs = np.asarray(x_short, dtype=np.float64)
    p = len(xp)
    dists = [distance(np.array([xp[(a + t) % p] for t in range(len(xs))]), xs) for a in range(p)]
    best = min(dists)
    if not 0 <= t_a < p:
        _fail("match", f"offset {t_a} outside [0, {p})")
    if not math.isclose(dists[t_a], best, rel_tol=1e-9, abs_tol=1e-12):
        _fail("match", f"offset {t_a} has distance {dists[t_a]!r}, best is {best!r}")
    if not math.isclose(reported, best, rel_tol=1e-9, abs_tol=1e-12):
        _fail("match", f"reported distance {reported!r}, recomputed {best!r}")
    want = [xp[(t_a + len(xs) + h) % p] for h in range(j)]
    if not np.array_equal(np.asarray(y_period, dtype=np.float64), np.array(want)):
        _fail("match", f"y_period {list(y_period)} does not continue the template: {want}")


def mean_sq(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return math.fsum((a - b) ** 2) / len(a)


def check_period(kind: str, cycle_lengths, period) -> None:
    """Periodic and lax machines get a period inside their generated cycle
    lengths; AR(1) machines get none."""
    if cycle_lengths is None:
        if period is not None:
            _fail("period", f"{kind} machine without a cycle got period {period}")
        return
    lo, hi = cycle_lengths
    if period is None or not lo <= period <= hi:
        _fail("period", f"{kind} machine with cycles {lo}..{hi} got period {period}")


def check_forecasts(y, fusion_weights) -> None:
    """Forecasts are finite; fusion weights lie in [0, 1] and each row sums to 1."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        _fail("forecast", "non-finite forecast")
    w = np.asarray(fusion_weights, dtype=np.float64)
    if np.any(w < 0.0) or np.any(w > 1.0):
        _fail("forecast", f"fusion weight outside [0, 1]: {w.min()!r}..{w.max()!r}")
    sums = w.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-12):
        _fail("forecast", f"fusion weights sum to {sums[np.argmax(np.abs(sums - 1.0))]!r}")


def check_single_vs_batch(single, batch_row) -> None:
    """A one-window forecast equals that window's row of a batched forecast
    (to rounding: the matrix products block differently)."""
    single = np.asarray(single, dtype=np.float64)
    batch_row = np.asarray(batch_row, dtype=np.float64)
    if not np.allclose(single, batch_row, rtol=1e-10, atol=1e-12):
        _fail("single-vs-batch", f"single {single.tolist()} vs batched {batch_row.tolist()}")


def check_mse(pred, truth, machine_ids, starts, series: dict, m: int,
              mse: float, heavy_mse: float, heavy_n: int) -> None:
    """Pooled and heavy MSE recomputed from forecasts and targets.

    Heavy points are counted directly: a target tick is heavy when it lies
    above its machine's mean + population std over the machine's full
    normalised series `series[machine_ids[w]]`; window w's target starts at
    tick `starts[w] + m` of that series."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    cut = {}
    for mid, x in series.items():
        mean = math.fsum(x) / len(x)
        cut[mid] = mean + math.sqrt(math.fsum((v - mean) ** 2 for v in x) / len(x))
    sq, heavy_sq = [], []
    for w in range(len(pred)):
        x = series[machine_ids[w]]
        for h in range(pred.shape[1]):
            tick = x[starts[w] + m + h]
            if truth[w, h] != tick:
                _fail("mse", f"window {w} target {h} is not the series value after it")
            e2 = (pred[w, h] - truth[w, h]) ** 2
            sq.append(e2)
            if tick > cut[machine_ids[w]]:
                heavy_sq.append(e2)
    want = math.fsum(sq) / len(sq)
    if not math.isclose(mse, want, rel_tol=1e-9):
        _fail("mse", f"pooled MSE {mse!r}, recomputed {want!r}")
    if heavy_n != len(heavy_sq):
        _fail("mse", f"{heavy_n} heavy points reported, {len(heavy_sq)} counted")
    want_heavy = math.fsum(heavy_sq) / len(heavy_sq)
    if not math.isclose(heavy_mse, want_heavy, rel_tol=1e-9):
        _fail("mse", f"heavy MSE {heavy_mse!r}, recomputed {want_heavy!r}")


def check_gradients(analytic, numeric, tol: float = 1e-5) -> None:
    """Tape gradients agree with central finite differences, relative to the
    larger magnitude.  The magnitude is floored at 1e-4: with a step of 1e-6
    on a loss near 0.1, the difference quotient carries about 1e-11 of
    round-off, which is more than 1e-5 of an entry near 1e-6."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    err = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
    if np.max(err) > tol:
        k = int(np.argmax(err))
        _fail("gradient", f"entry {k}: tape {a[k]!r}, finite difference {n[k]!r}")


def check_training(losses, test_mse: float, baseline_mse: float) -> None:
    """The mean loss of the last fifth of training steps is below that of the
    first fifth, and the trained model beats predicting the training mean."""
    losses = np.asarray(losses, dtype=np.float64)
    fifth = max(1, len(losses) // 5)
    first, last = float(losses[:fifth].mean()), float(losses[-fifth:].mean())
    if not last < first:
        _fail("training", f"loss did not fall: first fifth {first!r}, last fifth {last!r}")
    if not test_mse < baseline_mse:
        _fail("training", f"test MSE {test_mse!r} does not beat the mean baseline {baseline_mse!r}")


def check_checkpoint(raw: bytes, tensors: dict, loaded: dict) -> None:
    """The file ends in the sha256 of its body, and every tensor read back
    equals the one written."""
    body, trailer = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != trailer:
        _fail("checkpoint", "sha256 trailer does not match the file body")
    if sorted(tensors) != sorted(loaded):
        _fail("checkpoint", f"tensor names differ: {sorted(tensors)} vs {sorted(loaded)}")
    for name, data in tensors.items():
        if not np.array_equal(data, loaded[name]):
            _fail("checkpoint", f"tensor {name} changed in the round trip")
