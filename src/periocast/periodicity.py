"""Periodicity mining: detect a period, keep one template cycle, match it.

Detection scans the sample autocorrelation for the smallest lag that is a
local maximum above a threshold.  The threshold itself can be derived from a
fleet of machines by fitting a univariate Gaussian mixture to their first ACF
peaks and taking (mean - std) of the highest-mean component, which separates
the clearly-periodic cluster from the rest without hand tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandTooNarrow, DegenerateComponent, SeriesTooShort
from .rng import Prng
from .stats import AcfProfile, acf
from .traceio import WorkloadSeries

SENTINEL = -1.0  # stands in for y_period when a machine has no period

_STD_FLOOR = 1e-6


@dataclass(frozen=True)
class PeriodicityConfig:
    threshold: float = 0.5
    k_min: int = 2
    k_max: int | None = None  # None = half the series length
    distance: str = "mse"     # "mse" or "dtw"
    dtw_band: int | None = None

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must lie in (0, 1]")
        if self.k_min < 2:
            raise ValueError("k_min must be >= 2")
        if self.k_max is not None and self.k_max <= self.k_min:
            raise ValueError("k_max must exceed k_min")
        if self.distance not in ("mse", "dtw"):
            raise ValueError("distance must be 'mse' or 'dtw'")
        if self.dtw_band is not None and self.dtw_band < 0:
            raise ValueError("dtw_band must be >= 0")


@dataclass(frozen=True)
class PeriodicityReport:
    """Outcome of detection. `period` is None when the series is aperiodic.

    `first_peak_value` is the ACF value at the first local maximum with
    k >= k_min, recorded even when it falls below the threshold; it is the
    input to the threshold-fitting mixture.
    """

    period: int | None
    first_peak_value: float | None
    acf: AcfProfile
    threshold: float

    @property
    def is_periodic(self) -> bool:
        return self.period is not None


def detect_period(series: WorkloadSeries, cfg: PeriodicityConfig) -> PeriodicityReport:
    """Return the smallest lag k with rho[k] > rho[k-1], rho[k] > rho[k+1]
    and rho[k] > threshold, or an aperiodic verdict if no lag qualifies."""
    n = len(series)
    k_max = cfg.k_max if cfg.k_max is not None else n // 2
    k_max = min(k_max, n - 2)
    if k_max <= cfg.k_min:
        raise SeriesTooShort(f"series of length {n} leaves no lags in [{cfg.k_min}, {k_max}]")
    profile = acf(series, k_max)
    rho = profile.rho
    period = None
    first_peak = None
    for k in range(cfg.k_min, k_max):
        if rho[k] > rho[k - 1] and rho[k] > rho[k + 1]:
            if first_peak is None:
                first_peak = float(rho[k])
            if rho[k] > cfg.threshold:
                period = k
                break
    return PeriodicityReport(period, first_peak, profile, cfg.threshold)


@dataclass(frozen=True)
class GmmFit:
    """Univariate Gaussian mixture fit plus the threshold derived from it."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    chosen_cluster: int
    derived_threshold: float
    search_range: tuple[float, float]
    log_likelihood: float
    n_iter: int


def _kmeanspp_init(x: np.ndarray, k: int, rng: Prng) -> np.ndarray:
    centers = [x[rng.randint(len(x))]]
    for _ in range(1, k):
        d2 = np.min([(x - c) ** 2 for c in centers], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.randint(len(x))])
            continue
        r = rng.uniform() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centers.append(x[min(idx, len(x) - 1)])
    return np.array(centers, dtype=np.float64)


def fit_threshold_gmm(first_peaks, n_components: int, seed: int = 0,
                      max_iter: int = 200, tol: float = 1e-7) -> GmmFit:
    """Fit a 1-D Gaussian mixture by EM and derive a periodicity threshold.

    Initialisation is k-means++ from the seed.  The derived threshold is
    mean - std of the highest-mean component; the pair
    (mean - std, mean + std) is reported as the search range around it.

    A component whose std collapses below 1e-6 triggers a re-initialisation
    (up to 5 attempts) and finally DegenerateComponent.  With a single
    component the std is floored at 1e-6 instead, since there is no second
    cluster to confuse it with.
    """
    x = np.asarray(first_peaks, dtype=np.float64).ravel()
    if len(x) < n_components:
        raise ValueError("need at least n_components samples")
    if len(np.unique(x)) < n_components:
        raise ValueError("need at least n_components distinct values")

    last_error = None
    for attempt in range(5):
        rng = Prng(seed + attempt)
        means = _kmeanspp_init(x, n_components, rng)
        assign = np.argmin(np.abs(x[:, None] - means[None, :]), axis=1)
        weights = np.empty(n_components)
        stds = np.empty(n_components)
        for c in range(n_components):
            sel = x[assign == c]
            weights[c] = max(len(sel), 1) / len(x)
            means[c] = sel.mean() if len(sel) else means[c]
            stds[c] = max(sel.std() if len(sel) else 0.0, _STD_FLOOR)
        weights /= weights.sum()

        prev_ll = -np.inf
        ll = prev_ll
        degenerate = False
        it = 0
        for it in range(1, max_iter + 1):
            # E step: responsibilities from the current Gaussian densities.
            z = (x[:, None] - means[None, :]) / stds[None, :]
            log_pdf = -0.5 * z * z - np.log(stds[None, :]) - 0.5 * math.log(2.0 * math.pi)
            log_w = np.log(weights[None, :]) + log_pdf
            m = log_w.max(axis=1, keepdims=True)
            log_norm = m + np.log(np.exp(log_w - m).sum(axis=1, keepdims=True))
            resp = np.exp(log_w - log_norm)
            ll = float(log_norm.sum())
            assert ll >= prev_ll - 1e-9, "EM log-likelihood decreased"
            if ll - prev_ll < tol and it > 1:
                break
            prev_ll = ll
            # M step.
            mass = resp.sum(axis=0)
            if np.any(mass <= 0.0):
                degenerate = True
                break
            weights = mass / len(x)
            means = (resp * x[:, None]).sum(axis=0) / mass
            var = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / mass
            stds = np.sqrt(var)
            if np.any(stds < _STD_FLOOR):
                if n_components == 1:
                    stds = np.maximum(stds, _STD_FLOOR)
                else:
                    degenerate = True
                    break
        if degenerate:
            last_error = DegenerateComponent(
                f"component collapsed on attempt {attempt + 1} (std < {_STD_FLOOR})"
            )
            continue
        chosen = int(np.argmax(means))
        lo = float(means[chosen] - stds[chosen])
        hi = float(means[chosen] + stds[chosen])
        return GmmFit(weights, means, stds, chosen, lo, (lo, hi), ll, it)
    raise last_error


def fit_threshold_gmm_sweep(first_peaks, n_components: int, seeds=(0, 1, 2, 3, 4)) -> GmmFit:
    """Fit once per seed and keep the highest-likelihood fit."""
    best = None
    for seed in seeds:
        fit = fit_threshold_gmm(first_peaks, n_components, seed=seed)
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    return best


@dataclass(frozen=True)
class PeriodKnowledge:
    """One template cycle kept per periodic machine: the first `period`
    values of that machine's training split."""

    machine_id: str
    x_period: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_period, dtype=np.float64)
        if x.ndim != 1 or len(x) < 2:
            raise ValueError("x_period must be 1-D with length >= 2")
        if not np.all(np.isfinite(x)):
            raise ValueError("x_period must be finite")
        x.flags.writeable = False
        object.__setattr__(self, "x_period", x)


def build_knowledge(series: WorkloadSeries, report: PeriodicityReport) -> PeriodKnowledge | None:
    """Extract the template cycle. `series` must be the training split the
    report was computed from.  Aperiodic machines yield None."""
    if report.period is None:
        return None
    if report.period > len(series):
        raise SeriesTooShort(f"period {report.period} exceeds split length {len(series)}")
    return PeriodKnowledge(series.machine_id, series.values[: report.period])


@dataclass(frozen=True)
class PeriodMatch:
    """Best cyclic alignment of the template to a recent window: an int
    `t_a`, `y_period` (j,) and a float `distance`, or arrays (n,), (n, j) and
    (n,) for a stack of n windows.  With no knowledge: t_a = -1, distance =
    inf and y_period is the sentinel vector (-1, ..., -1), which the model
    consumes verbatim."""

    t_a: int | np.ndarray
    y_period: np.ndarray
    distance: float | np.ndarray


# MSE: values per temporary of a block, (block, p) scores and (I, block)
# windows; DTW: window x offset lanes per block, several (I + 1, lanes) arrays
_MSE_LANES = 16384
_DTW_LANES = 4096


def match(knowledge: PeriodKnowledge | None, x_short: np.ndarray, j: int,
          cfg: PeriodicityConfig) -> PeriodMatch:
    """Slide each recent window, (I,) or a stack (n, I), over the template
    (cyclically) and return the continuation after its best-matching offset.
    Ties go to the smallest offset.  Distance is mean squared difference,
    summed tick by tick, or banded DTW, over blocks of about `_MSE_LANES` or
    `_DTW_LANES` window x offset lanes."""
    xs = np.asarray(x_short, dtype=np.float64)
    if j < 1 or xs.ndim not in (1, 2) or xs.shape[-1] < 1:
        raise ValueError("need x_short of shape (I,) or (n, I) with I >= 1, and j >= 1")
    stack = xs.reshape(-1, xs.shape[-1])
    n, width = stack.shape
    if knowledge is None:
        t_a, y, best = np.full(n, -1), np.full((n, j), SENTINEL), np.full(n, math.inf)
    else:
        xp = knowledge.x_period
        p = len(xp)
        segments = xp[(np.arange(p)[:, None] + np.arange(width)) % p]  # row a starts at offset a
        if cfg.distance == "mse":
            t_a, best = _mse_match(segments, stack)
        else:
            dists = np.empty((n, p))
            block = max(1, _DTW_LANES // p)
            for lo in range(0, n, block):
                dists[lo: lo + block] = dtw_distance(segments, stack[lo: lo + block, None, :], cfg.dtw_band)
            t_a = np.argmin(dists, axis=1)
            best = dists[np.arange(n), t_a]
        y = xp[(t_a[:, None] + width + np.arange(j)) % p]
    if xs.ndim == 1:
        return PeriodMatch(int(t_a[0]), y[0], float(best[0]))
    return PeriodMatch(t_a, y, best)


_FLOAT = np.finfo(np.float64)


def _mse_match(segments: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The best offset of each window and its mean squared difference.

    A screen scores every offset a of window x as v = |s_a|² − 2·s_a·x, which
    is I·distance − |x|², from one gemm per block of windows.  An offset
    whose v exceeds the window's smallest by more than the slack cannot be
    its minimum: the slack, 8·(I + 2)·eps·(I·max|x|² + max_a |s_a|²), is
    twice the rounding bound of the screen (dot products of I terms) plus
    that of the exact sum.  Each window's best screened offset gets the exact
    distance.  A window with another offset inside the slack gets it for
    every offset, so ties still go to the smallest.  A NaN in the screen ties
    all offsets of its window, and a NaN or an overflow in the slack those of
    every window.
    """
    p, width = segments.shape
    ticks = np.ascontiguousarray(segments.T)  # row i: the template at tick i of each offset
    screen = -2.0 * ticks
    norms = np.einsum("ai,ai->a", segments, segments)
    with np.errstate(over="ignore", invalid="ignore"):  # the exact sum reports these
        big = 2.0 * (width * np.max(np.abs(stack), initial=0.0) ** 2 + norms.max())  # >= |v|
        slack = 4.0 * (width + 2) * (big * _FLOAT.eps + _FLOAT.tiny)
    t_a, best = np.empty(len(stack), dtype=np.intp), np.empty(len(stack))
    block = max(1, _MSE_LANES // max(p, width))
    for lo in range(0, len(stack), block):
        x = np.ascontiguousarray(stack[lo: lo + block].T)  # row i: tick i of each window
        cols = np.arange(x.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            v = x.T @ screen  # (block, p)
            v += norms
            t = v.argmin(axis=1)
            far = v > (v[cols, t] + slack)[:, None]
        d = _tick_sums(ticks[:, t], x)
        if np.count_nonzero(far) < far.size - len(cols):  # some window keeps more than one offset
            tied = np.flatnonzero(np.count_nonzero(~far, axis=1) > 1)
            dists = _tick_sums(ticks[:, None, :], x[:, tied, None])  # (tied, p)
            t[tied] = dists.argmin(axis=1)
            d[tied] = dists[np.arange(len(tied)), t[tied]]
        t_a[lo: lo + block], best[lo: lo + block] = t, d
    return t_a, best


def _tick_sums(ticks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(s_0 − x_0)² + … + (s_{I−1} − x_{I−1})², divided by I, in each lane of
    ticks[i] − x[i]; np.add.reduce would sum a lone column pairwise."""
    acc = ticks[0] - x[0]
    np.square(acc, out=acc)
    for s, xi in zip(ticks[1:], x[1:]):
        sq = s - xi
        np.square(sq, out=sq)
        acc += sq
    acc /= len(ticks)
    return acc


def dtw_distance(a, b, band: int | None = None):
    """Dynamic time warping distance with squared pointwise cost.

    Steps are down, right and diagonal; `band` restricts the path to
    |i - j| <= band (Sakoe-Chiba), and one narrower than the length
    difference leaves no valid path.  `a` (..., n) and `b` (..., m)
    broadcast over their leading axes, one pair per lane; the result has
    the broadcast leading shape, or is a float for two 1-D inputs.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n, m = a.shape[-1], b.shape[-1]
    if n == 0 or m == 0:
        raise ValueError("dtw needs non-empty inputs")
    if band is not None and band < abs(n - m):
        raise BandTooNarrow(f"band {band} < length difference {abs(n - m)}")
    lanes = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a = np.broadcast_to(a, lanes + (n,)).reshape(-1, n).T.copy()  # (n, lanes), lanes contiguous
    b = np.broadcast_to(b, lanes + (m,)).reshape(-1, m).T.copy()  # (m, lanes), lanes contiguous
    # Two rows of the cost table, swapped every tick.  Tick i reads entries
    # lo ... hi of the row before and writes lo + 1 ... hi.  The band only
    # moves up, so entry lo may hold a value from two ticks back and is
    # reset; entries above hi have never been written and are still inf.
    prev, cur = np.full((2, m + 1, a.shape[1]), math.inf)
    prev[0] = 0.0
    cost = np.empty_like(b)
    for i in range(n):
        lo, hi = (0, m) if band is None else (max(0, i - band), min(m, i + band + 1))
        np.subtract(a[i], b[lo:hi], out=cost[lo:hi])
        np.square(cost[lo:hi], out=cost[lo:hi])
        cur[lo] = math.inf
        np.minimum(prev[lo + 1: hi + 1], prev[lo:hi], out=cur[lo + 1: hi + 1])
        for jj in range(lo + 1, hi + 1):  # cur[jj] = cost + min(up, diagonal, left)
            np.minimum(cur[jj], cur[jj - 1], out=cur[jj])
            cur[jj] += cost[jj - 1]
        prev, cur = cur, prev
    out = prev[m].reshape(lanes)
    return float(out) if out.ndim == 0 else out
