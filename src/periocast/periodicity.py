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


def fit_threshold_gmm(first_peaks, n_components: int = 3, seed: int = 0,
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


def fit_threshold_gmm_sweep(first_peaks, n_components: int = 3,
                            seeds=(0, 1, 2, 3, 4)) -> GmmFit:
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
    """Best cyclic alignment of the template to a recent window.

    With no knowledge: t_a = -1, distance = inf and y_period is the sentinel
    vector (-1, ..., -1), which the model consumes verbatim.
    """

    t_a: int
    y_period: np.ndarray
    distance: float


def match(knowledge: PeriodKnowledge | None, x_short: np.ndarray, j: int,
          cfg: PeriodicityConfig) -> PeriodMatch:
    """Slide the recent window over the template (cyclically) and return the
    continuation after the best-matching offset.  Ties go to the smallest
    offset.  Distance is mean squared difference, or banded DTW."""
    xs = np.asarray(x_short, dtype=np.float64).ravel()
    if j < 1 or len(xs) < 1:
        raise ValueError("need x_short and j of length >= 1")
    if knowledge is None:
        return PeriodMatch(-1, np.full(j, SENTINEL), math.inf)
    xp = knowledge.x_period
    p = len(xp)
    offsets = (np.arange(p)[:, None] + np.arange(len(xs))[None, :]) % p
    segments = xp[offsets]  # (p, I): row a = template starting at offset a
    if cfg.distance == "mse":
        diff = segments - xs[None, :]
        dists = (diff * diff).mean(axis=1)
        t_a = int(np.argmin(dists))
        best = float(dists[t_a])
    else:
        best = math.inf
        t_a = 0
        for a in range(p):
            d = dtw_distance(segments[a], xs, cfg.dtw_band)
            if d < best:
                best, t_a = d, a
    y_idx = (t_a + len(xs) + np.arange(j)) % p
    return PeriodMatch(t_a, xp[y_idx].copy(), best)


def dtw_distance(a, b, band: int | None = None) -> float:
    """Dynamic time warping distance with squared pointwise cost.

    Steps are down, right and diagonal; `band` restricts the path to
    |i - j| <= band (Sakoe-Chiba).  A band narrower than the length
    difference leaves no valid path.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("dtw needs non-empty inputs")
    if band is not None and band < abs(n - m):
        raise BandTooNarrow(f"band {band} < length difference {abs(n - m)}")
    inf = math.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        lo, hi = 1, m
        if band is not None:
            lo = max(1, i - band)
            hi = min(m, i + band)
        for jj in range(lo, hi + 1):
            cost = (a[i - 1] - b[jj - 1]) ** 2
            cur[jj] = cost + min(prev[jj], cur[jj - 1], prev[jj - 1])
        prev = cur
    return float(prev[m])
