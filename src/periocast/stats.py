"""Series statistics: autocorrelation, heavy-point mask, error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySelection, LagTooLarge, ZeroVariance
from .traceio import WorkloadSeries


@dataclass(frozen=True)
class AcfProfile:
    """Sample autocorrelation rho[0..k_max] of a series of length n."""

    rho: np.ndarray
    k_max: int
    n: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


def acf(series: WorkloadSeries | np.ndarray, k_max: int) -> AcfProfile:
    """Stationary sample autocorrelation up to lag k_max.

        rho[k] = sum_{t=k}^{n-1} (x_t - mean)(x_{t-k} - mean)
                 / sum_{t=0}^{n-1} (x_t - mean)^2

    A single series mean and a pooled denominator are used for every lag, so
    rho[0] is exactly 1 and |rho[k]| <= 1 by Cauchy-Schwarz.  Every lag's sum
    comes from one real FFT (Wiener-Khinchin): zero-padded to at least
    n + k_max points, the circular autocorrelation has no wrapped terms at
    lags up to k_max.  That is O(n log n) against O(n * k_max) for a sum per
    lag.
    """
    x = series.values if isinstance(series, WorkloadSeries) else np.asarray(series, dtype=np.float64)
    n = len(x)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n < k_max + 2:
        raise LagTooLarge(f"need length >= k_max + 2, got n={n}, k_max={k_max}")
    # Exact-constant input leaves only rounding dust after mean subtraction,
    # so test for constancy directly rather than for denom == 0.0.
    if x.max() == x.min():
        raise ZeroVariance("series has zero variance")
    c = x - x.mean()
    denom = float(np.dot(c, c))
    if denom == 0.0:
        raise ZeroVariance("series has zero variance")
    size = 1 << (n + k_max - 1).bit_length()
    spec = np.fft.rfft(c, size)
    rho = np.fft.irfft(spec.real * spec.real + spec.imag * spec.imag, size)[: k_max + 1] / denom
    rho[0] = 1.0
    return AcfProfile(rho, k_max, n)


@dataclass(frozen=True)
class HeavyMask:
    """Marks points above the machine's mean plus one standard deviation.

    The threshold uses the population (1/n) standard deviation of the same
    machine's full series.
    """

    mask: np.ndarray
    threshold: float

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        m.flags.writeable = False
        object.__setattr__(self, "mask", m)

    def __len__(self) -> int:
        return len(self.mask)


def heavy_mask(series: WorkloadSeries | np.ndarray) -> HeavyMask:
    x = series.values if isinstance(series, WorkloadSeries) else np.asarray(series, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    threshold = float(x.mean() + x.std())
    return HeavyMask(x > threshold, threshold)


@dataclass(frozen=True)
class MetricTriple:
    """MSE / MAE / MAPE over one selection of points.

    MAPE terms with |truth| < 1e-8 are skipped rather than blowing up;
    `mape_skipped` counts them.  `n` is the number of points evaluated.
    """

    mse: float
    mae: float
    mape: float
    n: int
    mape_skipped: int = 0


def metrics(pred, truth, mask: HeavyMask | np.ndarray | None = None) -> MetricTriple:
    """Error metrics over all points, or over the masked subset."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    if mask is not None:
        m = mask.mask if isinstance(mask, HeavyMask) else np.asarray(mask, dtype=bool).ravel()
        if m.shape != p.shape:
            raise ValueError(f"mask shape {m.shape} does not match {p.shape}")
        p, t = p[m], t[m]
    if len(p) == 0:
        raise EmptySelection("no points selected")
    err = p - t
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    ok = np.abs(t) >= 1e-8
    skipped = int(len(t) - ok.sum())
    mape = float(np.mean(np.abs(err[ok] / t[ok]))) if ok.any() else 0.0
    return MetricTriple(mse, mae, mape, n=len(p), mape_skipped=skipped)
