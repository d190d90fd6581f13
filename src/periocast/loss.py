"""Worst-step sequence loss.

For per-step errors e_t = pred_t - truth_t the loss in "gamma" mode is

    gamma * log( sum_t exp(e_t^2 / gamma) )

a smooth upper envelope of the worst squared step error: it is always
within [max e^2, max e^2 + gamma * log J].  As gamma -> 0 it converges to
max_t e_t^2, implemented directly as the "limit" mode whose gradient is
2 * e at the worst step only (ties resolved to the smallest index).
Plain mean squared error is kept as the "mse" mode for ablations.

In every mode the gradient is alpha_t * 2 * e_t, with per-step weights
alpha_t: the softmax of e_t^2 / gamma, one-hot at the worst step, or
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadLength, NonFinite

MODES = ("limit", "gamma", "mse")


@dataclass(frozen=True)
class LossConfig:
    mode: str = "limit"
    gamma: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "gamma":
            if self.gamma is None or not (self.gamma > 0.0):
                raise ValueError("gamma mode needs gamma > 0")
        elif self.gamma is not None:
            raise ValueError(f"mode {self.mode!r} takes no gamma")

    @classmethod
    def from_string(cls, text: str) -> "LossConfig":
        """Parse 'limit', 'mse' or 'gamma:<float>'."""
        text = text.strip()
        if text.startswith("gamma:"):
            return cls("gamma", float(text.split(":", 1)[1]))
        return cls(text)

    def describe(self) -> str:
        return f"gamma:{self.gamma!r}" if self.mode == "gamma" else self.mode


def batch_loss(pred: np.ndarray, truth: np.ndarray, cfg: LossConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean per-window loss over a (batch, J) block.

    Returns (mean value, gradient wrt pred of the mean, per-window values).
    """
    e = pred - truth
    if not np.all(np.isfinite(e)):
        raise NonFinite("non-finite prediction or truth in batch")
    if pred.shape[1] < 2:
        raise BadLength("sequence loss needs length >= 2")
    sq = e * e
    n = pred.shape[0]
    if cfg.mode == "mse":
        values = sq.mean(axis=1)
        grad = 2.0 * e / (sq.shape[1] * n)
    elif cfg.mode == "limit":
        t = np.argmax(sq, axis=1)
        values = sq[np.arange(n), t]
        grad = np.zeros_like(e)
        grad[np.arange(n), t] = 2.0 * e[np.arange(n), t] / n
    else:
        m = sq.max(axis=1, keepdims=True)
        ex = np.exp((sq - m) / cfg.gamma)
        values = m[:, 0] + cfg.gamma * np.log(ex.sum(axis=1))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        grad = alpha * 2.0 * e / n
    return float(values.mean()), grad, values
