"""Sequence-to-sequence forecaster with period fusing.

Architecture, per window:

  * a stacked gated recurrent encoder reads the recent `i` ticks;
  * the longer context of `m` ticks is downsampled (trailing window, every
    `step`-th tick) and passed through parameter-free self-attention;
  * cross-attention with the recent ticks as queries and the downsampled
    context as keys/values yields one row per recent tick; the concatenation
    of those rows is projected by two learned matrices into the decoder's
    initial hidden and cell state (the encoder's final hidden state is added
    into the former);
  * a single-cell recurrent decoder runs autoregressively for `j` steps,
    seeded with the last recent value, a linear head mapping hidden to value;
  * the decoded sequence and the matched period continuation (run through a
    small autoencoder) are blended by attention with a learned projection of
    the recent window as the query.

Machines with no detected period carry the sentinel continuation (-1, ...),
which is fed to the autoencoder verbatim; training teaches the blend to
discount it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SeriesTooShort, ShapeMismatch
from .neural import (
    ParamStore,
    Tape,
    Tensor,
    add,
    concat_cols,
    downsample_indices,
    linear,
    pair_attention,
    recurrent_cell_step,
    scalar_attention,
    select_cols,
    autoencoder,
    add_autoencoder_slots,
)
from .periodicity import PeriodKnowledge, PeriodicityConfig, match
from .rng import Prng
from .stats import heavy_mask
from .traceio import WorkloadSeries


class Ablation(enum.Enum):
    """Which pieces of the model/loss are active.

    FULL      - period fusing on, worst-step loss on
    NO_PERIOD - fusing off (output is the raw decoded sequence)
    MSE_LOSS  - fusing on, loss forced to plain MSE
    NEITHER   - fusing off and loss forced to plain MSE
    """

    FULL = "full"
    NO_PERIOD = "no_period"
    MSE_LOSS = "mse_loss"
    NEITHER = "neither"

    @property
    def fuses(self) -> bool:
        return self in (Ablation.FULL, Ablation.MSE_LOSS)

    @property
    def plain_mse(self) -> bool:
        return self in (Ablation.MSE_LOSS, Ablation.NEITHER)


@dataclass(frozen=True)
class WindowConfig:
    i: int = 50            # recent ticks fed to the encoder
    m: int = 100           # long-context ticks (recent window is its suffix)
    j: int = 2             # forecast horizon
    hidden: int = 80
    layers: int = 2        # encoder depth; the decoder is a single cell
    ds_step: int = 20      # long-context downsampling stride
    ds_window: int = 100   # trailing slice of the long context to downsample
    d: int = 1             # feature width per tick (univariate)

    def __post_init__(self):
        if self.j < 2:
            raise ValueError("forecast horizon j must be >= 2")
        if self.i < 1 or self.m < self.i:
            raise ValueError("need 1 <= i <= m")
        if self.hidden < 1 or self.layers < 1:
            raise ValueError("hidden and layers must be >= 1")
        if self.ds_step < 1 or self.ds_window < 1:
            raise ValueError("ds_step and ds_window must be >= 1")
        if self.d != 1:
            raise ValueError("only univariate traces are supported")

    def effective_ds_window(self) -> int:
        return min(self.ds_window, self.m)

    def to_meta(self) -> dict:
        return {
            "i": self.i, "m": self.m, "j": self.j, "hidden": self.hidden,
            "layers": self.layers, "ds_step": self.ds_step,
            "ds_window": self.ds_window, "d": self.d,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "WindowConfig":
        return cls(**{k: int(meta[k]) for k in
                      ("i", "m", "j", "hidden", "layers", "ds_step", "ds_window", "d")})


@dataclass(frozen=True)
class SampleWindow:
    """One training/evaluation example.

    The long context covers the `m` ticks right before the target and the
    recent window is its trailing `i` ticks; the target is the next `j`.
    `heavy` flags target ticks above the machine's heavy threshold.
    """

    machine_id: str
    start: int
    x_long: np.ndarray
    x_short: np.ndarray
    y_period: np.ndarray
    target: np.ndarray
    heavy: np.ndarray


@dataclass(frozen=True)
class WindowSplit:
    train: list[SampleWindow]
    val: list[SampleWindow]
    test: list[SampleWindow]

    def __iter__(self):
        return iter((self.train, self.val, self.test))


def make_windows(series: WorkloadSeries, knowledge: PeriodKnowledge | None,
                 cfg: WindowConfig, pcfg: PeriodicityConfig,
                 split=(0.7, 0.1, 0.2)) -> WindowSplit:
    """Cut stride-1 windows and split them chronologically.

    Every window is a view into the series, and one `match` call finds the
    period continuation of all of them.  A series of length m + j yields
    exactly one window.  The heavy flags are computed once from the
    machine's full series.  The split fractions apply to the window list in
    time order, so every training window starts before every validation
    window, which starts before every test window.
    """
    if len(split) != 3 or any(s < 0 for s in split) or abs(sum(split) - 1.0) > 1e-9:
        raise ValueError("split must be three nonnegative fractions summing to 1")
    v, m, j = series.values, cfg.m, cfg.j
    n_windows = len(v) - m - j + 1
    if n_windows < 1:
        raise SeriesTooShort(f"series length {len(v)} < m + j = {m + j}")
    x_long = sliding_window_view(v, m)[:n_windows]
    x_short = x_long[:, m - cfg.i:]
    target = sliding_window_view(v[m:], j)
    heavy = sliding_window_view(heavy_mask(series).mask[m:], j)
    y_period = match(knowledge, x_short, j, pcfg).y_period
    windows = [SampleWindow(series.machine_id, s, x_long[s], x_short[s], y_period[s], target[s], heavy[s])
               for s in range(n_windows)]
    n_train = int(split[0] * n_windows)
    n_val = int(split[1] * n_windows)
    return WindowSplit(
        train=windows[:n_train],
        val=windows[n_train: n_train + n_val],
        test=windows[n_train + n_val:],
    )


def merge_splits(splits: list[WindowSplit]) -> WindowSplit:
    """Concatenate per-machine splits (machine order preserved)."""
    return WindowSplit(
        train=[w for s in splits for w in s.train],
        val=[w for s in splits for w in s.val],
        test=[w for s in splits for w in s.test],
    )


def build_params(cfg: WindowConfig, ablation: Ablation, seed_or_rng) -> ParamStore:
    """Allocate and initialise every learnable tensor for one model."""
    rng = seed_or_rng if isinstance(seed_or_rng, Prng) else Prng(seed_or_rng)
    store = ParamStore()
    h = cfg.hidden
    for layer in range(cfg.layers):
        d_in = cfg.d if layer == 0 else h
        store.add(f"enc.l{layer}.wx", d_in, 4 * h, rng)
        store.add(f"enc.l{layer}.wh", h, 4 * h, rng)
        store.add(f"enc.l{layer}.b", 1, 4 * h, None)
    store.add("dec.init.wh", cfg.i, h, rng)
    store.add("dec.init.wc", cfg.i, h, rng)
    store.add("dec.cell.wx", cfg.d, 4 * h, rng)
    store.add("dec.cell.wh", h, 4 * h, rng)
    store.add("dec.cell.b", 1, 4 * h, None)
    store.add("dec.head.w", h, cfg.d, rng)
    store.add("dec.head.b", 1, cfg.d, None)
    if ablation.fuses:
        store.add("fuse.query.w", cfg.i, cfg.j, rng)
        store.add("fuse.query.b", 1, cfg.j, None)
        add_autoencoder_slots(store, "fuse.ae", cfg.j, rng)
    return store


def _zeros(batch: int, cols: int) -> Tensor:
    return Tensor(np.zeros((batch, cols)))


def encode(tape: Tape, store: ParamStore, cfg: WindowConfig,
           x_short: Tensor, x_long: Tensor) -> tuple[Tensor, Tensor]:
    """Run the stacked encoder and summarise the long context.

    `x_short` is (batch, i), `x_long` is (batch, m).  Returns the top layer's
    final hidden state (batch, hidden) and the self-attended downsampled long
    context (batch, ceil(ds_window / ds_step)).  Each tick enters as a column
    view of `x_short`, not a tape node, so no gradient reaches `x_short`
    through the encoder.
    """
    if x_short.cols != cfg.i or x_long.cols != cfg.m:
        raise ShapeMismatch("encode: window widths do not match the config")
    weights = [(store[f"enc.l{layer}.wx"], store[f"enc.l{layer}.wh"], store[f"enc.l{layer}.b"])
               for layer in range(cfg.layers)]
    h = [_zeros(x_short.rows, cfg.hidden) for _ in range(cfg.layers)]
    c = [_zeros(x_short.rows, cfg.hidden) for _ in range(cfg.layers)]
    for t in range(cfg.i):
        inp = Tensor(x_short.data[:, t: t + 1])
        for layer, (wx, wh, b) in enumerate(weights):
            h[layer], c[layer] = recurrent_cell_step(tape, inp, h[layer], c[layer], wx, wh, b)
            inp = h[layer]
    idx = downsample_indices(cfg.m, cfg.ds_step, cfg.effective_ds_window())
    ds = select_cols(tape, x_long, idx)
    x_long_bar = scalar_attention(tape, ds, ds)
    return h[-1], x_long_bar


def decode(tape: Tape, store: ParamStore, cfg: WindowConfig,
           enc_last: Tensor, x_long_bar: Tensor, x_short: Tensor,
           j: int | None = None) -> Tensor:
    """Autoregressive decoding of the next `j` values.

    Cross-attention (recent ticks as queries, long-context summary as
    keys/values) is computed once per window; its rows, concatenated, are
    projected into the decoder's initial state, and the encoder's final
    hidden state `enc_last` is added to the hidden part.  The first decoder
    input is the last recent value; each later input is the previous
    prediction.
    """
    j = cfg.j if j is None else j
    h_cross = scalar_attention(tape, x_short, x_long_bar)      # (batch, i)
    h0 = add(tape, linear(tape, h_cross, store["dec.init.wh"]), enc_last)
    c0 = linear(tape, h_cross, store["dec.init.wc"])
    y_prev = select_cols(tape, x_short, [cfg.i - 1])
    h, c = h0, c0
    outs = []
    for _ in range(j):
        h, c = recurrent_cell_step(
            tape, y_prev, h, c,
            store["dec.cell.wx"], store["dec.cell.wh"], store["dec.cell.b"],
        )
        y_prev = linear(tape, h, store["dec.head.w"], store["dec.head.b"])
        outs.append(y_prev)
    return concat_cols(tape, outs)


def fuse(tape: Tape, store: ParamStore, cfg: WindowConfig,
         x_short: Tensor, y_hat: Tensor, y_period: Tensor) -> tuple[Tensor, np.ndarray]:
    """Blend the decoded sequence with the period continuation.

    The continuation goes through the autoencoder first (sentinels included,
    verbatim).  Keys and values are the two candidate rows; the query is a
    learned projection of the recent window.  Returns (blend, weights) with
    weights[:, 0] on the decoded sequence.
    """
    y_period_ae = autoencoder(tape, y_period, store, "fuse.ae")
    q = linear(tape, x_short, store["fuse.query.w"], store["fuse.query.b"])
    return pair_attention(tape, q, y_hat, y_period_ae)


@dataclass(frozen=True)
class Forecast:
    """Final forecast `y`, the raw decoded sequence `y_hat`, and the fusing
    weights (None when fusing is disabled)."""

    y: np.ndarray
    y_hat: np.ndarray
    fusion_weights: np.ndarray | None


@dataclass
class BatchForward:
    """Forward pass over a stacked batch, keeping graph handles for training."""

    tape: Tape
    y: Tensor                      # (batch, j) final output node
    y_hat: np.ndarray              # (batch, j) decoded sequence (detached)
    fusion_weights: np.ndarray | None

    def forecasts(self) -> list[Forecast]:
        return [
            Forecast(
                self.y.data[b].copy(),
                self.y_hat[b].copy(),
                None if self.fusion_weights is None else self.fusion_weights[b].copy(),
            )
            for b in range(self.y.rows)
        ]


def stack_windows(windows: list[SampleWindow]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack fields of a window list into (batch, ...) arrays."""
    x_short = np.stack([w.x_short for w in windows])
    x_long = np.stack([w.x_long for w in windows])
    y_period = np.stack([w.y_period for w in windows])
    target = np.stack([w.target for w in windows])
    return x_short, x_long, y_period, target


def forward_batch(windows: list[SampleWindow], store: ParamStore, cfg: WindowConfig,
                  ablation: Ablation = Ablation.FULL, tape: Tape | None = None) -> BatchForward:
    tape = tape if tape is not None else Tape()
    x_short_arr, x_long_arr, y_period_arr, _ = stack_windows(windows)
    x_short = Tensor(x_short_arr)
    x_long = Tensor(x_long_arr)
    enc_last, x_long_bar = encode(tape, store, cfg, x_short, x_long)
    y_hat = decode(tape, store, cfg, enc_last, x_long_bar, x_short)
    if ablation.fuses:
        y, weights = fuse(tape, store, cfg, x_short, y_hat, Tensor(y_period_arr))
    else:
        y, weights = y_hat, None
    return BatchForward(tape, y, y_hat.data.copy(), weights)


def forward(window: SampleWindow, store: ParamStore, cfg: WindowConfig,
            ablation: Ablation = Ablation.FULL) -> Forecast:
    """Single-window convenience wrapper around `forward_batch`."""
    return forward_batch([window], store, cfg, ablation, Tape(recording=False)).forecasts()[0]
