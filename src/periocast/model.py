"""Sequence-to-sequence forecaster with period fusing.

Architecture, per window:

  * a stacked gated recurrent encoder reads the recent `i` ticks, every
    layer in one wavefront op (`neural.recurrent_stack`);
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
import operator
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SeriesTooShort, ShapeMismatch
from .neural import (
    ParamStore,
    Tape,
    Tensor,
    add,
    autoencoder,
    autoencoder_shapes,
    concat_cols,
    init_params,
    linear,
    pair_attention,
    recurrent_cell_step,
    recurrent_stack,
    scalar_attention,
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
    """The model's settings: the `model.*` config keys and a checkpoint's
    `meta["model"]`.  Traces are univariate, one value per tick."""

    i: int = 50            # recent ticks fed to the encoder
    m: int = 100           # long-context ticks (recent window is its suffix)
    j: int = 2             # forecast horizon
    hidden: int = 80
    layers: int = 2        # encoder depth; the decoder is a single cell
    ds_step: int = 20      # long-context downsampling stride
    ds_window: int = 100   # trailing slice of the long context to downsample

    def __post_init__(self):
        if self.j < 2:
            raise ValueError("forecast horizon j must be >= 2")
        if self.i < 1 or self.m < self.i:
            raise ValueError("need 1 <= i <= m")
        if self.hidden < 1 or self.layers < 1:
            raise ValueError("hidden and layers must be >= 1")
        if self.ds_step < 1 or self.ds_window < 1:
            raise ValueError("ds_step and ds_window must be >= 1")

    def effective_ds_window(self) -> int:
        return min(self.ds_window, self.m)

    def to_meta(self) -> dict:
        return asdict(self)

    @classmethod
    def from_meta(cls, meta: dict) -> "WindowConfig":
        """Keys that are not fields, such as the `"d": 1` of older
        checkpoints, are ignored; a value that is not an int, a boolean
        included, raises TypeError."""
        def index(name: str) -> int:
            if isinstance(meta[name], bool):
                raise TypeError(f"{name} is a boolean, not an integer")
            return operator.index(meta[name])
        return cls(**{f.name: index(f.name) for f in fields(cls)})


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


_FIELDS = tuple(f.name for f in fields(SampleWindow))


@dataclass(frozen=True, eq=False)
class WindowSet:
    """Windows stacked field by field: row k of every array is window k.

    Fields are those of `SampleWindow`, with a leading row axis:
    `machine_id` and `start` are (n,), `x_long` is (n, m), `x_short` is
    (n, i), and `y_period`, `target` and `heavy` are (n, j).  An integer
    index returns that window as a `SampleWindow` of row views; a slice or
    an index array returns a `WindowSet`.
    """

    machine_id: np.ndarray
    start: np.ndarray
    x_long: np.ndarray
    x_short: np.ndarray
    y_period: np.ndarray
    target: np.ndarray
    heavy: np.ndarray

    @classmethod
    def of(cls, windows) -> "WindowSet":
        """`windows` itself if it is a `WindowSet`, else the fields of its
        `SampleWindow`s, a sequence, stacked."""
        if isinstance(windows, WindowSet):
            return windows
        return cls(*(np.array([getattr(w, name) for w in windows]) for name in _FIELDS))

    @classmethod
    def concat(cls, sets) -> "WindowSet":
        """The windows of every set in `sets`, in order."""
        return cls(*(np.concatenate([getattr(s, name) for s in sets]) for name in _FIELDS))

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return SampleWindow(str(self.machine_id[key]), int(self.start[key]),
                                *(getattr(self, name)[key] for name in _FIELDS[2:]))
        return WindowSet(*(getattr(self, name)[key] for name in _FIELDS))

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class WindowSplit:
    train: WindowSet
    val: WindowSet
    test: WindowSet

    def __iter__(self):
        return iter((self.train, self.val, self.test))


DEFAULT_SPLIT = (0.7, 0.1, 0.2)  # chronological train/val/test fractions; the `train.split` default


def make_windows(series: WorkloadSeries, knowledge: PeriodKnowledge | None,
                 cfg: WindowConfig, pcfg: PeriodicityConfig,
                 split=DEFAULT_SPLIT) -> WindowSplit:
    """Cut stride-1 windows and split them chronologically.

    Every field is a view into the series, and one `match` call finds the
    period continuation of all windows.  A series of length m + j yields
    exactly one window.  The heavy flags are computed once from the
    machine's full series.  The split fractions apply to the windows in
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
    windows = WindowSet(
        machine_id=np.full(n_windows, series.machine_id),
        start=np.arange(n_windows),
        x_long=x_long,
        x_short=x_short,
        y_period=match(knowledge, x_short, j, pcfg).y_period,
        target=sliding_window_view(v[m:], j),
        heavy=sliding_window_view(heavy_mask(series).mask[m:], j),
    )
    n_train = int(split[0] * n_windows)
    n_val = int(split[1] * n_windows)
    return WindowSplit(
        train=windows[:n_train],
        val=windows[n_train: n_train + n_val],
        test=windows[n_train + n_val:],
    )


def merge_splits(splits: list[WindowSplit]) -> WindowSplit:
    """Concatenate per-machine splits (machine order preserved)."""
    return WindowSplit(*(WindowSet.concat(part) for part in zip(*splits)))


def param_shapes(cfg: WindowConfig, ablation: Ablation) -> dict[str, tuple[int, int]]:
    """Every learnable tensor of one model as name -> (rows, cols), in the
    order of its flat buffer and of its checkpoint's tensor table."""
    h = cfg.hidden
    shapes = {}
    for layer in range(cfg.layers):
        shapes |= {f"enc.l{layer}.wx": (1 if layer == 0 else h, 4 * h),
                   f"enc.l{layer}.wh": (h, 4 * h), f"enc.l{layer}.b": (1, 4 * h)}
    shapes |= {"dec.init.wh": (cfg.i, h), "dec.init.wc": (cfg.i, h),
               "dec.cell.wx": (1, 4 * h), "dec.cell.wh": (h, 4 * h), "dec.cell.b": (1, 4 * h),
               "dec.head.w": (h, 1), "dec.head.b": (1, 1)}
    if ablation.fuses:
        shapes |= {"fuse.query.w": (cfg.i, cfg.j), "fuse.query.b": (1, cfg.j)}
        shapes |= autoencoder_shapes("fuse.ae", cfg.j)
    return shapes


def build_params(cfg: WindowConfig, ablation: Ablation, seed_or_rng: int | Prng) -> ParamStore:
    """Every learnable tensor of one model, initialised by `init_params`."""
    rng = seed_or_rng if isinstance(seed_or_rng, Prng) else Prng(seed_or_rng)
    return init_params(param_shapes(cfg, ablation), rng)


def encode(tape: Tape, store: ParamStore, cfg: WindowConfig,
           x_short: Tensor, x_long: Tensor) -> tuple[Tensor, np.ndarray]:
    """Run the stacked encoder and summarise the long context.

    `x_short` is (batch, i), `x_long` is (batch, m).  Returns the top layer's
    final hidden state (batch, hidden) and the self-attended downsampled long
    context (batch, ceil(ds_window / ds_step)).  The whole stack is one
    `recurrent_stack` over the recent window transposed to time-major.
    The summary has no parameters, so it is plain numpy, off the tape.
    """
    if x_short.cols != cfg.i or x_long.cols != cfg.m:
        raise ShapeMismatch("encode: window widths do not match the config")
    h_last = recurrent_stack(tape, x_short.data.T[:, :, None], [
        tuple(store[f"enc.l{layer}.{name}"] for name in ("wx", "wh", "b")) for layer in range(cfg.layers)])
    ds = x_long.data[:, cfg.m - cfg.effective_ds_window():: cfg.ds_step]
    return h_last, scalar_attention(ds, ds)


def decode(tape: Tape, store: ParamStore, cfg: WindowConfig,
           enc_last: Tensor, x_long_bar: np.ndarray, x_short: Tensor) -> Tensor:
    """Autoregressive decoding of the next `cfg.j` values.

    Cross-attention (recent ticks as queries, long-context summary as
    keys/values) is computed once per window, off the tape; its rows,
    concatenated, are projected into the decoder's initial state, and the
    encoder's final hidden state `enc_last` is added to the hidden part.
    The first decoder input is the last recent value; each later input is
    the previous prediction.
    """
    h_cross = Tensor(scalar_attention(x_short.data, x_long_bar))      # (batch, i)
    h0 = add(tape, linear(tape, h_cross, store["dec.init.wh"]), enc_last)
    c0 = linear(tape, h_cross, store["dec.init.wc"])
    # A contiguous copy of the last column: as a strided view it takes
    # another BLAS path in the backward's x.T @ dz and changes the last bit.
    y_prev = Tensor(x_short.data[:, cfg.i - 1:].copy())
    h, c = h0, c0
    outs = []
    for _ in range(cfg.j):
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


def forward_batch(windows: WindowSet | list[SampleWindow], store: ParamStore, cfg: WindowConfig,
                  ablation: Ablation = Ablation.FULL, tape: Tape | None = None) -> BatchForward:
    tape = tape if tape is not None else Tape()
    windows = WindowSet.of(windows)
    # Contiguous rows, as the recurrent matmuls have always been fed: a
    # strided view may take another BLAS path and change the last bit.
    x_short = Tensor(np.ascontiguousarray(windows.x_short))
    x_long = Tensor(windows.x_long)
    enc_last, x_long_bar = encode(tape, store, cfg, x_short, x_long)
    y_hat = decode(tape, store, cfg, enc_last, x_long_bar, x_short)
    if ablation.fuses:
        y, weights = fuse(tape, store, cfg, x_short, y_hat, Tensor(windows.y_period))
    else:
        y, weights = y_hat, None
    return BatchForward(tape, y, y_hat.data.copy(), weights)


def forward(window: SampleWindow, store: ParamStore, cfg: WindowConfig,
            ablation: Ablation = Ablation.FULL) -> Forecast:
    """One window's forecast without recording: row 0 of `forward_batch`
    over the window's arrays, which enter as one-row views, unstacked."""
    one = WindowSet(np.array([window.machine_id]), np.array([window.start]),
                    *(getattr(window, name)[None] for name in _FIELDS[2:]))
    bf = forward_batch(one, store, cfg, ablation, Tape(recording=False))
    return Forecast(bf.y.data[0], bf.y_hat[0], None if bf.fusion_weights is None else bf.fusion_weights[0])
