"""Minimal reverse-mode differentiation over 2-D float arrays.

Everything the forecaster learns through is built from a handful of
primitives, each with an exact hand-written backward pass: affine maps, a
gated recurrent cell, one op that runs a stack of those cells over a whole
sequence as a wavefront, attention over two candidates and a
one-unit-bottleneck autoencoder.  The single step and the stack share one
copy of the cell's math.

Ops execute eagerly and append a closure to a `Tape`; `Tape.backward()` runs
the closures in reverse order, accumulating into each tensor's `grad`
buffer.  A tensor receives a gradient only if it has a buffer: parameter
slots have one, and every op gives its output a zero buffer while the tape
records.  A tensor wrapped around data has none, so no gradient is computed
for it.  A tape is single-use.  Rows are the batch/time axis, columns are
features; data is row-major float64.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, cycle, islice

import numpy as np

from .errors import ShapeMismatch, TapeConsumed
from .rng import Prng


class Tensor:
    """A 2-D array with an optional gradient buffer of the same shape; only a
    tensor with a buffer receives a gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"Tensor(rows={self.rows}, cols={self.cols})"


class Tape:
    """Ordered record of backward closures; replayed once, in reverse."""

    __slots__ = ("_nodes", "_used", "recording")

    def __init__(self, recording: bool = True):
        self._nodes = []
        self._used = False
        self.recording = recording

    def record(self, fn) -> None:
        self._nodes.append(fn)

    def backward(self) -> None:
        """Run all recorded closures in reverse order.  Seed the output
        tensor's `grad` before calling."""
        if self._used:
            raise TapeConsumed("tape already replayed")
        self._used = True
        for fn in reversed(self._nodes):
            fn()

    def __len__(self):
        return len(self._nodes)


class ParamStore:
    """Named parameter slots laid out in one flat buffer.

    `values` holds every parameter: the slots in the order of `arrays`, each
    one row-major.  `grads` has the same layout.  Each slot's `Tensor.data`
    and `Tensor.grad` are views into them, so the optimizer updates `values`
    in place and a flat index maps to one (name, row, col) for gradient
    checks.  The slots hold copies of `arrays`, written into the buffer by
    one concatenate; gradients start at zero.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._slots = {name: Tensor(a) for name, a in arrays.items()}
        sizes = [t.data.size for t in self._slots.values()]
        buf = np.zeros((2, sum(sizes)))
        if sizes:
            np.concatenate([t.data.ravel() for t in self._slots.values()], out=buf[0])
        self.values, self.grads = buf
        for t, end, size in zip(self._slots.values(), accumulate(sizes), sizes):
            shape = t.data.shape
            t.data = self.values[end - size: end].reshape(shape)
            t.grad = self.grads[end - size: end].reshape(shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._slots[name]

    def names(self) -> list[str]:
        return list(self._slots)

    @property
    def n_params(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def get_flat(self) -> np.ndarray:
        """A copy of `values`: later updates do not show in it."""
        return self.values.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        """Write every parameter in place; slot views see the new values."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.n_params:
            raise ShapeMismatch(f"flat vector has {vec.size} entries, store has {self.n_params}")
        self.values[:] = vec.ravel()

    def grad_flat(self) -> np.ndarray:
        """A copy of `grads`."""
        return self.grads.copy()

    def copy(self) -> "ParamStore":
        """Same slots and values in one new buffer; gradients start at zero."""
        return ParamStore({name: t.data for name, t in self._slots.items()})


def init_params(shapes: dict[str, tuple[int, int]], rng: Prng) -> ParamStore:
    """A store with the slots of `shapes`, in its order.  Biases, the slots
    named `b` or `*.b`, are zero; every other slot of `rows` rows is drawn
    uniform in (-1/sqrt(rows), +1/sqrt(rows)), slot by slot and row-major."""
    arrays = {}
    for name, (rows, cols) in shapes.items():
        if name.rpartition(".")[2] == "b":
            arrays[name] = np.zeros((rows, cols))
        else:
            bound = 1.0 / math.sqrt(rows)
            arrays[name] = np.reshape([rng.uniform(-bound, bound) for _ in range(rows * cols)], (rows, cols))
    return ParamStore(arrays)


# --------------------------------------------------------------------------
# primitives
# --------------------------------------------------------------------------

def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b broadcast over rows)."""
    if x.cols != w.rows:
        raise ShapeMismatch(f"linear: x has {x.cols} cols, w has {w.rows} rows")
    if b is not None and (b.rows != 1 or b.cols != w.cols):
        raise ShapeMismatch(f"linear: bias must be (1, {w.cols})")
    y = x.data @ w.data
    if b is not None:
        y = y + b.data
    out = Tensor(y)
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            g = out.grad
            if w.grad is not None:
                w.grad += x.data.T @ g
            if b is not None and b.grad is not None:
                b.grad += g.sum(axis=0, keepdims=True)
            if x.grad is not None:
                x.grad += g @ w.data.T
        tape.record(_back)
    return out


def tanh(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            if x.grad is not None:
                x.grad += out.grad * (1.0 - out.data * out.data)
        tape.record(_back)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a single row broadcast over a's rows."""
    if a.cols != b.cols or (a.rows != b.rows and b.rows != 1):
        raise ShapeMismatch(f"add: ({a.rows},{a.cols}) vs ({b.rows},{b.cols})")
    out = Tensor(a.data + b.data)
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            g = out.grad
            if a.grad is not None:
                a.grad += g
            if b.grad is not None:
                b.grad += g if b.rows == a.rows else g.sum(axis=0, keepdims=True)
        tape.record(_back)
    return out


def concat_cols(tape: Tape, parts: list[Tensor]) -> Tensor:
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise ShapeMismatch("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            pos = 0
            for p in parts:
                if p.grad is not None:
                    p.grad += out.grad[:, pos: pos + p.cols]
                pos += p.cols
        tape.record(_back)
    return out


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    return e / e.sum(axis=-1, keepdims=True)


def scalar_attention(q: np.ndarray, kv: np.ndarray) -> np.ndarray:
    """Batched attention over scalar features (key dim 1), on plain arrays.

    Row b of `q` holds the query scalars of window b, row b of `kv` the
    key/value scalars.  Per window: S[i, j] = q[i] * kv[j], A = softmax_j(S),
    out[i] = sum_j A[i, j] * kv[j].  Equivalent to scaled dot-product
    attention applied per window with column-vector inputs.  It has no
    parameters and no backward: the model applies it to window data only.
    """
    if q.shape[0] != kv.shape[0]:
        raise ShapeMismatch(f"scalar_attention: {q.shape[0]} vs {kv.shape[0]} windows")
    a = _softmax_rows(q[:, :, None] * kv[:, None, :])
    return (a * kv[:, None, :]).sum(axis=2)


def pair_attention(tape: Tape, q: Tensor, cand0: Tensor, cand1: Tensor) -> tuple[Tensor, np.ndarray]:
    """Attention over exactly two candidate rows per window.

    Each of `q`, `cand0`, `cand1` is (batch, d).  Scores are scaled dot
    products q . cand_c / sqrt(d); the output is the softmax-weighted blend
    of the candidates.  Returns (output, weights) where weights is a
    detached (batch, 2) array for reporting.
    """
    if not (q.rows == cand0.rows == cand1.rows and q.cols == cand0.cols == cand1.cols):
        raise ShapeMismatch("pair_attention: shape mismatch")
    scale = 1.0 / np.sqrt(q.cols)
    s0 = (q.data * cand0.data).sum(axis=1) * scale
    s1 = (q.data * cand1.data).sum(axis=1) * scale
    m = np.maximum(s0, s1)
    e0 = np.exp(s0 - m)
    e1 = np.exp(s1 - m)
    w0 = e0 / (e0 + e1)
    w1 = e1 / (e0 + e1)
    out = Tensor(w0[:, None] * cand0.data + w1[:, None] * cand1.data)
    if tape.recording:
        out.grad = np.zeros_like(out.data)

        def _back():
            g = out.grad
            dw0 = (g * cand0.data).sum(axis=1)
            dw1 = (g * cand1.data).sum(axis=1)
            inner = dw0 * w0 + dw1 * w1
            ds0 = w0 * (dw0 - inner)
            ds1 = w1 * (dw1 - inner)
            if cand0.grad is not None:
                cand0.grad += w0[:, None] * g
                cand0.grad += scale * ds0[:, None] * q.data
            if cand1.grad is not None:
                cand1.grad += w1[:, None] * g
                cand1.grad += scale * ds1[:, None] * q.data
            if q.grad is not None:
                q.grad += scale * (ds0[:, None] * cand0.data + ds1[:, None] * cand1.data)
        tape.record(_back)
    return out, np.stack([w0, w1], axis=1)


@functools.lru_cache(maxsize=None)
def _gate_rows(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, shift) rows for the gate quarters i, f, g, o: 0.5 and
    0.5 on the three sigmoid quarters, 1 and 0 on the tanh quarter.  Every
    caller shares them, so they are read-only."""
    scale = np.repeat([[0.5, 0.5, 1.0, 0.5]], hidden, axis=1)
    shift = np.repeat([[0.5, 0.5, 0.0, 0.5]], hidden, axis=1)
    scale.flags.writeable = False
    shift.flags.writeable = False
    return scale, shift


def gates(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All four gate activations of a (rows, 4 * hidden) pre-activation slab,
    written to `out` (which may be `z`) or to a new array.

    sigmoid(v) = 1/2 + tanh(v/2)/2, so one tanh serves every quarter:
    s = tanh(z * scale) * scale + shift is sigmoid on the input, forget and
    output quarters and tanh on the cell quarter.  tanh saturates, so no
    input overflows.
    """
    scale, shift = _gate_rows(z.shape[1] // 4)
    return _squash(np.multiply(z, scale, out=out), scale, shift)


def _squash(zs: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """`gates` of pre-activations already multiplied by `scale`, in place."""
    np.tanh(zs, out=zs)
    zs *= scale
    zs += shift
    return zs


def _quarters(s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the input, forget, cell and output quarters of the last axis
    of a gate slab `s`."""
    hidden = s.shape[-1] // 4
    return tuple(s[..., q * hidden: (q + 1) * hidden] for q in range(4))


def _cell_state(i: np.ndarray, f: np.ndarray, g: np.ndarray, o: np.ndarray, c_prev: np.ndarray,
                c: np.ndarray, tc: np.ndarray, h: np.ndarray) -> None:
    """From the gate activations i, f, g, o of one step and the previous cell
    state, write the new cell state c = f * c_prev + i * g, tc = tanh(c) and
    the new hidden state h = o * tc."""
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def _cell_dz(dh: np.ndarray, dc: np.ndarray, s: np.ndarray, c_prev: np.ndarray,
             tc: np.ndarray) -> np.ndarray:
    """Backward of one step, in place: overwrite the gate activations `s` with
    the pre-activation gradient dz, given the gradients `dh` and `dc` of the
    step's hidden and cell state.  Returns the previous cell state's gradient.

    Every gate's slope comes from its activation in one pass over the row:
    scale^2 - (s - shift)^2 is s * (1 - s) on the sigmoid quarters and
    1 - g^2 on the tanh quarter.
    """
    scale, shift = _gate_rows(dh.shape[1])
    i, f, g, o = _quarters(s)
    slope = s - shift
    slope *= slope
    np.subtract(scale * scale, slope, out=slope)
    dc = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dc * f
    dg = dc * i
    np.multiply(dc, g, out=i)
    g[...] = dg
    np.multiply(dc, c_prev, out=f)
    np.multiply(dh, tc, out=o)
    s *= slope
    return dc_prev


def _check_cell(x_cols: int, hidden: int, wx: Tensor, wh: Tensor, b: Tensor) -> None:
    if wx.cols != 4 * hidden or wh.cols != 4 * hidden or b.cols != 4 * hidden or b.rows != 1:
        raise ShapeMismatch("cell: weight cols must be 4 * hidden, bias one row")
    if x_cols != wx.rows or wh.rows != hidden:
        raise ShapeMismatch("cell: input/state dims do not match weights")


def recurrent_cell_step(tape: Tape, x: Tensor, h: Tensor, c: Tensor,
                        wx: Tensor, wh: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One step of a standard gated recurrent (LSTM) cell.

    Gate pre-activations are x @ wx + h @ wh + b, split into quarters in the
    order input, forget, cell, output:

        i = sigmoid(z_i)   f = sigmoid(z_f)   g = tanh(z_g)   o = sigmoid(z_o)
        c' = f * c + i * g
        h' = o * tanh(c')
    """
    _check_cell(x.cols, h.cols, wx, wh, b)
    s = x.data @ wx.data + h.data @ wh.data + b.data
    c_new, tc, h_new = np.empty((3, h.rows, h.cols))
    _cell_state(*_quarters(gates(s, out=s)), c.data, c_new, tc, h_new)
    h_out = Tensor(h_new)
    c_out = Tensor(c_new)
    if tape.recording:
        h_out.grad = np.zeros_like(h_new)
        c_out.grad = np.zeros_like(c_new)

        def _back():
            dc_prev = _cell_dz(h_out.grad, c_out.grad, s, c.data, tc)  # s now holds dz
            if wx.grad is not None:
                wx.grad += x.data.T @ s
            if wh.grad is not None:
                wh.grad += h.data.T @ s
            if b.grad is not None:
                b.grad += s.sum(axis=0, keepdims=True)
            if x.grad is not None:
                x.grad += s @ wx.data.T
            if h.grad is not None:
                h.grad += s @ wh.data.T
            if c.grad is not None:
                c.grad += dc_prev
        tape.record(_back)
    return h_out, c_out


def _slabs(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Float arrays of the given shapes, laid end to end in one allocation.

    A training step's recording slabs are megabytes, each above the
    allocator's initial mmap threshold.  Freed one by one, they raised its
    trim threshold to less than a step frees, so in some heap layouts every
    step handed pages back to the system and faulted them in again.  One
    block of their total size raises it past a step's churn."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = np.empty(sum(sizes))
    return [buf[end - size: end].reshape(shape)
            for shape, size, end in zip(shapes, sizes, accumulate(sizes))]


def recurrent_stack(tape: Tape, xs: np.ndarray, cells: list[tuple[Tensor, Tensor, Tensor]]) -> Tensor:
    """Stacked `recurrent_cell_step` layers over a whole sequence, as one
    tape node.

    `xs` is data, time-major (steps, batch, d_in), and gets no gradient.
    `cells` holds each layer's (wx, wh, b), bottom first; layer l > 0 reads
    the hidden sequence of layer l - 1, and every state starts at zero.
    Returns the top layer's final hidden state (batch, hidden).

    The layers run as a wavefront: step k runs layer l on tick k - l, so a
    step reads only the states the step before wrote.  Step k's row
    [1, x_k, h_0 ... h_{L-1}] times one stacked weight gives every layer's
    gates.  The weight holds the biases, layer 0's wx, and block-bidiagonal
    blocks (h_l feeds layer l through wh_l and layer l + 1 through
    wx_{l+1}); its columns are gate-major, all layers' input gates first,
    so all states side by side update as one cell of width
    layers * hidden.  Layers that have not started are put back to the zero
    state after each ramp-up step; finished layers run on unread.  While
    the tape records, every step's row, gates and cell states are kept;
    otherwise the gates and cell states live in rolling rows.  Rows, gates
    and cell states share one allocation (`_slabs`).

    The backward is the reverse wavefront: per step one dz pass over all
    layers, written over the gates, and dz @ W.T gives each layer both its
    recurrent gradient and the gradient of the output of the layer below.
    Ramp-up cells get none.  The weight gradients come from one product of
    all rows with all dz, scattered into the slots.
    """
    if xs.ndim != 3:
        raise ShapeMismatch(f"stack: inputs are (steps, batch, d_in), got shape {xs.shape}")
    steps, batch, d_in = xs.shape
    if steps < 1 or not cells:
        raise ShapeMismatch("stack: needs at least one tick and one layer")
    layers, hidden = len(cells), cells[0][1].rows
    record = tape.recording
    n = steps + layers - 1
    top = 1 + d_in
    width = layers * hidden
    shape = (top + width, 4, layers, hidden)
    # Row 0 of the weight is the bias, rows 1 ... top - 1 layer 0's input
    # and rows top + l * hidden ... layer l's state; column
    # (q * layers + l) * hidden + u is unit u of layer l's gate quarter q.
    w = np.zeros(shape)
    blocks = []
    for layer, (wx, wh, b) in enumerate(cells):
        _check_cell(d_in if layer == 0 else hidden, hidden, wx, wh, b)
        state = top + layer * hidden
        blocks += [(b, slice(0, 1), layer),
                   (wx, slice(1, top) if layer == 0 else slice(state - hidden, state), layer),
                   (wh, slice(state, state + hidden), layer)]
    for slot, rs, layer in blocks:
        w[rs, :, layer] = slot.data.reshape(-1, 4, hidden)
    w = w.reshape(top + width, 4 * width)
    scale, shift = _gate_rows(width)
    # Pre-multiplied by the gate scale, a power of two, the weight gives
    # z * scale exactly, so each step only squashes.
    ws = w * scale
    # Step k reads row k and writes its hidden states into row k + 1; after
    # the last tick layer 0 reads zeros.
    rows, zs, cs, tcs = _slabs(
        (n + 1, batch, top + width), (n if record else 1, batch, 4 * width),
        (n + 1 if record else 2, batch, width), (n if record else 1, batch, width))
    rows[:, :, 0] = 1.0
    rows[:steps, :, 1:top] = xs
    rows[steps:, :, 1:top] = 0.0
    rows[0, :, top:] = 0.0
    cs[0] = 0.0
    hs = rows[1:, :, top:]
    for k, (row, z, i, f, g, o, c_prev, c, tc, h) in enumerate(zip(
            rows, cycle(zs), *map(cycle, _quarters(zs)), cycle(cs), islice(cycle(cs), 1, None),
            cycle(tcs), hs)):
        np.matmul(row, ws, out=z)
        _squash(z, scale, shift)
        _cell_state(i, f, g, o, c_prev, c, tc, h)
        if k < layers - 1:
            h[:, (k + 1) * hidden:] = 0.0
            c[:, (k + 1) * hidden:] = 0.0
    h_last = Tensor(hs[-1, :, width - hidden:])
    if record:
        h_last.grad = np.zeros_like(h_last.data)

        def _back():
            w_state = w[top:].T
            dh = np.zeros((batch, width))
            dh[:, width - hidden:] = h_last.grad
            dc = np.zeros_like(dh)
            for k in range(n - 1, -1, -1):
                if k < layers - 1:
                    dh[:, (k + 1) * hidden:] = 0.0
                    dc[:, (k + 1) * hidden:] = 0.0
                dc = _cell_dz(dh, dc, zs[k], cs[k], tcs[k])  # zs[k] now holds dz
                if k:
                    np.matmul(zs[k], w_state, out=dh)
            dw = (rows[:n].reshape(n * batch, -1).T @ zs.reshape(n * batch, -1)).reshape(shape)
            for slot, rs, layer in blocks:
                if slot.grad is not None:
                    slot.grad += dw[rs, :, layer].reshape(slot.grad.shape)
        tape.record(_back)
    return h_last


def autoencoder(tape: Tape, x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """One-layer encoder to a single tanh unit, one-layer decoder back, on
    the slots of `autoencoder_shapes(prefix, d)`."""
    z = linear(tape, x, store[f"{prefix}.enc.w"], store[f"{prefix}.enc.b"])
    z = tanh(tape, z)
    return linear(tape, z, store[f"{prefix}.dec.w"], store[f"{prefix}.dec.b"])


def autoencoder_shapes(prefix: str, d: int) -> dict[str, tuple[int, int]]:
    """The slots of an `autoencoder` of width `d`."""
    return {f"{prefix}.enc.w": (d, 1), f"{prefix}.enc.b": (1, 1),
            f"{prefix}.dec.w": (1, d), f"{prefix}.dec.b": (1, d)}
