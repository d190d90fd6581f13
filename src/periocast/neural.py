"""Minimal reverse-mode differentiation over 2-D float arrays.

Everything the forecaster needs is built from a handful of primitives, each
with an exact hand-written backward pass: affine maps, a gated recurrent
cell, two batched attention blocks, column gathers and a
one-unit-bottleneck autoencoder.

Ops execute eagerly and append a closure to a `Tape`; `Tape.backward()` runs
the closures in reverse order, accumulating into each tensor's `grad`
buffer.  A tape is single-use.  Rows are the batch/time axis, columns are
features; data is row-major float64.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatch, TapeConsumed, WindowTooLarge
from .rng import Prng


class Tensor:
    """A 2-D array with an optional gradient buffer of the same shape."""

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

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

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

    `values` holds every parameter: the slots in insertion order, each one
    row-major.  `grads` has the same layout.  Each slot's `Tensor.data` and
    `Tensor.grad` are views into them, so the optimizer updates `values` in
    place and a flat index maps to one (name, row, col) for gradient checks.
    """

    def __init__(self):
        self._slots: dict[str, Tensor] = {}
        self._buf = np.empty((2, 0))  # row 0: values, row 1: grads; then unused room
        self.values = self._buf[0]
        self.grads = self._buf[1]

    def add(self, name: str, rows: int, cols: int, rng: Prng | None = None) -> Tensor:
        """Create a slot.  With an rng, values are uniform in
        (-1/sqrt(rows), +1/sqrt(rows)); without, zeros (used for biases)."""
        if name in self._slots:
            raise ValueError(f"duplicate slot {name!r}")
        lo = self.values.size
        hi = lo + rows * cols
        if hi > self._buf.shape[1]:
            # Grow geometrically, so building a store re-packs the buffer only
            # O(log n) times; every re-pack re-points the existing slots.  The
            # room is left uninitialised and zeroed one slot at a time.
            buf = np.empty((2, max(hi, 2 * self._buf.shape[1])))
            buf[:, :lo] = self._buf[:, :lo]
            self._repoint(buf)
        self._buf[:, lo:hi] = 0.0
        data, grad = self._views(lo, rows, cols)
        if rng is not None:
            bound = 1.0 / np.sqrt(rows)
            data[...] = [[rng.uniform(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        t = Tensor(data)
        t.grad = grad
        self._slots[name] = t
        self.values = self._buf[0, :hi]
        self.grads = self._buf[1, :hi]
        return t

    def _repoint(self, buf: np.ndarray) -> None:
        """Move every slot onto `buf`, which holds them at the same offsets."""
        self._buf = buf
        pos = 0
        for t in self._slots.values():
            t.data, t.grad = self._views(pos, t.rows, t.cols)
            pos += t.data.size

    def _views(self, lo: int, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
        hi = lo + rows * cols
        return self._buf[0, lo:hi].reshape(rows, cols), self._buf[1, lo:hi].reshape(rows, cols)

    def __getitem__(self, name: str) -> Tensor:
        return self._slots[name]

    def __contains__(self, name: str) -> bool:
        return name in self._slots

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

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ParamStore":
        """Slots named, ordered and shaped as `arrays`, holding copies of their
        values in one new buffer; gradients start at zero."""
        store = cls()
        store._slots = {name: Tensor(a) for name, a in arrays.items()}
        buf = np.zeros((2, sum(t.data.size for t in store._slots.values())))
        if store._slots:
            np.concatenate([t.data.ravel() for t in store._slots.values()], out=buf[0])
        store._repoint(buf)
        store.values, store.grads = buf[0], buf[1]
        return store

    def copy(self) -> "ParamStore":
        """Same slots and values in one new buffer; gradients start at zero."""
        return ParamStore.from_arrays({name: t.data for name, t in self._slots.items()})


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
        def _back():
            g = out.grad
            if g is None:
                return
            w.ensure_grad()
            w.grad += x.data.T @ g
            if b is not None:
                b.ensure_grad()
                b.grad += g.sum(axis=0, keepdims=True)
            x.ensure_grad()
            x.grad += g @ w.data.T
        tape.record(_back)
    return out


def tanh(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    if tape.recording:
        def _back():
            g = out.grad
            if g is None:
                return
            x.ensure_grad()
            x.grad += g * (1.0 - out.data * out.data)
        tape.record(_back)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a single row broadcast over a's rows."""
    if a.cols != b.cols or (a.rows != b.rows and b.rows != 1):
        raise ShapeMismatch(f"add: ({a.rows},{a.cols}) vs ({b.rows},{b.cols})")
    out = Tensor(a.data + b.data)
    if tape.recording:
        def _back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()
            a.grad += g
            b.ensure_grad()
            b.grad += g if b.rows == a.rows else g.sum(axis=0, keepdims=True)
        tape.record(_back)
    return out


def concat_cols(tape: Tape, parts: list[Tensor]) -> Tensor:
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise ShapeMismatch("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if tape.recording:
        def _back():
            g = out.grad
            if g is None:
                return
            pos = 0
            for p in parts:
                p.ensure_grad()
                p.grad += g[:, pos: pos + p.cols]
                pos += p.cols
        tape.record(_back)
    return out


def select_cols(tape: Tape, x: Tensor, idx) -> Tensor:
    """Pick columns by index (gather); backward scatters."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[:, idx])
    if tape.recording:
        def _back():
            g = out.grad
            if g is None:
                return
            x.ensure_grad()
            np.add.at(x.grad, (slice(None), idx), g)
        tape.record(_back)
    return out


def downsample_indices(n_rows: int, step: int, window: int) -> np.ndarray:
    """Indices of the trailing `window` rows thinned to every `step`-th."""
    if step < 1 or window < 1:
        raise ValueError("step and window must be >= 1")
    if window > n_rows:
        raise WindowTooLarge(f"window {window} exceeds {n_rows} rows")
    start = n_rows - window
    return np.arange(start, n_rows, step, dtype=np.int64)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    return e / e.sum(axis=-1, keepdims=True)


def scalar_attention(tape: Tape, q: Tensor, kv: Tensor) -> Tensor:
    """Batched attention over scalar features (key dim 1).

    Row b of `q` holds the query scalars of window b, row b of `kv` the
    key/value scalars.  Per window: S[i, j] = q[i] * kv[j], A = softmax_j(S),
    out[i] = sum_j A[i, j] * kv[j].  Equivalent to scaled dot-product
    attention applied per window with column-vector inputs.
    """
    if q.rows != kv.rows:
        raise ShapeMismatch(f"scalar_attention: {q.rows} vs {kv.rows} windows")
    s = q.data[:, :, None] * kv.data[:, None, :]
    a = _softmax_rows(s)
    out = Tensor((a * kv.data[:, None, :]).sum(axis=2))
    if tape.recording:
        def _back():
            g = out.grad
            if g is None:
                return
            q.ensure_grad()
            kv.ensure_grad()
            kv.grad += (a * g[:, :, None]).sum(axis=1)          # value path
            da = g[:, :, None] * kv.data[:, None, :]
            ds = a * (da - (da * a).sum(axis=2, keepdims=True))
            q.grad += (ds * kv.data[:, None, :]).sum(axis=2)
            kv.grad += (ds * q.data[:, :, None]).sum(axis=1)
        tape.record(_back)
    return out


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
        def _back():
            g = out.grad
            if g is None:
                return
            for t in (q, cand0, cand1):
                t.ensure_grad()
            cand0.grad += w0[:, None] * g
            cand1.grad += w1[:, None] * g
            dw0 = (g * cand0.data).sum(axis=1)
            dw1 = (g * cand1.data).sum(axis=1)
            inner = dw0 * w0 + dw1 * w1
            ds0 = w0 * (dw0 - inner)
            ds1 = w1 * (dw1 - inner)
            q.grad += scale * (ds0[:, None] * cand0.data + ds1[:, None] * cand1.data)
            cand0.grad += scale * ds0[:, None] * q.data
            cand1.grad += scale * ds1[:, None] * q.data
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


def gates(z: np.ndarray) -> np.ndarray:
    """All four gate activations of a (rows, 4 * hidden) pre-activation slab.

    sigmoid(v) = 1/2 + tanh(v/2)/2, so one tanh serves every quarter:
    s = tanh(z * scale) * scale + shift is sigmoid on the input, forget and
    output quarters and tanh on the cell quarter.  tanh saturates, so no
    input overflows.
    """
    scale, shift = _gate_rows(z.shape[1] // 4)
    return np.tanh(z * scale) * scale + shift


def recurrent_cell_step(tape: Tape, x: Tensor, h: Tensor, c: Tensor,
                        wx: Tensor, wh: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """One step of a standard gated recurrent (LSTM) cell.

    Gate pre-activations are x @ wx + h @ wh + b, split into quarters in the
    order input, forget, cell, output:

        i = sigmoid(z_i)   f = sigmoid(z_f)   g = tanh(z_g)   o = sigmoid(z_o)
        c' = f * c + i * g
        h' = o * tanh(c')
    """
    hidden = h.cols
    if wx.cols != 4 * hidden or wh.cols != 4 * hidden or b.cols != 4 * hidden:
        raise ShapeMismatch("cell: weight cols must be 4 * hidden")
    if x.cols != wx.rows or wh.rows != hidden:
        raise ShapeMismatch("cell: input/state dims do not match weights")
    s = gates(x.data @ wx.data + h.data @ wh.data + b.data)
    i = s[:, :hidden]
    f = s[:, hidden: 2 * hidden]
    g = s[:, 2 * hidden: 3 * hidden]
    o = s[:, 3 * hidden:]
    c_new = f * c.data + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    h_out = Tensor(h_new)
    c_out = Tensor(c_new)
    if tape.recording:
        def _back():
            dh = h_out.grad
            dc_out = c_out.grad
            if dh is None and dc_out is None:
                return
            dh = dh if dh is not None else 0.0
            dc = dc_out if dc_out is not None else np.zeros_like(c_new)
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c.data
            dg = dc * i
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ], axis=1)
            wx.ensure_grad()
            wx.grad += x.data.T @ dz
            wh.ensure_grad()
            wh.grad += h.data.T @ dz
            b.ensure_grad()
            b.grad += dz.sum(axis=0, keepdims=True)
            x.ensure_grad()
            x.grad += dz @ wx.data.T
            h.ensure_grad()
            h.grad += dz @ wh.data.T
            c.ensure_grad()
            c.grad += dc * f
        tape.record(_back)
    return h_out, c_out


def autoencoder(tape: Tape, x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    """One-layer encoder to a single tanh unit, one-layer decoder back.

    Slots: {prefix}.enc.w (d, 1), {prefix}.enc.b (1, 1),
           {prefix}.dec.w (1, d), {prefix}.dec.b (1, d).
    """
    z = linear(tape, x, store[f"{prefix}.enc.w"], store[f"{prefix}.enc.b"])
    z = tanh(tape, z)
    return linear(tape, z, store[f"{prefix}.dec.w"], store[f"{prefix}.dec.b"])


def add_autoencoder_slots(store: ParamStore, prefix: str, d: int, rng: Prng | None) -> None:
    store.add(f"{prefix}.enc.w", d, 1, rng)
    store.add(f"{prefix}.enc.b", 1, 1, None)
    store.add(f"{prefix}.dec.w", 1, d, rng)
    store.add(f"{prefix}.dec.b", 1, d, None)
