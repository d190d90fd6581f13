import math

import numpy as np
import pytest

from helpers import (attention, attention_weights, cell_per_tick, encode_per_tick, fd_array_grad,
                     fd_param_grad, logistic, max_rel_err, recurrent_sequence)
from periocast.errors import ShapeMismatch, TapeConsumed
from periocast.model import Ablation, WindowConfig, build_params, encode
from periocast.neural import (
    ParamStore,
    Tape,
    Tensor,
    add,
    autoencoder,
    autoencoder_shapes,
    concat_cols,
    gates,
    init_params,
    linear,
    pair_attention,
    recurrent_cell_step,
    recurrent_stack,
    scalar_attention,
    tanh,
)
from periocast.rng import Prng

FD_TOL = 1e-6


def _zeros(**shapes):
    """A store of zero slots, named and shaped as `shapes`, in order."""
    return ParamStore({name: np.zeros(shape) for name, shape in shapes.items()})


# --- tensors and tape --------------------------------------------------------

def test_tensor_promotes_1d():
    t = Tensor(np.arange(3.0))
    assert (t.rows, t.cols) == (1, 3)


def test_tensor_rejects_3d():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((2, 2, 2)))


def test_tape_single_use():
    tape = Tape()
    x = Tensor(np.ones((1, 2)))
    y = tanh(tape, x)
    y.grad = np.ones_like(y.data)
    tape.backward()
    with pytest.raises(TapeConsumed):
        tape.backward()


def test_tape_not_recording_skips_closures():
    tape = Tape(recording=False)
    x = Tensor(np.ones((2, 2)))
    tanh(tape, x)
    assert len(tape) == 0


def test_backward_skips_tensors_without_a_buffer():
    # an op's output gets a zero buffer while the tape records; a data leaf
    # has none, so only the parameter receives a gradient
    tape = Tape()
    x = Tensor(np.arange(6.0).reshape(2, 3))
    w = init_params({"w": (3, 2)}, Prng(0))["w"]
    y = linear(tape, x, w)
    assert np.array_equal(y.grad, np.zeros((2, 2)))
    y.grad += 1.0
    tape.backward()
    assert x.grad is None
    assert np.array_equal(w.grad, x.data.T @ np.ones((2, 2)))


def test_non_recording_matches_recording_values():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    a = linear(Tape(), Tensor(x.copy()), Tensor(w.copy()))
    b = linear(Tape(recording=False), Tensor(x.copy()), Tensor(w.copy()))
    assert np.array_equal(a.data, b.data)


# --- parameter store -----------------------------------------------------------

def test_store_flat_round_trip():
    store = init_params({"a": (3, 4), "w": (2, 2), "b": (1, 5)}, Prng(0))
    flat = store.get_flat()
    assert flat.size == store.n_params == 3 * 4 + 2 * 2 + 5
    store.set_flat(flat * 2.0)
    assert np.allclose(store.get_flat(), flat * 2.0)


def test_store_flat_index_maps_to_single_slot_element():
    store = init_params({"a": (2, 3), "w": (3, 1)}, Prng(1))
    base = store.get_flat()
    for idx in (0, 5, 6, 8):
        vec = base.copy()
        vec[idx] += 1.0
        store.set_flat(vec)
        changed = sum(
            int(np.sum(store[n].data != base_slot))
            for n, base_slot in zip(
                store.names(),
                np.split(base, np.cumsum([store[n].data.size for n in store.names()])[:-1]),
            )
            for base_slot in [base_slot.reshape(store[n].data.shape)]
        )
        assert changed == 1
        store.set_flat(base)


def test_store_init_bounds_and_zero_bias():
    store = init_params({"w": (16, 8), "b": (1, 8), "enc.b": (1, 3)}, Prng(3))
    bound = 1.0 / math.sqrt(16)
    assert np.all(np.abs(store["w"].data) < bound)
    assert np.all(store["b"].data == 0.0)
    assert np.all(store["enc.b"].data == 0.0)


def test_store_copy_is_independent():
    store = init_params({"w": (2, 2), "v": (1, 3)}, Prng(0))
    store.grads.fill(1.0)
    dup = store.copy()
    assert dup.names() == store.names()
    assert np.array_equal(dup.values, store.values)
    assert np.array_equal(dup.grads, np.zeros(store.n_params))
    for name in dup.names():
        assert np.shares_memory(dup[name].data, dup.values)
        assert np.shares_memory(dup[name].grad, dup.grads)
        assert not np.shares_memory(dup[name].data, store.values)
    dup["w"].data[0, 0] += 9.0
    assert store["w"].data[0, 0] != dup["w"].data[0, 0]
    assert dup.values[0] == dup["w"].data[0, 0]


def test_store_grad_flat_zeros_for_untouched():
    store = init_params({"w": (2, 2)}, Prng(0))
    assert np.array_equal(store.grad_flat(), np.zeros(4))


def test_store_slots_are_views_into_one_buffer():
    store = init_params({"w": (3, 4), **{f"s{k}": (5, 7) for k in range(6)}, "b": (1, 9)}, Prng(0))
    assert not store["b"].data.any() and not store.grads.any()
    assert np.shares_memory(store["w"].data, store.values)
    assert np.shares_memory(store["w"].grad, store.grads)
    assert np.array_equal(store["s5"].data.ravel(), store.values[-44:-9])
    store.set_flat(np.arange(store.n_params, dtype=np.float64))
    assert np.shares_memory(store["w"].data, store.values)
    assert np.array_equal(store["w"].data, np.arange(12.0).reshape(3, 4))


def test_store_data_sees_later_set_flat():
    store = init_params({"a": (2, 3), "w": (2, 2)}, Prng(0))
    w = store["w"].data
    store.set_flat(np.full(store.n_params, 0.5))
    assert np.array_equal(w, np.full((2, 2), 0.5))


def test_store_flat_reads_are_copies():
    store = init_params({"w": (2, 2)}, Prng(0))
    w = store["w"]
    base = store.get_flat()
    grads = store.grad_flat()
    store.set_flat(base + 1.0)
    w.grad += 1.0
    assert np.array_equal(store.get_flat(), base + 1.0)
    assert np.array_equal(grads, np.zeros(4))
    store.zero_grad()
    assert np.array_equal(store.grad_flat(), np.zeros(4))


# --- finite-difference harness for each primitive ----------------------------------

def _opt_in(*tensors):
    """Give input leaves zero gradient buffers, so backward reaches them."""
    for t in tensors:
        t.grad = np.zeros_like(t.data)


def _check_op(build, n_seeds=5, floor=1e-8):
    """build(rng) -> (f_scalar, store, extra_inputs); checks d f / d params and
    d f / d inputs against central differences.  `f` gives each input in
    `extra_inputs` a fresh zero buffer.  Entries below `floor` in magnitude
    are not compared."""
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        f, store, inputs = build(rng)
        store.zero_grad()
        tape = Tape()
        out = f(tape)
        out.grad = np.ones_like(out.data)
        tape.backward()
        # snapshot before the fd sweeps below re-invoke f
        analytic_params = store.grad_flat() if store.n_params else None
        analytic_inputs = []
        for _, tensor in inputs:
            assert tensor.grad is not None
            analytic_inputs.append(tensor.grad.copy())
        if analytic_params is not None:
            numeric = fd_param_grad(
                lambda: float(f(Tape(recording=False)).data.sum()), store)
            assert max_rel_err(analytic_params, numeric, floor) < FD_TOL
        for (arr, _), got in zip(inputs, analytic_inputs):
            numeric_in = fd_array_grad(
                lambda _a: float(f(Tape(recording=False)).data.sum()), arr)
            assert max_rel_err(got, numeric_in, floor) < FD_TOL


def test_linear_gradients():
    def build(rng):
        store = ParamStore({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))})
        w, b = store["w"], store["b"]
        x_arr = rng.normal(size=(5, 4))
        x = Tensor(x_arr)

        def f(tape):
            _opt_in(x)
            return linear(tape, x, w, b)

        return f, store, [(x_arr, x)]

    _check_op(build)


def test_linear_hand_example():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[3.0], [4.0]]))
    b = Tensor(np.array([[0.5]]))
    out = linear(Tape(), x, w, b)
    assert out.data[0, 0] == pytest.approx(11.5)


def test_tanh_gradients():
    def build(rng):
        store = ParamStore({})
        x_arr = rng.normal(size=(3, 4))
        x = Tensor(x_arr)

        def f(tape):
            _opt_in(x)
            return tanh(tape, x)

        return f, store, [(x_arr, x)]

    _check_op(build)


def test_add_broadcast_gradients():
    def build(rng):
        store = ParamStore({})
        a_arr = rng.normal(size=(4, 3))
        b_arr = rng.normal(size=(1, 3))
        a, b = Tensor(a_arr), Tensor(b_arr)

        def f(tape):
            _opt_in(a, b)
            return add(tape, a, b)

        return f, store, [(a_arr, a), (b_arr, b)]

    _check_op(build)


def test_concat_select_gradients():
    def build(rng):
        store = ParamStore({})
        a_arr = rng.normal(size=(3, 2))
        b_arr = rng.normal(size=(3, 4))
        a, b = Tensor(a_arr), Tensor(b_arr)

        def f(tape):
            _opt_in(a, b)
            return tanh(tape, concat_cols(tape, [a, b]))

        return f, store, [(a_arr, a), (b_arr, b)]

    _check_op(build)


def test_attention_gradients():
    def build(rng):
        store = ParamStore({})
        q_arr = rng.normal(size=(3, 4))
        k_arr = rng.normal(size=(5, 4))
        v_arr = rng.normal(size=(5, 2))
        q, k, v = Tensor(q_arr), Tensor(k_arr), Tensor(v_arr)

        def f(tape):
            _opt_in(q, k, v)
            return attention(tape, q, k, v)

        return f, store, [(q_arr, q), (k_arr, k), (v_arr, v)]

    _check_op(build)


def test_attention_identical_keys_average_values():
    # all keys equal -> uniform weights -> every output row is the value mean
    rng = np.random.default_rng(1)
    q = Tensor(rng.normal(size=(4, 3)))
    k = Tensor(np.tile(rng.normal(size=(1, 3)), (6, 1)))
    v = Tensor(rng.normal(size=(6, 2)))
    out = attention(Tape(recording=False), q, k, v)
    assert np.allclose(out.data, np.tile(v.data.mean(axis=0), (4, 1)))


def test_attention_weights_rows_sum_to_one():
    rng = np.random.default_rng(2)
    q = Tensor(rng.normal(size=(3, 5)))
    k = Tensor(rng.normal(size=(7, 5)))
    w = attention_weights(q, k)
    assert w.shape == (3, 7)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert np.all(w > 0)


def test_attention_softmax_shift_stable():
    # adding a large constant to all scores must not overflow or change weights
    q = Tensor(np.full((2, 1), 1e4))
    k = Tensor(np.array([[1e4], [1e4 + 1.0]]))
    w = attention_weights(q, k)
    assert np.all(np.isfinite(w))
    assert np.allclose(w.sum(axis=1), 1.0)


def test_scalar_attention_matches_generic_per_window():
    rng = np.random.default_rng(3)
    q_arr = rng.normal(size=(3, 5))
    kv_arr = rng.normal(size=(3, 7))
    batched = scalar_attention(q_arr, kv_arr)
    for b in range(3):
        qb = Tensor(q_arr[b].reshape(-1, 1))
        kb = Tensor(kv_arr[b].reshape(-1, 1))
        ref = attention(Tape(recording=False), qb, kb, kb)
        assert np.allclose(batched[b], ref.data.ravel(), atol=1e-12)


def test_pair_attention_zero_query_blends_evenly():
    rng = np.random.default_rng(4)
    c0 = Tensor(rng.normal(size=(3, 2)))
    c1 = Tensor(rng.normal(size=(3, 2)))
    q = Tensor(np.zeros((3, 2)))
    out, w = pair_attention(Tape(recording=False), q, c0, c1)
    assert np.allclose(w, 0.5)
    assert np.allclose(out.data, 0.5 * (c0.data + c1.data))


def test_pair_attention_weights_detached_and_normalized():
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(4, 3)))
    c0 = Tensor(rng.normal(size=(4, 3)))
    c1 = Tensor(rng.normal(size=(4, 3)))
    out, w = pair_attention(Tape(recording=False), q, c0, c1)
    assert isinstance(w, np.ndarray)
    assert w.shape == (4, 2)
    assert np.allclose(w.sum(axis=1), 1.0)


def test_pair_attention_swap_symmetry():
    rng = np.random.default_rng(6)
    q = Tensor(rng.normal(size=(3, 2)))
    c0 = Tensor(rng.normal(size=(3, 2)))
    c1 = Tensor(rng.normal(size=(3, 2)))
    out_a, w_a = pair_attention(Tape(recording=False), q, c0, c1)
    out_b, w_b = pair_attention(Tape(recording=False), q, c1, c0)
    assert np.allclose(out_a.data, out_b.data)
    assert np.allclose(w_a, w_b[:, ::-1])


def test_pair_attention_gradients():
    def build(rng):
        store = ParamStore({})
        q_arr = rng.normal(size=(3, 4))
        c0_arr = rng.normal(size=(3, 4))
        c1_arr = rng.normal(size=(3, 4))
        q, c0, c1 = Tensor(q_arr), Tensor(c0_arr), Tensor(c1_arr)

        def f(tape):
            _opt_in(q, c0, c1)
            return pair_attention(tape, q, c0, c1)[0]

        return f, store, [(q_arr, q), (c0_arr, c0), (c1_arr, c1)]

    _check_op(build)


# --- recurrent cell -------------------------------------------------------------

def test_cell_zero_params_give_zero_state():
    hidden = 3
    store = _zeros(wx=(2, 4 * hidden), wh=(hidden, 4 * hidden), b=(1, 4 * hidden))
    wx, wh, b = store["wx"], store["wh"], store["b"]
    x = Tensor(np.ones((4, 2)))
    h = Tensor(np.zeros((4, hidden)))
    c = Tensor(np.zeros((4, hidden)))
    h2, c2 = recurrent_cell_step(Tape(recording=False), x, h, c, wx, wh, b)
    assert np.all(h2.data == 0.0)
    assert np.all(c2.data == 0.0)


def test_gates_match_exp_logistic_and_tanh():
    # one quarter per gate, each holding the same z; from -1000 to 1000 the
    # tanh identity must neither overflow nor leave the exp/where formula
    zs = np.concatenate([np.linspace(-1000.0, 1000.0, 200_001),
                         np.geomspace(1e-300, 50.0, 2_000), -np.geomspace(1e-300, 50.0, 2_000)])
    hidden = zs.size
    z = np.tile(zs, 4)[None, :]
    with np.errstate(all="raise"):
        s = gates(z)
    assert s.shape == z.shape
    ref = logistic(zs)
    for quarter in (0, 1, 3):  # input, forget, output
        np.testing.assert_allclose(s[0, quarter * hidden: (quarter + 1) * hidden], ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s[0, 2 * hidden: 3 * hidden], np.tanh(zs), rtol=0, atol=1e-15)
    assert np.all((s >= -1.0) & (s <= 1.0))
    assert np.all(s[0, :2 * hidden] >= 0.0) and np.all(s[0, 3 * hidden:] >= 0.0)
    # several rows and hidden sizes: the constant rows are built per size
    rng = np.random.default_rng(0)
    for hidden in (1, 3, 1, 80):
        z = rng.normal(scale=6.0, size=(5, 4 * hidden))
        s = gates(z)
        for quarter in (0, 1, 3):
            cols = slice(quarter * hidden, (quarter + 1) * hidden)
            np.testing.assert_allclose(s[:, cols], logistic(z[:, cols]), rtol=0, atol=1e-15)
        cols = slice(2 * hidden, 3 * hidden)
        np.testing.assert_allclose(s[:, cols], np.tanh(z[:, cols]), rtol=0, atol=1e-15)


def test_cell_scalar_hand_example():
    # hidden 1, input 1: every gate computable with a calculator
    store = _zeros(wx=(1, 4), wh=(1, 4), b=(1, 4))
    wx, wh, b = store["wx"], store["wh"], store["b"]
    wx.data[:] = [[0.5, -0.25, 1.0, 0.75]]
    wh.data[:] = [[0.1, 0.2, -0.3, 0.4]]
    b.data[:] = [[0.05, -0.05, 0.0, 0.1]]
    x_val, h_val, c_val = 0.8, 0.3, -0.2
    h2, c2 = recurrent_cell_step(
        Tape(recording=False),
        Tensor([[x_val]]), Tensor([[h_val]]), Tensor([[c_val]]), wx, wh, b)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    zi = 0.5 * x_val + 0.1 * h_val + 0.05
    zf = -0.25 * x_val + 0.2 * h_val - 0.05
    zg = 1.0 * x_val - 0.3 * h_val + 0.0
    zo = 0.75 * x_val + 0.4 * h_val + 0.1
    c_expect = sig(zf) * c_val + sig(zi) * math.tanh(zg)
    h_expect = sig(zo) * math.tanh(c_expect)
    assert c2.data[0, 0] == pytest.approx(c_expect, abs=1e-15)
    assert h2.data[0, 0] == pytest.approx(h_expect, abs=1e-15)


def test_cell_unrolled_gradients():
    # five chained steps: checks state-to-state backward paths
    hidden, d_in, steps, batch = 3, 2, 5, 2

    def build(rng):
        store, [(wx, wh, b)] = _stack_store(1, d_in, hidden, rng)
        xs_arr = rng.normal(size=(steps, batch, d_in))

        def f(tape):
            h = Tensor(np.zeros((batch, hidden)))
            c = Tensor(np.zeros((batch, hidden)))
            outs = []
            for t in range(steps):
                h, c = recurrent_cell_step(tape, Tensor(xs_arr[t]), h, c, wx, wh, b)
                outs.append(h)
            return concat_cols(tape, outs)

        return f, store, []

    _check_op(build, n_seeds=3)


def test_cell_shape_validation():
    store = _zeros(wx=(2, 8), wh=(2, 8), b=(1, 8))
    wx, wh, b = store["wx"], store["wh"], store["b"]
    x = Tensor(np.zeros((1, 3)))  # wrong input width
    h = Tensor(np.zeros((1, 2)))
    c = Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeMismatch):
        recurrent_cell_step(Tape(), x, h, c, wx, wh, b)


# --- recurrent sequence and stack ---------------------------------------------------

# The stack sums each step's gates in one product where the per-layer oracle
# and the per-tick cells take three, so the two agree to a few ulps of the
# hidden states, which lie in (-1, 1), and of the largest gradient entry.
STACK_TOL = 64 * np.finfo(np.float64).eps


def _stack_store(layers, d_in, hidden, rng):
    """A store of `layers` cells drawn from `rng`, bottom first, and each
    layer's (wx, wh, b) slots."""
    store = ParamStore({f"l{layer}.{name}": rng.normal(size=(rows, 4 * hidden)) * spread
                        for layer in range(layers)
                        for name, rows, spread in (("wx", d_in if layer == 0 else hidden, 0.5),
                                                   ("wh", hidden, 0.5), ("b", 1, 0.1))})
    return store, [tuple(store[f"l{layer}.{name}"] for name in ("wx", "wh", "b")) for layer in range(layers)]


def _per_layer(tape, xs, cells):
    """The top layer's final state from one oracle `recurrent_sequence` per
    layer."""
    steps, _, d_in = xs.shape
    seq = Tensor(xs.reshape(-1, d_in))
    for layer, cell in enumerate(cells):
        seq, h_last = recurrent_sequence(tape, seq, steps, *cell, keep_seq=layer < len(cells) - 1)
    return h_last


@pytest.mark.parametrize("rows", [1, 3, 64])
def test_sequence_matches_cell_steps(rows):
    # the per-layer oracle: the whole hidden sequence, bit for bit, with and
    # without a tape and with the top layer's rolling rows
    steps, d_in, hidden = 6, 3, 4
    rng = np.random.default_rng(rows)
    _, [(wx, wh, b)] = _stack_store(1, d_in, hidden, rng)
    xs = rng.normal(size=(steps, rows, d_in))
    ref = cell_per_tick(Tape(recording=False), [Tensor(x) for x in xs], wx, wh, b)
    for recording in (False, True):
        tape = Tape(recording)
        seq, h_last = recurrent_sequence(tape, Tensor(xs.reshape(-1, d_in)), steps, wx, wh, b)
        assert np.array_equal(seq.data, np.concatenate([h.data for h in ref]))
        assert np.array_equal(h_last.data, ref[-1].data)
        none, h_top = recurrent_sequence(tape, Tensor(xs.reshape(-1, d_in)), steps, wx, wh, b,
                                         keep_seq=False)
        assert none is None
        assert np.array_equal(h_top.data, ref[-1].data)
        assert len(tape) == (2 if recording else 0)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("steps, layers", [(6, 1), (6, 2), (6, 3), (1, 3), (2, 3)])
def test_stack_matches_per_layer_oracle(rows, steps, layers):
    # the final state and every slot's gradient, with and without a tape,
    # including sequences shorter than the stack
    d_in, hidden = 2, 4
    rng = np.random.default_rng(100 * layers + 10 * steps + rows)
    store, cells = _stack_store(layers, d_in, hidden, rng)
    xs = rng.normal(size=(steps, rows, d_in))
    seed = rng.normal(size=(rows, hidden))
    got = {}
    for name, op in (("stack", recurrent_stack), ("oracle", _per_layer)):
        store.zero_grad()
        tape = Tape()
        h_last = op(tape, xs, cells)
        h_last.grad += seed
        tape.backward()
        assert np.array_equal(op(Tape(recording=False), xs, cells).data, h_last.data)
        got[name] = h_last.data.copy(), store.grad_flat(), len(tape)
    np.testing.assert_allclose(got["stack"][0], got["oracle"][0], rtol=0, atol=STACK_TOL)
    grad_scale = max(1.0, np.abs(got["oracle"][1]).max())
    np.testing.assert_allclose(got["stack"][1], got["oracle"][1], rtol=0, atol=STACK_TOL * grad_scale)
    assert got["stack"][2] == 1


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("layers", [1, 3])
def test_encode_matches_per_tick_oracle(rows, layers):
    cfg = WindowConfig(i=7, m=12, j=2, hidden=5, layers=layers, ds_step=4, ds_window=12)
    store = build_params(cfg, Ablation.FULL, seed_or_rng=rows + layers)
    x_long = np.random.default_rng(rows).uniform(size=(rows, cfg.m))
    x_short = np.ascontiguousarray(x_long[:, cfg.m - cfg.i:])
    for recording in (False, True):
        tape = Tape(recording)
        got, got_summary = encode(tape, store, cfg, Tensor(x_short), Tensor(x_long))
        ref, ref_summary = encode_per_tick(Tape(recording=False), store, cfg, Tensor(x_short),
                                           Tensor(x_long))
        np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=STACK_TOL)
        assert np.array_equal(got_summary, ref_summary)
        assert len(tape) == (1 if recording else 0)


@pytest.mark.parametrize("steps, layers", [(4, 2), (3, 3), (1, 3)])
def test_stack_gradients(steps, layers):
    # every slot of every layer, biases and the upper layers' wx included,
    # against central differences.  Those round to about eps * |f| / h,
    # 1e-11 here, so a 1e-6 relative check resolves entries above 1e-5 only;
    # the few smaller ones in the lower layers of a deep stack are left to
    # the oracle comparison above.
    batch, d_in, hidden = 2, 2, 3

    def build(rng):
        store, cells = _stack_store(layers, d_in, hidden, rng)
        xs = rng.normal(size=(steps, batch, d_in))
        return (lambda tape: recurrent_stack(tape, xs, cells)), store, []

    _check_op(build, n_seeds=3, floor=1e-5)


@pytest.mark.parametrize("keep_top", [True, False])
def test_sequence_gradients(keep_top):
    # the per-layer oracle, two stacked layers: the upper one's backward
    # sends the lower one its sequence gradient; the objective reads the top
    # sequence or only its final state
    steps, batch, d_in, hidden = 4, 2, 2, 3

    def build(rng):
        store, (lower, upper) = _stack_store(2, d_in, hidden, rng)
        xs_arr = rng.normal(size=(steps * batch, d_in))
        xs = Tensor(xs_arr)

        def f(tape):
            _opt_in(xs)
            seq, _ = recurrent_sequence(tape, xs, steps, *lower)
            top, h_last = recurrent_sequence(tape, seq, steps, *upper, keep_seq=keep_top)
            return tanh(tape, top) if keep_top else h_last

        return f, store, [(xs_arr, xs)]

    _check_op(build, n_seeds=3)


def test_sequence_shape_validation():
    store = _zeros(wx=(2, 8), wh=(2, 8), b=(1, 8), b2=(2, 8))
    wx, wh, b = store["wx"], store["wh"], store["b"]
    recurrent_sequence(Tape(), Tensor(np.zeros((6, 2))), 3, wx, wh, b)
    for xs, steps in ((np.zeros((6, 3)), 3),   # wrong input width
                      (np.zeros((7, 2)), 3),   # rows do not split into ticks
                      (np.zeros((6, 2)), 0)):
        with pytest.raises(ShapeMismatch):
            recurrent_sequence(Tape(), Tensor(xs), steps, wx, wh, b)
    with pytest.raises(ShapeMismatch):
        recurrent_sequence(Tape(), Tensor(np.zeros((6, 2))), 3, wx, wh, store["b2"])


def test_stack_shape_validation():
    store = _zeros(**{"l0.wx": (3, 8), "l0.wh": (2, 8), "l0.b": (1, 8), "l1.wx": (2, 8), "l1.wh": (2, 8),
                      "l1.b": (1, 8), "w.wx": (2, 12), "w.wh": (3, 12), "w.b": (1, 12), "b2": (2, 8)})
    l0, l1, wide = (tuple(store[f"{prefix}.{name}"] for name in ("wx", "wh", "b"))
                    for prefix in ("l0", "l1", "w"))
    cells = [l0, l1]
    assert recurrent_stack(Tape(), np.zeros((5, 4, 3)), cells).data.shape == (4, 2)
    for xs, bad in ((np.zeros((20, 3)), cells),                  # not (steps, batch, d_in)
                    (np.zeros((0, 4, 3)), cells),                # no tick
                    (np.zeros((5, 4, 3)), []),                   # no layer
                    (np.zeros((5, 4, 2)), cells),                # wrong input width
                    (np.zeros((5, 4, 3)), [cells[0], cells[0]]),  # upper wx not (hidden, 4 * hidden)
                    (np.zeros((5, 4, 3)), [cells[0], wide]),      # layers of different widths
                    (np.zeros((5, 4, 3)), [cells[0], (cells[1][0], cells[1][1], store["b2"])])):
        with pytest.raises(ShapeMismatch):
            recurrent_stack(Tape(), xs, bad)


# --- autoencoder ------------------------------------------------------------------

def test_autoencoder_zero_params_output_bias():
    store = _zeros(**autoencoder_shapes("ae", 3))
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    out = autoencoder(Tape(recording=False), x, store, "ae")
    assert np.all(out.data == 0.0)


def test_autoencoder_hand_example():
    store = _zeros(**autoencoder_shapes("ae", 2))
    store["ae.enc.w"].data[:] = [[0.5], [-0.5]]
    store["ae.enc.b"].data[:] = [[0.1]]
    store["ae.dec.w"].data[:] = [[2.0, -1.0]]
    store["ae.dec.b"].data[:] = [[0.0, 0.25]]
    x = Tensor([[0.6, 0.2]])
    out = autoencoder(Tape(recording=False), x, store, "ae")
    z = math.tanh(0.5 * 0.6 - 0.5 * 0.2 + 0.1)
    assert out.data[0, 0] == pytest.approx(2.0 * z, abs=1e-15)
    assert out.data[0, 1] == pytest.approx(-1.0 * z + 0.25, abs=1e-15)


def test_autoencoder_gradients():
    def build(rng):
        store = init_params(autoencoder_shapes("ae", 4), Prng(int(rng.integers(1000))))
        x_arr = rng.normal(size=(3, 4))
        x = Tensor(x_arr)

        def f(tape):
            _opt_in(x)
            return autoencoder(tape, x, store, "ae")

        return f, store, [(x_arr, x)]

    _check_op(build)
