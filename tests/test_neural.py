import math

import numpy as np
import pytest

from helpers import attention, attention_weights, fd_array_grad, fd_param_grad, logistic, max_rel_err
from periocast.errors import ShapeMismatch, TapeConsumed, WindowTooLarge
from periocast.neural import (
    ParamStore,
    Tape,
    Tensor,
    add,
    add_autoencoder_slots,
    autoencoder,
    concat_cols,
    downsample_indices,
    gates,
    linear,
    pair_attention,
    recurrent_cell_step,
    scalar_attention,
    select_cols,
    tanh,
)
from periocast.rng import Prng

FD_TOL = 1e-6


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


def test_non_recording_matches_recording_values():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 2))
    a = linear(Tape(), Tensor(x.copy()), Tensor(w.copy()))
    b = linear(Tape(recording=False), Tensor(x.copy()), Tensor(w.copy()))
    assert np.array_equal(a.data, b.data)


# --- parameter store -----------------------------------------------------------

def test_store_flat_round_trip():
    store = ParamStore()
    rng = Prng(0)
    store.add("a", 3, 4, rng)
    store.add("b", 2, 2, rng)
    store.add("c", 1, 5, None)
    flat = store.get_flat()
    assert flat.size == store.n_params == 3 * 4 + 2 * 2 + 5
    store.set_flat(flat * 2.0)
    assert np.allclose(store.get_flat(), flat * 2.0)


def test_store_flat_index_maps_to_single_slot_element():
    store = ParamStore()
    rng = Prng(1)
    store.add("a", 2, 3, rng)
    store.add("b", 3, 1, rng)
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
    store = ParamStore()
    store.add("w", 16, 8, Prng(3))
    store.add("b", 1, 8, None)
    bound = 1.0 / math.sqrt(16)
    assert np.all(np.abs(store["w"].data) < bound)
    assert np.all(store["b"].data == 0.0)


def test_store_rejects_duplicate_names():
    store = ParamStore()
    store.add("w", 1, 1, None)
    with pytest.raises(ValueError):
        store.add("w", 1, 1, None)


def test_store_copy_is_independent():
    store = ParamStore()
    store.add("w", 2, 2, Prng(0))
    store.add("b", 1, 3, Prng(1))
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
    dup.add("c", 2, 1, Prng(2))  # growing the copy keeps its earlier slots
    assert dup["w"].data[0, 0] == dup.values[0]


def test_store_grad_flat_zeros_for_untouched():
    store = ParamStore()
    store.add("w", 2, 2, Prng(0))
    assert np.array_equal(store.grad_flat(), np.zeros(4))


def test_store_slots_are_views_into_one_buffer():
    store = ParamStore()
    store.add("w", 3, 4, Prng(0))
    for k in range(6):  # enough later adds to re-pack the buffer
        store.add(f"s{k}", 5, 7, Prng(k + 1))
    store.add("b", 1, 9)
    assert not store["b"].data.any() and not store.grads.any()
    assert np.shares_memory(store["w"].data, store.values)
    assert np.shares_memory(store["w"].grad, store.grads)
    assert np.array_equal(store["s5"].data.ravel(), store.values[-44:-9])
    store.set_flat(np.arange(store.n_params, dtype=np.float64))
    assert np.shares_memory(store["w"].data, store.values)
    assert np.array_equal(store["w"].data, np.arange(12.0).reshape(3, 4))


def test_store_data_sees_later_set_flat():
    store = ParamStore()
    store.add("a", 2, 3, Prng(0))
    store.add("w", 2, 2, Prng(1))
    w = store["w"].data
    store.set_flat(np.full(store.n_params, 0.5))
    assert np.array_equal(w, np.full((2, 2), 0.5))


def test_store_flat_reads_are_copies():
    store = ParamStore()
    w = store.add("w", 2, 2, Prng(0))
    base = store.get_flat()
    grads = store.grad_flat()
    store.set_flat(base + 1.0)
    w.grad += 1.0
    assert np.array_equal(store.get_flat(), base + 1.0)
    assert np.array_equal(grads, np.zeros(4))
    store.zero_grad()
    assert np.array_equal(store.grad_flat(), np.zeros(4))


# --- finite-difference harness for each primitive ----------------------------------

def _check_op(build, n_seeds=5):
    """build(rng) -> (f_scalar, store, extra_inputs); checks d f / d params and
    d f / d inputs against central differences."""
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
            assert max_rel_err(analytic_params, numeric) < FD_TOL
        for (arr, _), got in zip(inputs, analytic_inputs):
            numeric_in = fd_array_grad(
                lambda _a: float(f(Tape(recording=False)).data.sum()), arr)
            assert max_rel_err(got, numeric_in) < FD_TOL


def test_linear_gradients():
    def build(rng):
        store = ParamStore()
        w = store.add("w", 4, 3, None)
        b = store.add("b", 1, 3, None)
        w.data[:] = rng.normal(size=(4, 3))
        b.data[:] = rng.normal(size=(1, 3))
        x_arr = rng.normal(size=(5, 4))
        x = Tensor(x_arr)

        def f(tape):
            x.grad = None
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
        store = ParamStore()
        x_arr = rng.normal(size=(3, 4))
        x = Tensor(x_arr)

        def f(tape):
            x.grad = None
            return tanh(tape, x)

        return f, store, [(x_arr, x)]

    _check_op(build)


def test_add_broadcast_gradients():
    def build(rng):
        store = ParamStore()
        a_arr = rng.normal(size=(4, 3))
        b_arr = rng.normal(size=(1, 3))
        a, b = Tensor(a_arr), Tensor(b_arr)

        def f(tape):
            a.grad = None
            b.grad = None
            return add(tape, a, b)

        return f, store, [(a_arr, a), (b_arr, b)]

    _check_op(build)


def test_concat_select_gradients():
    def build(rng):
        store = ParamStore()
        a_arr = rng.normal(size=(3, 2))
        b_arr = rng.normal(size=(3, 4))
        a, b = Tensor(a_arr), Tensor(b_arr)
        idx = [0, 2, 2, 5]  # repeated column exercises scatter accumulation

        def f(tape):
            a.grad = None
            b.grad = None
            cat = concat_cols(tape, [a, b])
            sel = select_cols(tape, cat, idx)
            return tanh(tape, sel)

        return f, store, [(a_arr, a), (b_arr, b)]

    _check_op(build)


def test_downsample_rows_and_gradient():
    idx = downsample_indices(10, 3, 7)
    assert idx.tolist() == [3, 6, 9]


def test_downsample_count_is_ceil():
    assert len(downsample_indices(20, 4, 10)) == math.ceil(10 / 4)
    assert len(downsample_indices(20, 5, 20)) == 4


def test_downsample_window_too_large():
    with pytest.raises(WindowTooLarge):
        downsample_indices(5, 1, 6)


def test_attention_gradients():
    def build(rng):
        store = ParamStore()
        q_arr = rng.normal(size=(3, 4))
        k_arr = rng.normal(size=(5, 4))
        v_arr = rng.normal(size=(5, 2))
        q, k, v = Tensor(q_arr), Tensor(k_arr), Tensor(v_arr)

        def f(tape):
            q.grad = k.grad = v.grad = None
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
    batched = scalar_attention(Tape(recording=False), Tensor(q_arr), Tensor(kv_arr))
    for b in range(3):
        qb = Tensor(q_arr[b].reshape(-1, 1))
        kb = Tensor(kv_arr[b].reshape(-1, 1))
        ref = attention(Tape(recording=False), qb, kb, kb)
        assert np.allclose(batched.data[b], ref.data.ravel(), atol=1e-12)


def test_scalar_attention_gradients():
    def build(rng):
        store = ParamStore()
        q_arr = rng.normal(size=(2, 4))
        kv_arr = rng.normal(size=(2, 6))
        q, kv = Tensor(q_arr), Tensor(kv_arr)

        def f(tape):
            q.grad = kv.grad = None
            return scalar_attention(tape, q, kv)

        return f, store, [(q_arr, q), (kv_arr, kv)]

    _check_op(build)


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
        store = ParamStore()
        q_arr = rng.normal(size=(3, 4))
        c0_arr = rng.normal(size=(3, 4))
        c1_arr = rng.normal(size=(3, 4))
        q, c0, c1 = Tensor(q_arr), Tensor(c0_arr), Tensor(c1_arr)

        def f(tape):
            q.grad = c0.grad = c1.grad = None
            return pair_attention(tape, q, c0, c1)[0]

        return f, store, [(q_arr, q), (c0_arr, c0), (c1_arr, c1)]

    _check_op(build)


# --- recurrent cell -------------------------------------------------------------

def test_cell_zero_params_give_zero_state():
    hidden = 3
    store = ParamStore()
    wx = store.add("wx", 2, 4 * hidden, None)
    wh = store.add("wh", hidden, 4 * hidden, None)
    b = store.add("b", 1, 4 * hidden, None)
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
    store = ParamStore()
    wx = store.add("wx", 1, 4, None)
    wh = store.add("wh", 1, 4, None)
    b = store.add("b", 1, 4, None)
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
        store = ParamStore()
        wx = store.add("wx", d_in, 4 * hidden, None)
        wh = store.add("wh", hidden, 4 * hidden, None)
        b = store.add("b", 1, 4 * hidden, None)
        wx.data[:] = rng.normal(size=wx.data.shape) * 0.5
        wh.data[:] = rng.normal(size=wh.data.shape) * 0.5
        b.data[:] = rng.normal(size=b.data.shape) * 0.1
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
    store = ParamStore()
    wx = store.add("wx", 2, 8, None)
    wh = store.add("wh", 2, 8, None)
    b = store.add("b", 1, 8, None)
    x = Tensor(np.zeros((1, 3)))  # wrong input width
    h = Tensor(np.zeros((1, 2)))
    c = Tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeMismatch):
        recurrent_cell_step(Tape(), x, h, c, wx, wh, b)


# --- autoencoder ------------------------------------------------------------------

def test_autoencoder_zero_params_output_bias():
    store = ParamStore()
    add_autoencoder_slots(store, "ae", 3, None)
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    out = autoencoder(Tape(recording=False), x, store, "ae")
    assert np.all(out.data == 0.0)


def test_autoencoder_hand_example():
    store = ParamStore()
    add_autoencoder_slots(store, "ae", 2, None)
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
        store = ParamStore()
        add_autoencoder_slots(store, "ae", 4, Prng(int(rng.integers(1000))))
        x_arr = rng.normal(size=(3, 4))
        x = Tensor(x_arr)

        def f(tape):
            x.grad = None
            return autoencoder(tape, x, store, "ae")

        return f, store, [(x_arr, x)]

    _check_op(build)
