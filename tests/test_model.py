import hashlib
import math

import numpy as np
import pytest

from helpers import attention, fd_param_grad, max_rel_err, random_window, tiny_config
from periocast.errors import SeriesTooShort
from periocast.loss import LossConfig, batch_loss
from periocast.model import (
    Ablation,
    SampleWindow,
    WindowConfig,
    WindowSet,
    build_params,
    decode,
    encode,
    forward,
    forward_batch,
    fuse,
    make_windows,
    merge_splits,
    param_shapes,
)
from periocast.neural import Tape, Tensor
from periocast.periodicity import (
    SENTINEL,
    PeriodicityConfig,
    build_knowledge,
    detect_period,
    match,
)
from periocast.stats import heavy_mask
from periocast.traceio import SyntheticSpec, WorkloadSeries, generate


PCFG = PeriodicityConfig()


def _series(values, machine="m"):
    return WorkloadSeries(machine, np.asarray(values, dtype=np.float64),
                          scale=1.0, tick=1.0)


# --- window construction --------------------------------------------------------

def test_exact_fit_yields_one_window():
    cfg = tiny_config()  # i=6, m=12, j=2
    s = _series(np.linspace(0.1, 0.9, cfg.m + cfg.j))
    split = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0))
    assert len(split.train) == 1
    assert len(split.val) == len(split.test) == 0
    w = split.train[0]
    assert np.array_equal(w.x_long, s.values[: cfg.m])
    assert np.array_equal(w.x_short, s.values[cfg.m - cfg.i: cfg.m])
    assert np.array_equal(w.target, s.values[cfg.m:])


def test_four_extra_ticks_yield_five_windows():
    cfg = tiny_config()
    s = _series(np.linspace(0.1, 0.9, cfg.m + cfg.j + 4))
    split = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0))
    assert len(split.train) == 5
    starts = [w.start for w in split.train]
    assert starts == [0, 1, 2, 3, 4]


def test_too_short_series_raises():
    cfg = tiny_config()
    s = _series(np.linspace(0.1, 0.9, cfg.m + cfg.j - 1))
    with pytest.raises(SeriesTooShort):
        make_windows(s, None, cfg, PCFG)


def test_short_window_is_suffix_of_long():
    cfg = tiny_config()
    s = _series(np.random.default_rng(0).uniform(size=40))
    split = make_windows(s, None, cfg, PCFG)
    for w in [*split.train, *split.val, *split.test]:
        assert np.array_equal(w.x_short, w.x_long[-cfg.i:])
        assert np.array_equal(w.x_long, s.values[w.start: w.start + cfg.m])
        assert np.array_equal(w.target, s.values[w.start + cfg.m: w.start + cfg.m + cfg.j])


def test_chronological_split_order():
    cfg = tiny_config()
    s = _series(np.random.default_rng(1).uniform(size=80))
    split = make_windows(s, None, cfg, PCFG, split=(0.7, 0.1, 0.2))
    assert max(w.start for w in split.train) < min(w.start for w in split.val)
    assert max(w.start for w in split.val) < min(w.start for w in split.test)
    n = len(split.train) + len(split.val) + len(split.test)
    assert n == 80 - cfg.m - cfg.j + 1


def test_split_fractions_validated():
    cfg = tiny_config()
    s = _series(np.random.default_rng(2).uniform(size=40))
    with pytest.raises(ValueError):
        make_windows(s, None, cfg, PCFG, split=(0.5, 0.5, 0.5))


def test_heavy_flags_come_from_full_series():
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 0.5, 60)
    vals[50] = 1.0  # lone spike inside some targets
    s = _series(vals)
    hv = heavy_mask(s).mask
    split = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0))
    for w in split.train:
        assert np.array_equal(w.heavy, hv[w.start + cfg.m: w.start + cfg.m + cfg.j])


def test_periodic_windows_carry_matched_continuation():
    cfg = tiny_config()
    s = generate(SyntheticSpec(length=120, period=12, amplitude=0.3,
                               noise_std=0.02, seed=5))
    report = detect_period(s, PCFG)
    assert report.period == 12
    know = build_knowledge(s, report)
    split = make_windows(s, know, cfg, PCFG, split=(1.0, 0.0, 0.0))
    for w in split.train[:10]:
        ref = match(know, w.x_short, cfg.j, PCFG)
        assert np.array_equal(w.y_period, ref.y_period)
        assert not np.any(w.y_period == SENTINEL)


def test_aperiodic_windows_carry_sentinel():
    cfg = tiny_config()
    s = _series(np.random.default_rng(6).uniform(size=50))
    split = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0))
    for w in split.train:
        assert np.all(w.y_period == SENTINEL)


def test_merge_splits_preserves_order():
    cfg = tiny_config()
    a = make_windows(_series(np.random.default_rng(7).uniform(size=40), "a"),
                     None, cfg, PCFG)
    b = make_windows(_series(np.random.default_rng(8).uniform(size=40), "b"),
                     None, cfg, PCFG)
    merged = merge_splits([a, b])
    assert [w.machine_id for w in merged.train] == (
        ["a"] * len(a.train) + ["b"] * len(b.train))
    for part, part_a, part_b in zip(merged, a, b):
        assert part.machine_id.tolist() == ["a"] * len(part_a) + ["b"] * len(part_b)
        assert np.array_equal(part.x_long, np.concatenate([part_a.x_long, part_b.x_long]))
        assert np.array_equal(part.start, np.concatenate([part_a.start, part_b.start]))


def test_make_windows_returns_views_of_the_series():
    cfg = tiny_config()
    s = _series(np.random.default_rng(9).uniform(size=40))
    for part in make_windows(s, None, cfg, PCFG):
        assert isinstance(part, WindowSet)
        for field in (part.x_long, part.x_short, part.target):
            assert np.shares_memory(field, s.values)


def test_window_set_indexing():
    cfg = tiny_config()
    s = _series(np.random.default_rng(10).uniform(size=40), "m7")
    ws = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0)).train
    w = ws[3]
    assert isinstance(w, SampleWindow)
    assert type(w.machine_id) is str and w.machine_id == "m7"
    assert type(w.start) is int and w.start == 3
    assert np.array_equal(w.x_long, s.values[3: 3 + cfg.m])
    assert isinstance(ws[np.int64(3)], SampleWindow)
    for key in (slice(2, 5), np.array([4, 0, 2]), [4, 0, 2]):
        sub = ws[key]
        assert isinstance(sub, WindowSet)
        assert sub.start.tolist() == np.arange(len(ws))[key].tolist()
        assert sub.x_short.shape == (len(sub), cfg.i)
    assert [w.start for w in ws] == list(range(len(ws)))


def test_window_set_from_list_round_trips():
    cfg = tiny_config()
    s = _series(np.random.default_rng(11).uniform(size=40))
    ws = make_windows(s, None, cfg, PCFG, split=(1.0, 0.0, 0.0)).train
    back = WindowSet.of(list(ws))
    assert WindowSet.of(ws) is ws
    assert len(back) == len(ws)
    for name in ("machine_id", "start", "x_long", "x_short", "y_period", "target", "heavy"):
        assert np.array_equal(getattr(back, name), getattr(ws, name)), name
        assert getattr(back, name).dtype == getattr(ws, name).dtype, name


# --- configuration ---------------------------------------------------------------

def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(j=1)
    with pytest.raises(ValueError):
        WindowConfig(i=10, m=5)


def test_window_config_meta_round_trip():
    for cfg in (WindowConfig(), tiny_config(hidden=7, ds_step=3)):
        assert WindowConfig.from_meta(cfg.to_meta()) == cfg
        # older checkpoints also record the feature width "d": 1
        assert WindowConfig.from_meta({**cfg.to_meta(), "d": 1}) == cfg
    with pytest.raises(TypeError):
        WindowConfig.from_meta({**cfg.to_meta(), "hidden": 7.5})
    with pytest.raises(TypeError):  # JSON true is not the integer 1
        WindowConfig.from_meta({**cfg.to_meta(), "ds_step": True})


def test_ablation_flags():
    assert Ablation.FULL.fuses and not Ablation.FULL.plain_mse
    assert not Ablation.NO_PERIOD.fuses and not Ablation.NO_PERIOD.plain_mse
    assert Ablation.MSE_LOSS.fuses and Ablation.MSE_LOSS.plain_mse
    assert not Ablation.NEITHER.fuses and Ablation.NEITHER.plain_mse


def test_param_count_small_reference():
    # hidden 8, i 10, m 20, j 4, layers 2: sizes add up by hand
    cfg = WindowConfig(i=10, m=20, j=4, hidden=8, layers=2, ds_step=5, ds_window=20)
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)
    h = 8
    enc = (1 * 4 * h + h * 4 * h + 4 * h) + (h * 4 * h + h * 4 * h + 4 * h)
    dec = 2 * (10 * h) + (1 * 4 * h + h * 4 * h + 4 * h) + (h * 1 + 1)
    fuse_n = (10 * 4 + 4) + (4 * 1 + 1 + 1 * 4 + 4)
    assert store.n_params == enc + dec + fuse_n


@pytest.mark.parametrize("ablation", list(Ablation))
def test_build_params_lays_out_param_shapes(ablation):
    cfg = WindowConfig(i=10, m=20, j=4, hidden=8, layers=3, ds_step=5, ds_window=20)
    store = build_params(cfg, ablation, seed_or_rng=2)
    shapes = param_shapes(cfg, ablation)
    assert store.names() == list(shapes)
    assert all(store[name].data.shape == shape for name, shape in shapes.items())
    assert store.n_params == sum(rows * cols for rows, cols in shapes.values())
    for name in store.names():
        assert (store[name].data == 0.0).all() == name.endswith(".b"), name


def test_init_digest_is_pinned():
    # the benchmark model (periobench/workloads.py WINDOW) at seed 0; a change
    # in draw order, bounds or slot order changes every trained number
    cfg = WindowConfig(i=24, m=48, j=2, hidden=32, layers=2, ds_step=8, ds_window=48)
    store = build_params(cfg, Ablation.FULL, 0)
    assert store.n_params == 18_650
    assert (hashlib.sha256(store.values.tobytes()).hexdigest()
            == "a115316ee8ae072ff615629b948bcf94b7d63b81208be6734592a87db3526a33")


def test_no_period_store_is_prefix_of_full():
    cfg = tiny_config()
    full = build_params(cfg, Ablation.FULL, seed_or_rng=3)
    bare = build_params(cfg, Ablation.NO_PERIOD, seed_or_rng=3)
    for name in bare.names():
        assert np.array_equal(bare[name].data, full[name].data)
    assert not any(n.startswith("fuse.") for n in bare.names())


# --- forward pass ------------------------------------------------------------------

def test_zero_params_forward():
    cfg = tiny_config()
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)
    store.set_flat(np.zeros(store.n_params))
    w = random_window(cfg, np.random.default_rng(0))
    out = forward(w, store, cfg, Ablation.FULL)
    assert np.all(out.y_hat == 0.0)
    assert np.allclose(out.fusion_weights, 0.5)
    assert np.all(out.y == 0.0)


def test_zero_params_encoder_states_zero():
    cfg = tiny_config()
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)
    store.set_flat(np.zeros(store.n_params))
    w = random_window(cfg, np.random.default_rng(1))
    enc_last, x_long_bar = encode(Tape(recording=False), store, cfg,
                                  Tensor(w.x_short.reshape(1, -1)),
                                  Tensor(w.x_long.reshape(1, -1)))
    assert enc_last.data.shape == (1, cfg.hidden)
    assert np.all(enc_last.data == 0.0)
    # the long-context summary is parameter-free and survives zeroing
    assert x_long_bar.shape == (1, math.ceil(cfg.effective_ds_window() / cfg.ds_step))


@pytest.mark.parametrize("ds_window, ds_step, ticks", [
    (7, 3, [3, 6, 9]),
    (10, 4, [0, 4, 8]),
    (30, 4, [0, 4, 8]),  # a window wider than m is cut to m
])
def test_long_context_summary_attends_over_trailing_ticks(ds_window, ds_step, ticks):
    cfg = WindowConfig(i=4, m=10, j=2, hidden=2, layers=1, ds_step=ds_step, ds_window=ds_window)
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)
    x_long = np.random.default_rng(8).uniform(size=(3, cfg.m))
    _, summary = encode(Tape(recording=False), store, cfg, Tensor(x_long[:, cfg.m - cfg.i:]),
                        Tensor(x_long))
    assert summary.shape == (3, math.ceil(cfg.effective_ds_window() / ds_step)) == (3, len(ticks))
    for b in range(3):
        col = Tensor(x_long[b, ticks].reshape(-1, 1))
        ref = attention(Tape(recording=False), col, col, col)
        np.testing.assert_allclose(summary[b], ref.data.ravel(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("cfg, nodes", [
    (tiny_config(), 14),
    (tiny_config(layers=1, j=3), 16),
    (WindowConfig(i=24, m=48, j=2, hidden=32, layers=2, ds_step=8, ds_window=48), 14),  # benchmark model
])
def test_full_forward_tape_size(cfg, nodes):
    # one node for the whole encoder, two per decoder step (cell and head)
    # and 9 for the rest: the long-context summary is computed off the tape
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)
    rng = np.random.default_rng(7)
    tape = Tape()
    forward_batch([random_window(cfg, rng) for _ in range(3)], store, cfg, Ablation.FULL, tape)
    assert len(tape) == nodes == 2 * cfg.j + 10


def test_no_period_output_equals_raw_decode_of_full():
    cfg = tiny_config()
    full = build_params(cfg, Ablation.FULL, seed_or_rng=11)
    bare = build_params(cfg, Ablation.NO_PERIOD, seed_or_rng=11)
    w = random_window(cfg, np.random.default_rng(2))
    out_full = forward(w, full, cfg, Ablation.FULL)
    out_bare = forward(w, bare, cfg, Ablation.NO_PERIOD)
    assert np.allclose(out_bare.y, out_full.y_hat, atol=1e-15)
    assert out_bare.fusion_weights is None


def test_batch_rows_match_single_window_runs():
    cfg = tiny_config()
    store = build_params(cfg, Ablation.FULL, seed_or_rng=4)
    rng = np.random.default_rng(3)
    windows = [random_window(cfg, rng, sentinel=(k % 2 == 1)) for k in range(4)]
    batched = forward_batch(windows, store, cfg, Ablation.FULL, Tape(recording=False))
    for k, w in enumerate(windows):
        solo = forward(w, store, cfg, Ablation.FULL)
        assert np.allclose(batched.y.data[k], solo.y, atol=1e-12)
        assert np.allclose(batched.y_hat[k], solo.y_hat, atol=1e-12)
        assert np.allclose(batched.fusion_weights[k], solo.fusion_weights, atol=1e-12)


def test_window_set_of_list_shapes():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    ws = WindowSet.of([random_window(cfg, rng) for _ in range(3)])
    assert ws.x_short.shape == (3, cfg.i)
    assert ws.x_long.shape == (3, cfg.m)
    assert ws.y_period.shape == (3, cfg.j)
    assert ws.target.shape == (3, cfg.j)


def test_sentinel_continuation_flows_through_fuse():
    cfg = tiny_config()
    store = build_params(cfg, Ablation.FULL, seed_or_rng=6)
    w = random_window(cfg, np.random.default_rng(6), sentinel=True)
    out = forward(w, store, cfg, Ablation.FULL)
    assert np.all(np.isfinite(out.y))
    assert out.fusion_weights.sum() == pytest.approx(1.0)


# --- scalar oracle for the full wiring ------------------------------------------------

def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def _lstm_scalar(x, h, c, wx, wh, b):
    z = [x * wx[k] + h * wh[k] + b[k] for k in range(4)]
    i, f, g, o = _sig(z[0]), _sig(z[1]), math.tanh(z[2]), _sig(z[3])
    c2 = f * c + i * g
    return o * math.tanh(c2), c2


def _softmax(scores):
    m = max(scores)
    e = [math.exp(s - m) for s in scores]
    tot = sum(e)
    return [v / tot for v in e]


def test_forward_matches_scalar_reimplementation():
    # hidden 1, 1 encoder layer, i=2, m=3: every intermediate fits on paper
    cfg = WindowConfig(i=2, m=3, j=2, hidden=1, layers=1, ds_step=1, ds_window=3)
    store = build_params(cfg, Ablation.FULL, seed_or_rng=0)

    p = {
        "enc.l0.wx": [0.4, -0.3, 0.8, 0.2],
        "enc.l0.wh": [0.1, 0.2, -0.1, 0.3],
        "enc.l0.b": [0.05, 0.0, -0.05, 0.1],
        "dec.init.wh": [0.6, -0.4],
        "dec.init.wc": [-0.2, 0.5],
        "dec.cell.wx": [0.3, 0.1, 0.7, -0.2],
        "dec.cell.wh": [-0.1, 0.4, 0.2, 0.1],
        "dec.cell.b": [0.0, 0.05, 0.1, -0.05],
        "dec.head.w": [1.2],
        "dec.head.b": [0.1],
        "fuse.query.w": [[0.5, -0.5], [0.3, 0.7]],
        "fuse.query.b": [0.05, -0.05],
        "fuse.ae.enc.w": [0.9, -0.6],
        "fuse.ae.enc.b": [0.1],
        "fuse.ae.dec.w": [0.8, 1.1],
        "fuse.ae.dec.b": [0.02, -0.02],
    }
    store["enc.l0.wx"].data[:] = [p["enc.l0.wx"]]
    store["enc.l0.wh"].data[:] = [p["enc.l0.wh"]]
    store["enc.l0.b"].data[:] = [p["enc.l0.b"]]
    store["dec.init.wh"].data[:] = np.array(p["dec.init.wh"]).reshape(2, 1)
    store["dec.init.wc"].data[:] = np.array(p["dec.init.wc"]).reshape(2, 1)
    store["dec.cell.wx"].data[:] = [p["dec.cell.wx"]]
    store["dec.cell.wh"].data[:] = [p["dec.cell.wh"]]
    store["dec.cell.b"].data[:] = [p["dec.cell.b"]]
    store["dec.head.w"].data[:] = [p["dec.head.w"]]
    store["dec.head.b"].data[:] = [p["dec.head.b"]]
    store["fuse.query.w"].data[:] = p["fuse.query.w"]
    store["fuse.query.b"].data[:] = [p["fuse.query.b"]]
    store["fuse.ae.enc.w"].data[:] = np.array(p["fuse.ae.enc.w"]).reshape(2, 1)
    store["fuse.ae.enc.b"].data[:] = [p["fuse.ae.enc.b"]]
    store["fuse.ae.dec.w"].data[:] = [p["fuse.ae.dec.w"]]
    store["fuse.ae.dec.b"].data[:] = [p["fuse.ae.dec.b"]]

    x_long = [0.2, 0.7, 0.4]
    x_short = x_long[1:]
    y_period = [0.6, 0.3]
    w = random_window(cfg, np.random.default_rng(0))
    w = type(w)(machine_id="m", start=0, x_long=np.array(x_long),
                x_short=np.array(x_short), y_period=np.array(y_period),
                target=np.array([0.5, 0.5]), heavy=np.zeros(2, dtype=bool))

    got = forward(w, store, cfg, Ablation.FULL)

    # encoder over the two recent ticks
    h = c = 0.0
    for x in x_short:
        h, c = _lstm_scalar(x, h, c, p["enc.l0.wx"], p["enc.l0.wh"], p["enc.l0.b"])
    enc_last = h

    # long-context self-attention over all three ticks (step 1, window 3)
    xlbar = []
    for qi in x_long:
        a = _softmax([qi * kj for kj in x_long])
        xlbar.append(sum(ak * kj for ak, kj in zip(a, x_long)))

    # cross-attention: recent ticks as queries over the summary
    hc = []
    for qi in x_short:
        a = _softmax([qi * kj for kj in xlbar])
        hc.append(sum(ak * kj for ak, kj in zip(a, xlbar)))

    h0 = hc[0] * p["dec.init.wh"][0] + hc[1] * p["dec.init.wh"][1] + enc_last
    c0 = hc[0] * p["dec.init.wc"][0] + hc[1] * p["dec.init.wc"][1]

    # autoregressive decode, seeded with the last recent value
    y_hat = []
    h, c, y_prev = h0, c0, x_short[-1]
    for _ in range(2):
        h, c = _lstm_scalar(y_prev, h, c, p["dec.cell.wx"], p["dec.cell.wh"], p["dec.cell.b"])
        y_prev = h * p["dec.head.w"][0] + p["dec.head.b"][0]
        y_hat.append(y_prev)

    assert np.allclose(got.y_hat, y_hat, atol=1e-14)

    # autoencoded continuation
    z = math.tanh(y_period[0] * p["fuse.ae.enc.w"][0]
                  + y_period[1] * p["fuse.ae.enc.w"][1] + p["fuse.ae.enc.b"][0])
    ae = [z * p["fuse.ae.dec.w"][0] + p["fuse.ae.dec.b"][0],
          z * p["fuse.ae.dec.w"][1] + p["fuse.ae.dec.b"][1]]

    # fusing attention between the decoded pair and the continuation
    q = [x_short[0] * p["fuse.query.w"][0][0] + x_short[1] * p["fuse.query.w"][1][0]
         + p["fuse.query.b"][0],
         x_short[0] * p["fuse.query.w"][0][1] + x_short[1] * p["fuse.query.w"][1][1]
         + p["fuse.query.b"][1]]
    scale = 1.0 / math.sqrt(2.0)
    s0 = (q[0] * y_hat[0] + q[1] * y_hat[1]) * scale
    s1 = (q[0] * ae[0] + q[1] * ae[1]) * scale
    w0, w1 = _softmax([s0, s1])
    y = [w0 * y_hat[0] + w1 * ae[0], w0 * y_hat[1] + w1 * ae[1]]

    assert np.allclose(got.fusion_weights, [w0, w1], atol=1e-14)
    assert np.allclose(got.y, y, atol=1e-14)


# --- end-to-end gradients ----------------------------------------------------------------

def _composed_loss(windows, store, cfg, ablation, lcfg, tape=None):
    bf = forward_batch(windows, store, cfg, ablation,
                       tape if tape is not None else Tape(recording=False))
    value, grad, _ = batch_loss(bf.y.data, WindowSet.of(windows).target, lcfg)
    return bf, value, grad


def test_full_model_gradients_match_fd():
    cfg = WindowConfig(i=4, m=6, j=2, hidden=3, layers=2, ds_step=2, ds_window=4)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        windows = [random_window(cfg, rng, sentinel=(seed == 2)) for _ in range(3)]
        for ablation in (Ablation.FULL, Ablation.NO_PERIOD):
            for lcfg in (LossConfig("gamma", 0.5), LossConfig("mse")):
                store = build_params(cfg, ablation, seed_or_rng=seed + 100)
                store.zero_grad()
                tape = Tape()
                bf, _, grad = _composed_loss(windows, store, cfg, ablation, lcfg, tape)
                bf.y.grad = grad
                tape.backward()
                analytic = store.grad_flat()

                def f():
                    return _composed_loss(windows, store, cfg, ablation, lcfg)[1]

                numeric = fd_param_grad(f, store)
                # floor 1e-4: elements below it are held to |a - n| <= 1e-9,
                # absorbing fd round-off while still catching O(scale) bugs
                assert max_rel_err(analytic, numeric, floor=1e-4) < 1e-5


def test_data_tensors_get_no_gradient():
    # encode, decode and fuse on a recording tape: the tensors wrapped around
    # window data have no gradient buffer, so backward leaves them without
    # one, and every parameter's gradient still matches central differences
    cfg = WindowConfig(i=4, m=6, j=2, hidden=3, layers=2, ds_step=2, ds_window=4)
    rng = np.random.default_rng(9)
    ws = WindowSet.of([random_window(cfg, rng) for _ in range(3)])
    store = build_params(cfg, Ablation.FULL, seed_or_rng=9)
    proj = rng.normal(size=(3, cfg.j))

    def run(tape):
        data = Tensor(ws.x_short), Tensor(ws.x_long), Tensor(ws.y_period)
        x_short, x_long, y_period = data
        enc_last, x_long_bar = encode(tape, store, cfg, x_short, x_long)
        y_hat = decode(tape, store, cfg, enc_last, x_long_bar, x_short)
        y, _ = fuse(tape, store, cfg, x_short, y_hat, y_period)
        return y, data

    store.zero_grad()
    tape = Tape()
    y, data = run(tape)
    y.grad += proj
    tape.backward()
    assert [t.grad for t in data] == [None, None, None]
    analytic = store.grad_flat()
    assert np.all(analytic != 0.0)  # the data-side skips leave no parameter out
    numeric = fd_param_grad(lambda: float((run(Tape(recording=False))[0].data * proj).sum()), store)
    assert max_rel_err(analytic, numeric, floor=1e-4) < 1e-5
