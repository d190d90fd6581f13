"""Whole-pipeline acceptance checks.

Every test prints a single [PASS]/[FAIL] verdict line (visible even under
capture) so the suite output doubles as a go/no-go report.  Runtime budgets
are asserted inside each check.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from helpers import (acf_naive, attention, dtw_exhaustive, fd_param_grad, loss, max_rel_err,
                     random_window, verify_bound)
from periocast.cli import main
from periocast.loss import LossConfig, batch_loss
from periocast.model import (Ablation, WindowConfig, build_params, forward_batch,
                             make_windows, merge_splits)
from periocast.neural import (ParamStore, Tape, add_autoencoder_slots, autoencoder,
                              concat_cols, linear, pair_attention, recurrent_cell_step,
                              scalar_attention, select_cols, tanh)
from periocast.neural import add as tensor_add
from periocast.periodicity import (PeriodicityConfig, build_knowledge, detect_period,
                                   dtw_distance, fit_threshold_gmm_sweep)
from periocast.rng import Prng
from periocast.stats import acf
from periocast.traceio import SyntheticSpec, WorkloadSeries, generate
from periocast.training import TrainConfig, evaluate, train


@contextlib.contextmanager
def reported(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {name}")
        raise
    with capsys.disabled():
        print(f"[PASS] {name}")


# --- 1: worst-step loss sandwich ---------------------------------------------------

def test_loss_sandwich(capsys):
    with reported(capsys, "worst-step loss sandwich"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        for j in (2, 12):
            for _ in range(500):
                pred = rng.normal(0.5, 1.0, j)
                truth = rng.normal(0.5, 1.0, j)
                worst = float(((pred - truth) ** 2).max())
                for gamma in (1.0, 0.1, 1e-3):
                    val = loss(pred, truth, LossConfig("gamma", gamma)).value
                    assert worst - 1e-12 <= val
                    assert val <= worst + gamma * math.log(j) + 1e-12
        assert time.perf_counter() - t0 < 1.0


# --- 2: gradients vs central finite differences -------------------------------------

GRAD_TOL = 1e-5
GRAD_CFG = WindowConfig(i=10, m=20, j=4, hidden=8, layers=2, ds_step=5, ds_window=20)


def _fill(slot, rng, scale=0.8):
    slot.data[:] = rng.normal(size=slot.data.shape) * scale


def _primitive_runs(rng, seed):
    """Each entry: (name, store, run) where run(tape) yields (out, seed_grad)
    pairs.  All differentiable inputs live in the store so one flat finite
    difference sweep covers parameter and input gradients alike."""
    runs = []

    def proj_like(t):
        return rng.normal(size=t.data.shape)

    st = ParamStore()
    x, w, b = st.add("x", 3, 4), st.add("w", 4, 5), st.add("b", 1, 5)
    for s in (x, w, b):
        _fill(s, rng)
    p = {}
    runs.append(("linear", st,
                 lambda tape: [(out := linear(tape, x, w, b),
                                p.setdefault("linear", proj_like(out)))]))

    st2 = ParamStore()
    xt = st2.add("x", 3, 5)
    _fill(xt, rng)
    runs.append(("tanh", st2,
                 lambda tape: [(out := tanh(tape, xt), p.setdefault("tanh", proj_like(out)))]))

    st3 = ParamStore()
    a3, b3 = st3.add("a", 3, 5), st3.add("b", 1, 5)
    _fill(a3, rng)
    _fill(b3, rng)
    runs.append(("add", st3,
                 lambda tape: [(out := tensor_add(tape, a3, b3),
                                p.setdefault("add", proj_like(out)))]))

    st4 = ParamStore()
    c0, c1 = st4.add("c0", 3, 2), st4.add("c1", 3, 3)
    _fill(c0, rng)
    _fill(c1, rng)
    idx = np.array([0, 2, 2, 4])  # repeated column: scatter must accumulate

    def run_select(tape):
        cat = concat_cols(tape, [c0, c1])
        out = select_cols(tape, cat, idx)
        return [(out, p.setdefault("select", proj_like(out)))]

    runs.append(("concat+select", st4, run_select))

    st6 = ParamStore()
    q6, k6, v6 = st6.add("q", 3, 4), st6.add("k", 5, 4), st6.add("v", 5, 2)
    for s in (q6, k6, v6):
        _fill(s, rng)
    runs.append(("attention", st6,
                 lambda tape: [(out := attention(tape, q6, k6, v6),
                                p.setdefault("attn", proj_like(out)))]))

    st7 = ParamStore()
    q7, kv7 = st7.add("q", 3, 6), st7.add("kv", 3, 6)
    _fill(q7, rng)
    _fill(kv7, rng)
    runs.append(("scalar_attention", st7,
                 lambda tape: [(out := scalar_attention(tape, q7, kv7),
                                p.setdefault("sattn", proj_like(out)))]))

    st8 = ParamStore()
    q8, a8, b8 = st8.add("q", 3, 4), st8.add("c0", 3, 4), st8.add("c1", 3, 4)
    for s in (q8, a8, b8):
        _fill(s, rng)
    runs.append(("pair_attention", st8,
                 lambda tape: [(out := pair_attention(tape, q8, a8, b8)[0],
                                p.setdefault("pattn", proj_like(out)))]))

    st9 = ParamStore()
    x9, h9, c9 = st9.add("x", 3, 2), st9.add("h", 3, 4), st9.add("c", 3, 4)
    wx9, wh9, b9 = st9.add("wx", 2, 16), st9.add("wh", 4, 16), st9.add("b", 1, 16)
    for s in (x9, h9, c9, wx9, wh9, b9):
        _fill(s, rng, 0.5)

    def run_cell(tape):
        h2, c2 = recurrent_cell_step(tape, x9, h9, c9, wx9, wh9, b9)
        return [(h2, p.setdefault("cell_h", proj_like(h2))),
                (c2, p.setdefault("cell_c", proj_like(c2)))]

    runs.append(("recurrent_cell", st9, run_cell))

    st10 = ParamStore()
    x10 = st10.add("x", 3, 5)
    _fill(x10, rng)
    add_autoencoder_slots(st10, "ae", 5, Prng(seed))
    runs.append(("autoencoder", st10,
                 lambda tape: [(out := autoencoder(tape, x10, st10, "ae"),
                                p.setdefault("ae", proj_like(out)))]))
    return runs


def _check_primitives(seed):
    rng = np.random.default_rng(seed)
    for name, store, run in _primitive_runs(rng, seed):
        tape = Tape()
        for out, proj in run(tape):
            out.grad = proj.copy() if out.grad is None else out.grad + proj
        tape.backward()
        analytic = store.grad_flat().copy()

        def value():
            return float(sum((out.data * proj).sum()
                             for out, proj in run(Tape(recording=False))))

        numeric = fd_param_grad(value, store)
        err = max_rel_err(analytic, numeric, floor=1e-8)
        assert err < GRAD_TOL, f"{name} seed {seed}: {err:.3e}"


def _check_composed(seed, mode):
    """Full forward plus sequence loss against a flat parameter sweep."""
    rng = np.random.default_rng(seed)
    store = build_params(GRAD_CFG, Ablation.FULL, Prng(seed + 4000))
    lcfg = LossConfig("gamma", 0.5) if mode == "gamma" else LossConfig("limit")
    for _ in range(5):
        windows = [random_window(GRAD_CFG, rng, sentinel=bool(seed % 2))]
        target = np.stack([w.target for w in windows])
        out = forward_batch(windows, store, GRAD_CFG, Ablation.FULL,
                            Tape(recording=False))
        if mode == "limit":
            # a near-tied worst step would flip under the h-perturbation and
            # poison the numeric derivative; redraw rather than compare junk
            sq = np.sort((out.y.data - target) ** 2, axis=1)
            if float(np.min(sq[:, -1] - sq[:, -2])) < 1e-3:
                continue
        break
    else:
        pytest.fail(f"no safe worst-step margin after retries (seed {seed})")

    bf = forward_batch(windows, store, GRAD_CFG, Ablation.FULL)
    _, grad, _ = batch_loss(bf.y.data, target, lcfg)
    bf.y.grad = grad
    bf.tape.backward()
    analytic = store.grad_flat().copy()

    def value():
        out = forward_batch(windows, store, GRAD_CFG, Ablation.FULL,
                            Tape(recording=False))
        return batch_loss(out.y.data, target, lcfg)[0]

    numeric = fd_param_grad(value, store)
    # floor 1e-4: elements below it are held to |a - n| <= 1e-9, absorbing
    # central-difference round-off while still catching O(scale) bugs
    err = max_rel_err(analytic, numeric, floor=1e-4)
    assert err < GRAD_TOL, f"composed {mode} seed {seed}: {err:.3e}"


def test_gradients_match_finite_differences(capsys):
    with reported(capsys, "gradients match central finite differences"):
        t0 = time.perf_counter()
        for seed in range(50):
            _check_primitives(seed)
            _check_composed(seed, "gamma" if seed % 2 == 0 else "limit")
        assert time.perf_counter() - t0 < 120.0


# --- 3: period recovery -------------------------------------------------------------

def test_period_recovery(capsys):
    with reported(capsys, "period recovery on sinusoids and noise"):
        t0 = time.perf_counter()
        pcfg = PeriodicityConfig(threshold=0.5)
        for seed in range(20):
            s = generate(SyntheticSpec(length=480, period=24, amplitude=0.3,
                                       noise_std=0.05, seed=seed))
            assert detect_period(s, pcfg).period == 24
        for seed in range(20):
            s = generate(SyntheticSpec(length=480, noise_std=0.05, seed=100 + seed))
            assert detect_period(s, pcfg).period is None
        assert time.perf_counter() - t0 < 5.0


# --- 4: lag-gap variance bound ------------------------------------------------------

def test_lag_gap_bound(capsys):
    with reported(capsys, "lag-gap variance bound on detected periods"):
        t0 = time.perf_counter()
        pcfg = PeriodicityConfig(threshold=0.5)
        n_periodic = 0
        for seed in range(20):
            period = (12, 24, 48)[seed % 3]
            amp = (0.2, 0.3, 0.4)[seed % 3]
            noise = (0.02, 0.05, 0.08)[(seed // 3) % 3]
            s = generate(SyntheticSpec(length=480, period=period, amplitude=amp,
                                       noise_std=noise, seed=200 + seed))
            rep = detect_period(s, pcfg)
            if rep.period is None:
                continue
            n_periodic += 1
            emp, bound = verify_bound(s, rep.period, pcfg.threshold)
            assert emp <= bound * 1.05, (seed, emp, bound)
        assert n_periodic >= 15  # the bound must actually get exercised
        assert time.perf_counter() - t0 < 5.0


# --- 5: threshold mixture recovery --------------------------------------------------

def test_threshold_mixture_recovery(capsys):
    with reported(capsys, "threshold mixture recovery"):
        t0 = time.perf_counter()
        weights, means, stds = (0.84, 0.10, 0.06), (0.53, 0.23, -0.04), (0.06, 0.03, 0.05)
        rng = Prng(77)
        samples = np.empty(1000)
        for i in range(1000):
            r = rng.uniform()
            comp = 0 if r < weights[0] else (1 if r < weights[0] + weights[1] else 2)
            samples[i] = means[comp] + stds[comp] * rng.gauss()
        fit = fit_threshold_gmm_sweep(samples, n_components=3, seeds=(0, 1, 2, 3, 4))
        recovered = np.sort(fit.means)[::-1]
        assert np.all(np.abs(recovered - np.array(means)) <= 0.03)
        assert 0.44 <= fit.derived_threshold <= 0.50
        assert time.perf_counter() - t0 < 10.0


# --- 6: oracle equivalence ----------------------------------------------------------

def test_oracle_equivalence(capsys):
    with reported(capsys, "autocorrelation and warping distance oracles"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(8, 201))
            x = rng.uniform(0.0, 1.0, n)
            k_max = int(rng.integers(2, n - 1))
            got = acf(x, k_max).rho
            want = acf_naive(x, k_max)
            assert np.max(np.abs(got - want)) < 1e-10
        for la in range(1, 7):
            for lb in range(1, 7):
                for _ in range(2):
                    a = rng.uniform(0.0, 1.0, la)
                    b = rng.uniform(0.0, 1.0, lb)
                    assert dtw_distance(a, b) == pytest.approx(
                        dtw_exhaustive(a, b), abs=1e-10)
        assert time.perf_counter() - t0 < 30.0


# --- 7/8: directional desk-scale ablations -----------------------------------------

ABL_SPLIT = (0.7, 0.1, 0.2)
ABL_TICKS = 240


def _window_sets(series_list, wcfg, pcfg, expect_period):
    splits = []
    head_n = int(ABL_SPLIT[0] * ABL_TICKS)
    for s in series_list:
        head = WorkloadSeries(s.machine_id, s.values[:head_n])
        rep = detect_period(head, pcfg)
        assert rep.period == expect_period, (s.machine_id, rep.period)
        splits.append(make_windows(s, build_knowledge(head, rep), wcfg, pcfg, ABL_SPLIT))
    return merge_splits(splits)


def _heavy_mse(split, wcfg, ablation, seed):
    tcfg = TrainConfig(epochs=50, batch_size=100, learning_rate=0.005,
                       seed=seed, patience=50, ablation=ablation)
    store, _ = train(split.train, wcfg, tcfg, split.val)
    rep = evaluate(store, split.test, wcfg, ablation)
    return rep.aggregate.heavy.mse, rep.aggregate.overall.mse


def test_period_branch_cuts_heavy_error(capsys):
    with reported(capsys, "period branch cuts heavy-point error"):
        t0 = time.perf_counter()
        period = 24

        def machine(idx):
            # shared sinusoid phase, machine-specific burst phase: the burst
            # schedule is only recoverable through the period template
            rng = Prng(900 + idx)
            t = np.arange(ABL_TICKS)
            vals = 0.5 + 0.1 * np.sin(2 * np.pi * t / period)
            phase = 2 + 2 * idx
            hit = np.isin(t % period, (phase, phase + 1))
            vals = vals + 0.35 * hit
            vals += np.array([rng.gauss(0.0, 0.01) for _ in range(ABL_TICKS)])
            return WorkloadSeries(f"pm-{idx:02d}", np.clip(vals, 0.0, 1.0))

        wcfg = WindowConfig(i=12, m=24, j=2, hidden=16, layers=2, ds_step=8, ds_window=24)
        split = _window_sets([machine(i) for i in range(10)], wcfg,
                             PeriodicityConfig(), expect_period=period)
        wins = 0
        for seed in (1, 2, 3):
            full, _ = _heavy_mse(split, wcfg, Ablation.FULL, seed)
            bare, _ = _heavy_mse(split, wcfg, Ablation.NO_PERIOD, seed)
            wins += full <= 0.95 * bare
        assert wins >= 2, f"only {wins}/3 seeds improved by >= 5%"
        assert time.perf_counter() - t0 < 900.0


def test_worst_step_loss_cuts_heavy_error(capsys):
    with reported(capsys, "worst-step loss cuts heavy-point error"):
        t0 = time.perf_counter()

        def machine(idx):
            # long-tailed ramp bursts at uniform random gaps: once the warning
            # tick is visible the rest of the ramp is predictable
            rng = Prng(500 + idx)
            vals = 0.4 + np.array([rng.gauss(0.0, 0.02) for _ in range(ABL_TICKS)])
            t = 0
            while True:
                t += 20 + rng.randint(21)
                if t + 3 >= ABL_TICKS:
                    break
                vals[t] += 0.2
                vals[t + 1] += 0.5
                vals[t + 2] += 0.3
                vals[t + 3] += 0.1
            return WorkloadSeries(f"bm-{idx:02d}", np.clip(vals, 0.0, 1.0))

        wcfg = WindowConfig(i=12, m=24, j=4, hidden=8, layers=2, ds_step=8, ds_window=24)
        split = _window_sets([machine(i) for i in range(10)], wcfg,
                             PeriodicityConfig(), expect_period=None)
        wins = 0
        for seed in (1, 2, 3):
            worst_h, worst_o = _heavy_mse(split, wcfg, Ablation.FULL, seed)
            plain_h, plain_o = _heavy_mse(split, wcfg, Ablation.MSE_LOSS, seed)
            wins += worst_h <= 0.95 * plain_h
            assert worst_o <= 1.10 * plain_o, (seed, worst_o, plain_o)
        assert wins >= 2, f"only {wins}/3 seeds improved by >= 5%"
        assert time.perf_counter() - t0 < 900.0


# --- 9: overfit sanity --------------------------------------------------------------

def test_overfits_tiny_dataset(capsys):
    with reported(capsys, "overfits a tiny noiseless dataset"):
        t0 = time.perf_counter()
        wcfg = WindowConfig(i=6, m=12, j=2, hidden=16, layers=2, ds_step=4, ds_window=12)
        series = generate(SyntheticSpec(length=wcfg.m + wcfg.j + 7, period=7,
                                        amplitude=0.3, seed=4))
        split = make_windows(series, None, wcfg, PeriodicityConfig(), (1.0, 0.0, 0.0))
        assert len(split.train) == 8
        tcfg = TrainConfig(epochs=500, batch_size=2, learning_rate=0.01, seed=0)
        _, log = train(split.train, wcfg, tcfg, split.val)
        assert log.train_loss[-1] < 1e-4
        assert time.perf_counter() - t0 < 60.0


# --- 10: determinism ----------------------------------------------------------------

def test_bit_identical_reruns(capsys, tmp_path):
    with reported(capsys, "bit-identical rerun of train and evaluate"):
        data = tmp_path / "traces.csv"
        assert main(["generate", "--out", str(data), "--machines", "2",
                     "--length", "60", "--period", "12", "--amplitude", "0.3",
                     "--noise-std", "0.03", "--seed", "5"]) == 0
        model_args = ["--set", "model.i=6", "--set", "model.m=12", "--set", "model.j=2",
                      "--set", "model.hidden=3", "--set", "model.layers=1",
                      "--set", "model.ds_step=4", "--set", "model.ds_window=8",
                      "--set", "train.epochs=3", "--set", "train.batch_size=32"]
        blobs, shas = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data), "--out", str(out),
                         *model_args]) == 0
            ckpt = sorted(out.glob("*.ckpt"))[0]
            blobs.append(ckpt.read_bytes())
            shas.append([ln for ln in capsys.readouterr().out.splitlines()
                         if "sha256" in ln][0].split()[-1])
        assert blobs[0] == blobs[1]
        assert shas[0] == shas[1]

        ckpt = sorted((tmp_path / "a").glob("*.ckpt"))[0]
        reports = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(out)]) == 0
            reports.append((out / "eval.csv").read_bytes())
        assert reports[0] == reports[1]
