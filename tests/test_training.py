import csv
import math

import numpy as np
import pytest

from helpers import tiny_config
from periocast.errors import EmptySelection, EmptyTrainSet, NonFiniteLoss
from periocast.loss import LossConfig, batch_loss
from periocast.model import Ablation, build_params, forward_batch, make_windows, merge_splits
from periocast.neural import ParamStore
from periocast.periodicity import PeriodicityConfig, build_knowledge, detect_period
from periocast.rng import Prng
from periocast.stats import metrics
from periocast.training import (
    Adam,
    EvalReport,
    Sgd,
    TrainConfig,
    evaluate,
    run_ablation_suite,
    train,
)
from periocast.traceio import SyntheticSpec, generate

PCFG = PeriodicityConfig()


def _dataset(seed=0, length=60, periodic=False, split=(0.7, 0.1, 0.2)):
    cfg = tiny_config(hidden=3)
    if periodic:
        s = generate(SyntheticSpec(length=length, period=12, amplitude=0.3,
                                   noise_std=0.02, seed=seed))
        know = build_knowledge(s, detect_period(s, PCFG))
    else:
        s = generate(SyntheticSpec(length=length, noise_std=0.1,
                                   burst_rate=0.15, burst_height=0.4, seed=seed))
        know = None
    return cfg, make_windows(s, know, cfg, PCFG, split=split)


# --- config -----------------------------------------------------------------------

def test_train_config_validation():
    bad = [dict(epochs=0), dict(optimizer="lbfgs"), dict(grad_clip=-1.0),
           dict(grad_clip=math.inf), dict(grad_clip=math.nan),
           dict(patience=0), dict(patience=-3),
           dict(learning_rate=-0.01), dict(learning_rate=math.inf), dict(learning_rate=math.nan)]
    for kwargs in bad:
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
    # A zero learning rate is legal: it freezes the parameters.
    assert TrainConfig(learning_rate=0.0, patience=1).learning_rate == 0.0


def test_effective_loss_forced_to_mse_by_ablation():
    tcfg = TrainConfig(ablation=Ablation.MSE_LOSS, loss=LossConfig("limit"))
    assert tcfg.effective_loss().mode == "mse"
    tcfg = TrainConfig(ablation=Ablation.FULL, loss=LossConfig("gamma", 0.5))
    assert tcfg.effective_loss().mode == "gamma"


# --- optimizers ---------------------------------------------------------------------

def _one_param_store(value=1.0):
    return ParamStore({"w": [[value]]})


def test_sgd_step_exact():
    store = _one_param_store(2.0)
    Sgd(store, lr=0.5).step(np.array([0.8]))
    assert store["w"].data[0, 0] == 2.0 - 0.5 * 0.8


def test_adam_two_step_hand_oracle():
    store = _one_param_store(1.0)
    opt = Adam(store, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)

    theta = 1.0
    m = v = 0.0
    for t, g in enumerate([0.4, -0.2], start=1):
        opt.step(np.array([g]))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        theta -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert store["w"].data[0, 0] == pytest.approx(theta, abs=1e-15)


def test_adam_zero_grad_no_move():
    store = _one_param_store(3.0)
    opt = Adam(store, lr=0.1)
    for _ in range(5):
        opt.step(np.zeros(1))
    assert store["w"].data[0, 0] == 3.0


def test_adam_first_step_size_is_lr():
    # with a single nonzero gradient the bias-corrected first step is
    # lr * g / (|g| + eps), i.e. essentially +-lr
    store = _one_param_store(0.0)
    Adam(store, lr=0.05).step(np.array([7.0]))
    assert store["w"].data[0, 0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_in_place_matches_out_of_place_formula_bitwise():
    # a 20-step gradient sequence recorded from real training steps, replayed
    # through the textbook out-of-place update
    cfg, split = _dataset(seed=5)
    store = build_params(cfg, Ablation.FULL, Prng(5))
    opt = Adam(store, lr=0.01)
    theta = store.get_flat()
    grads, thetas = [], []
    for step in range(20):
        batch = split.train[(step * 4) % len(split.train):][:4]
        store.zero_grad()
        bf = forward_batch(batch, store, cfg, Ablation.FULL)
        _, grad, _ = batch_loss(bf.y.data, np.stack([w.target for w in batch]), LossConfig())
        bf.y.grad = grad
        bf.tape.backward()
        grads.append(store.grad_flat())
        opt.step(grads[-1])
        thetas.append(store.get_flat())

    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, (g, got) in enumerate(zip(grads, thetas), start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(got, theta)
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


# --- training loop --------------------------------------------------------------------

def test_zero_lr_returns_initial_params():
    cfg, split = _dataset(seed=1)
    tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.0, seed=9)
    store, _ = train(split.train, cfg, tcfg)
    init = build_params(cfg, tcfg.ablation, Prng(9))
    assert np.array_equal(store.get_flat(), init.get_flat())


def test_training_is_deterministic():
    cfg, split = _dataset(seed=2)
    tcfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=4)
    store_a, log_a = train(split.train, cfg, tcfg, split.val)
    store_b, log_b = train(split.train, cfg, tcfg, split.val)
    assert np.array_equal(store_a.get_flat(), store_b.get_flat())
    assert log_a.train_loss == log_b.train_loss
    assert log_a.val_mse == log_b.val_mse


def test_window_set_and_window_list_train_alike():
    cfg, split = _dataset(seed=5, length=80, periodic=True)
    tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=4)
    store_a, log_a = train(split.train, cfg, tcfg, split.val)
    store_b, log_b = train(list(split.train), cfg, tcfg, list(split.val))
    assert np.array_equal(store_a.get_flat(), store_b.get_flat())
    assert log_a.train_loss == log_b.train_loss
    assert log_a.val_mse == log_b.val_mse


def test_seed_changes_trajectory():
    cfg, split = _dataset(seed=3)
    a, _ = train(split.train, cfg, TrainConfig(epochs=1, batch_size=8,
                                               learning_rate=0.01, seed=0))
    b, _ = train(split.train, cfg, TrainConfig(epochs=1, batch_size=8,
                                               learning_rate=0.01, seed=1))
    assert not np.array_equal(a.get_flat(), b.get_flat())


def test_loss_decreases_on_learnable_data():
    cfg, split = _dataset(seed=4, length=80, periodic=True)
    tcfg = TrainConfig(epochs=15, batch_size=16, learning_rate=0.02, seed=0)
    _, log = train(split.train, cfg, tcfg)
    assert log.train_loss[-1] < log.train_loss[0]


def test_empty_train_set():
    cfg, _ = _dataset()
    with pytest.raises(EmptyTrainSet):
        train([], cfg, TrainConfig())


def test_early_stop_with_frozen_params():
    # lr 0 freezes validation MSE, so improvement never recurs after epoch 0
    cfg, split = _dataset(seed=5)
    tcfg = TrainConfig(epochs=30, batch_size=8, learning_rate=0.0,
                       patience=3, seed=0)
    _, log = train(split.train, cfg, tcfg, split.val)
    assert log.stopped_early
    assert log.best_epoch == 0
    assert len(log.train_loss) == 1 + 3


def test_best_val_params_returned():
    cfg, split = _dataset(seed=6, length=80, periodic=True)
    tcfg = TrainConfig(epochs=8, batch_size=16, learning_rate=0.05, seed=2)
    store, log = train(split.train, cfg, tcfg, split.val)
    assert log.best_epoch >= 0
    best_recorded = min(v for v in log.val_mse if v is not None)
    rep = evaluate(store, split.val, cfg, tcfg.ablation)
    assert rep.aggregate.overall.mse == pytest.approx(best_recorded, rel=1e-9)


def test_divergence_raises_non_finite():
    cfg, split = _dataset(seed=7)
    tcfg = TrainConfig(epochs=50, batch_size=8, learning_rate=1e18,
                       optimizer="sgd", seed=0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
        train(split.train, cfg, tcfg)


def test_grad_clip_bounds_sgd_step():
    cfg, split = _dataset(seed=8)
    clip = 1e-3
    tcfg = TrainConfig(epochs=1, batch_size=len(split.train),
                       learning_rate=1.0, optimizer="sgd",
                       grad_clip=clip, seed=3)
    store, _ = train(split.train, cfg, tcfg)
    init = build_params(cfg, tcfg.ablation, Prng(3))
    moved = float(np.linalg.norm(store.get_flat() - init.get_flat()))
    assert moved <= clip * (1.0 + 1e-9)


def test_train_log_csv_round_trip(tmp_path):
    cfg, split = _dataset(seed=9)
    tcfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=0)
    _, log = train(split.train, cfg, tcfg, split.val)
    path = tmp_path / "trainlog.csv"
    log.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(log.train_loss)
    for ep, row in enumerate(rows):
        assert int(row["epoch"]) == ep
        assert float(row["train_loss"]) == log.train_loss[ep]
        if log.val_mse[ep] is not None:
            assert float(row["val_mse"]) == log.val_mse[ep]


# --- evaluation ---------------------------------------------------------------------

def test_evaluate_pooled_aggregate_matches_recomputation():
    cfg, split_a = _dataset(seed=10, length=70)
    _, split_b = _dataset(seed=11, length=50)
    merged = merge_splits([split_a, split_b])
    store = build_params(cfg, Ablation.FULL, Prng(0))
    rep = evaluate(store, merged.test, cfg, Ablation.FULL)

    preds, truths = [], []
    for w in merged.test:
        from periocast.model import forward
        fc = forward(w, store, cfg, Ablation.FULL)
        preds.append(fc.y)
        truths.append(w.target)
    ref = metrics(np.concatenate(preds), np.concatenate(truths))
    assert rep.aggregate.overall.mse == pytest.approx(ref.mse, rel=1e-12)
    assert rep.aggregate.overall.mae == pytest.approx(ref.mae, rel=1e-12)
    assert set(rep.per_machine) == {"synth-10", "synth-11"}


def test_evaluate_heavy_none_when_absent():
    cfg, split = _dataset(seed=12, length=60, periodic=True)
    flat = [w for w in split.train if not w.heavy.any()]
    assert flat, "need at least one all-quiet window"
    store = build_params(cfg, Ablation.FULL, Prng(1))
    rep = evaluate(store, flat, cfg, Ablation.FULL)
    assert rep.aggregate.heavy is None


def test_evaluate_mean_fusion_weight():
    cfg, split = _dataset(seed=13)
    store = build_params(cfg, Ablation.FULL, Prng(2))
    rep = evaluate(store, split.test, cfg, Ablation.FULL)
    assert rep.mean_fusion_weight is not None
    assert 0.0 <= rep.mean_fusion_weight <= 1.0
    bare = build_params(cfg, Ablation.NO_PERIOD, Prng(2))
    rep2 = evaluate(bare, split.test, cfg, Ablation.NO_PERIOD)
    assert rep2.mean_fusion_weight is None


def test_fusion_leans_on_decoder_for_aperiodic_data():
    # every window carries the -1 sentinel, so the period candidate is a
    # constant; training should push the blend toward the decoded sequence
    cfg, split = _dataset(seed=14, length=90)
    assert all(np.all(w.y_period == -1.0) for w in split.train)
    tcfg = TrainConfig(epochs=40, batch_size=16, learning_rate=0.01, seed=3,
                       patience=40, ablation=Ablation.FULL)
    store, _ = train(split.train, cfg, tcfg, split.val)
    rep = evaluate(store, split.train, cfg, Ablation.FULL)
    assert rep.mean_fusion_weight > 0.5


def test_evaluate_empty_raises():
    cfg, _ = _dataset()
    store = build_params(cfg, Ablation.FULL, Prng(0))
    with pytest.raises(EmptySelection):
        evaluate(store, [], cfg, Ablation.FULL)


def test_eval_report_csv(tmp_path):
    cfg, split = _dataset(seed=14)
    store = build_params(cfg, Ablation.FULL, Prng(3))
    rep = evaluate(store, split.test, cfg, Ablation.FULL)
    path = tmp_path / "eval.csv"
    rep.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [r["machine_id"] for r in rows]
    assert names[-1] == "ALL" or names[-2] == "ALL"  # ALL rows come last
    overall = next(r for r in rows if r["machine_id"] == "ALL" and r["slice"] == "overall")
    assert float(overall["mse"]) == rep.aggregate.overall.mse


# --- ablation suite ------------------------------------------------------------------

def test_ablation_suite_needs_three_seeds():
    cfg, split = _dataset(seed=15)
    with pytest.raises(ValueError):
        run_ablation_suite(split, cfg, TrainConfig(epochs=1), seeds=(1, 2))


def test_ablation_suite_runs_all_variants():
    cfg, split = _dataset(seed=16, length=60)
    tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01)
    result = run_ablation_suite(split, cfg, tcfg, seeds=(1, 2, 3))
    assert len(result.runs) == 4 * 3
    for seed in (1, 2, 3):
        for ab in Ablation:
            assert result.metric(ab, seed, "overall") is not None
        # FULL measured against itself is exactly zero improvement
        assert result.improvement(Ablation.FULL, seed, "overall") == pytest.approx(0.0)


def test_ablation_improvement_formula():
    cfg, split = _dataset(seed=17, length=60)
    tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01)
    result = run_ablation_suite(split, cfg, tcfg, seeds=(1, 2, 3))
    full = result.metric(Ablation.FULL, 1, "overall")
    other = result.metric(Ablation.NEITHER, 1, "overall")
    got = result.improvement(Ablation.NEITHER, 1, "overall")
    assert got == pytest.approx((other - full) / other * 100.0)


def test_ablation_csv_written(tmp_path):
    cfg, split = _dataset(seed=18, length=60)
    tcfg = TrainConfig(epochs=1, batch_size=16, learning_rate=0.01)
    result = run_ablation_suite(split, cfg, tcfg, seeds=(1, 2, 3))
    path = tmp_path / "ablation.csv"
    result.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["ablation"] for r in rows} == {a.value for a in Ablation}
    overall_rows = [r for r in rows if r["slice"] == "overall"]
    assert len(overall_rows) == 12
