import math

import numpy as np
import pytest

from helpers import backward, loss
from periocast.errors import BadLength, NonFinite
from periocast.loss import LossConfig, batch_loss


# --- config parsing ------------------------------------------------------------

def test_config_from_string():
    assert LossConfig.from_string("limit").mode == "limit"
    assert LossConfig.from_string("mse").mode == "mse"
    g = LossConfig.from_string("gamma:0.25")
    assert g.mode == "gamma" and g.gamma == 0.25


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig("gamma")          # missing gamma
    with pytest.raises(ValueError):
        LossConfig("gamma", -1.0)
    with pytest.raises(ValueError):
        LossConfig("limit", 0.5)     # gamma forbidden outside gamma mode
    with pytest.raises(ValueError):
        LossConfig("nope")


def test_config_describe_round_trip():
    for text in ("limit", "mse", "gamma:0.5"):
        cfg = LossConfig.from_string(text)
        assert LossConfig.from_string(cfg.describe()) == cfg


# --- hand-computed values ----------------------------------------------------------

def test_gamma_zero_errors_gives_log_count():
    out = loss([0.3, 0.7], [0.3, 0.7], LossConfig("gamma", 1.0))
    assert out.value == pytest.approx(math.log(2.0), abs=1e-15)
    assert np.allclose(out.alpha, 0.5)


def test_limit_hand_example():
    out = loss([3.0, 0.0], [0.0, -4.0], LossConfig("limit"))
    # errors (3, 4): worst squared error 16 at step 1
    assert out.value == 16.0
    assert out.argmax_t == 1
    assert out.alpha.tolist() == [0.0, 1.0]
    grad = backward([3.0, 0.0], [0.0, -4.0], LossConfig("limit"))
    assert grad.tolist() == [0.0, 8.0]


def test_gamma_hand_example():
    out = loss([3.0, 0.0], [0.0, -4.0], LossConfig("gamma", 1.0))
    expect = 16.0 + math.log(1.0 + math.exp(9.0 - 16.0))
    assert out.value == pytest.approx(expect, abs=1e-14)


def test_mse_mode_is_mean():
    out = loss([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], LossConfig("mse"))
    assert out.value == pytest.approx((1.0 + 4.0 + 9.0) / 3.0)
    assert np.allclose(out.alpha, 1.0 / 3.0)


# --- envelope properties -------------------------------------------------------------

def test_gamma_sandwich_exact_in_float():
    rng = np.random.default_rng(0)
    for _ in range(200):
        j = int(rng.integers(2, 13))
        pred = rng.normal(scale=2.0, size=j)
        truth = rng.normal(size=j)
        err = pred - truth
        worst = float(np.max(err * err))
        for gamma in (1.0, 0.1, 1e-3):
            v = loss(pred, truth, LossConfig("gamma", gamma)).value
            assert v >= worst            # exact: log argument >= 1
            assert v <= worst + gamma * math.log(j) + 1e-12


def test_gamma_converges_to_limit():
    pred = np.array([0.5, -0.2, 0.9])
    truth = np.array([0.1, 0.1, 0.1])
    worst = loss(pred, truth, LossConfig("limit")).value
    prev_gap = math.inf
    for gamma in (1.0, 0.1, 0.01, 1e-4):
        gap = loss(pred, truth, LossConfig("gamma", gamma)).value - worst
        assert 0.0 <= gap <= prev_gap + 1e-15
        prev_gap = gap


def test_alpha_polarizes_as_gamma_shrinks():
    pred = np.array([0.5, -0.2, 0.9, 0.0])
    truth = np.zeros(4)
    prev_top = 0.0
    for gamma in (10.0, 1.0, 0.1, 0.01):
        out = loss(pred, truth, LossConfig("gamma", gamma))
        assert np.all(out.alpha >= 0.0)
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        top = out.alpha[out.argmax_t]
        assert top >= prev_top - 1e-12
        prev_top = top
    assert prev_top > 0.999


def test_limit_tie_takes_first_index():
    out = loss([1.0, -1.0, 1.0], [0.0, 0.0, 0.0], LossConfig("limit"))
    assert out.argmax_t == 0
    assert out.alpha.tolist() == [1.0, 0.0, 0.0]


def test_huge_errors_do_not_overflow():
    pred = np.array([100.0, -100.0])
    truth = np.zeros(2)
    out = loss(pred, truth, LossConfig("gamma", 1e-3))
    assert math.isfinite(out.value)
    assert out.value >= 10000.0


# --- gradients ----------------------------------------------------------------------

def _fd_loss_grad(pred, truth, cfg, h=1e-6):
    pred = np.asarray(pred, dtype=np.float64)
    g = np.zeros_like(pred)
    for i in range(len(pred)):
        up = pred.copy()
        up[i] += h
        down = pred.copy()
        down[i] -= h
        g[i] = (loss(up, truth, cfg).value - loss(down, truth, cfg).value) / (2 * h)
    return g


def test_backward_matches_fd_gamma_and_mse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        j = int(rng.integers(2, 8))
        pred = rng.normal(size=j)
        truth = rng.normal(size=j)
        for cfg in (LossConfig("gamma", 0.5), LossConfig("gamma", 0.05),
                    LossConfig("mse")):
            got = backward(pred, truth, cfg)
            ref = _fd_loss_grad(pred, truth, cfg)
            assert np.max(np.abs(got - ref)) < 1e-6


def test_backward_matches_fd_limit_with_clear_argmax():
    rng = np.random.default_rng(2)
    cfg = LossConfig("limit")
    for _ in range(20):
        j = int(rng.integers(2, 8))
        truth = rng.normal(size=j)
        pred = truth + rng.normal(size=j) * 0.1
        k = int(rng.integers(j))
        pred[k] = truth[k] + 3.0  # unambiguous worst step
        got = backward(pred, truth, cfg)
        ref = _fd_loss_grad(pred, truth, cfg)
        assert np.max(np.abs(got - ref)) < 1e-6


def test_gradient_is_alpha_scaled_error_every_mode():
    rng = np.random.default_rng(3)
    pred = rng.normal(size=5)
    truth = rng.normal(size=5)
    for cfg in (LossConfig("limit"), LossConfig("gamma", 0.3), LossConfig("mse")):
        out = loss(pred, truth, cfg)
        grad = backward(pred, truth, cfg)
        assert np.allclose(grad, out.alpha * 2.0 * (pred - truth), atol=1e-15)


# --- validation -----------------------------------------------------------------------

def test_too_short_sequence():
    with pytest.raises(BadLength):
        loss([1.0], [0.0], LossConfig("limit"))


def test_shape_mismatch():
    with pytest.raises(BadLength):
        loss([1.0, 2.0], [0.0], LossConfig("limit"))


def test_non_finite_rejected():
    with pytest.raises(NonFinite):
        loss([np.nan, 1.0], [0.0, 0.0], LossConfig("limit"))
    with pytest.raises(NonFinite):
        loss([np.inf, 1.0], [0.0, 0.0], LossConfig("mse"))


# --- batched form -----------------------------------------------------------------------

def test_batch_loss_matches_rowwise():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(6, 4))
    truth = rng.normal(size=(6, 4))
    for cfg in (LossConfig("limit"), LossConfig("gamma", 0.2), LossConfig("mse")):
        mean_v, grad, values = batch_loss(pred, truth, cfg)
        row_values = [loss(pred[b], truth[b], cfg).value for b in range(6)]
        row_grads = np.stack([backward(pred[b], truth[b], cfg) for b in range(6)])
        assert mean_v == pytest.approx(np.mean(row_values), rel=1e-14)
        assert np.allclose(values, row_values, atol=1e-14)
        assert np.allclose(grad, row_grads / 6.0, atol=1e-14)


def test_batch_loss_non_finite():
    bad = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(NonFinite):
        batch_loss(bad, np.zeros((2, 2)), LossConfig("limit"))
