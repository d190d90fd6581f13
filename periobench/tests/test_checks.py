"""Every correctness check passes the program's answer and fails a corrupted one.

    python3 -m pytest periobench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import periocast.periodicity
import pytest

import checks
import run
from checks import CheckFailed
from periocast.checkpoint import load_checkpoint, save_checkpoint
from periocast.model import Ablation, WindowConfig, build_params
from periocast.periodicity import PeriodicityConfig, PeriodKnowledge, dtw_distance, match
from periocast.stats import acf

BENCH = Path(checks.__file__).resolve().parent


def _series(n=120, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return 0.5 + 0.2 * np.sin(2 * math.pi * t / 12) + rng.normal(0, 0.05, n)


def test_acf():
    x = _series()
    rho = acf(x, 30).rho.copy()
    checks.check_acf(x, rho, 30)
    rho[7] += 1e-6
    with pytest.raises(CheckFailed, match="lag 7"):
        checks.check_acf(x, rho, 30)


def test_dtw():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(size=10), rng.uniform(size=10)
    for band in (2, None):
        value = dtw_distance(a, b, band)
        checks.check_dtw(a, b, band, value)
        with pytest.raises(CheckFailed, match="full matrix"):
            checks.check_dtw(a, b, band, value * 1.001)


def test_dtw_above_diagonal_fails():
    a, b = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.5])
    with pytest.raises(CheckFailed, match="diagonal"):
        checks.check_dtw(a, b, None, 0.25 + 1.0)


@pytest.mark.parametrize("distance", ["mse", "dtw"])
def test_match(distance):
    template = _series(12, seed=2)
    xs = _series(40, seed=3)[-8:]
    cfg = PeriodicityConfig(distance=distance, dtw_band=2)
    m = match(PeriodKnowledge("m", template), xs, 3, cfg)
    dist = checks.mean_sq if distance == "mse" else (lambda a, b: checks.dtw_full(a, b, 2))
    checks.check_match(template, xs, 3, dist, m.t_a, m.y_period, m.distance)
    with pytest.raises(CheckFailed, match="best is"):
        checks.check_match(template, xs, 3, dist, (m.t_a + 5) % 12, m.y_period, m.distance)
    with pytest.raises(CheckFailed, match="continue the template"):
        checks.check_match(template, xs, 3, dist, m.t_a, m.y_period[::-1] + 1.0, m.distance)
    with pytest.raises(CheckFailed, match="reported distance"):
        checks.check_match(template, xs, 3, dist, m.t_a, m.y_period, m.distance + 0.1)


def test_period():
    checks.check_period("periodic", (12, 12), 12)
    checks.check_period("lax", (20, 28), 23)
    checks.check_period("ar1", None, None)
    for kind, cycles, period in [("periodic", (12, 12), 13), ("lax", (20, 28), None), ("ar1", None, 5)]:
        with pytest.raises(CheckFailed, match="period"):
            checks.check_period(kind, cycles, period)


def test_forecasts():
    y = np.array([[0.4, 0.5], [0.6, 0.7]])
    w = np.array([[0.3, 0.7], [1.0, 0.0]])
    checks.check_forecasts(y, w)
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_forecasts(np.array([[0.4, np.nan]]), w[:1])
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_forecasts(y, np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(CheckFailed, match="sum to"):
        checks.check_forecasts(y, np.array([[0.3, 0.6], [0.5, 0.5]]))


def test_single_vs_batch():
    row = np.array([0.41, 0.52])
    checks.check_single_vs_batch(row * (1 + 1e-14), row)
    with pytest.raises(CheckFailed, match="single"):
        checks.check_single_vs_batch(row + 1e-6, row)


def _mse_case():
    rng = np.random.default_rng(4)
    series = {"a": rng.uniform(size=60), "b": rng.uniform(size=50)}
    ids, starts = ["a", "a", "b", "b", "b"], [0, 5, 1, 2, 40]
    m, j = 8, 2
    truth = np.array([[series[k][s + m + h] for h in range(j)] for k, s in zip(ids, starts)])
    pred = truth + rng.normal(0, 0.1, truth.shape)
    heavy = np.array([[series[k][s + m + h] > series[k].mean() + series[k].std() for h in range(j)]
                      for k, s in zip(ids, starts)])
    err = (pred - truth) ** 2
    return pred, truth, ids, starts, series, m, float(err.mean()), float(err[heavy].mean()), int(heavy.sum())


def test_mse():
    pred, truth, ids, starts, series, m, mse, heavy_mse, heavy_n = _mse_case()
    assert heavy_n > 0
    checks.check_mse(pred, truth, ids, starts, series, m, mse, heavy_mse, heavy_n)
    with pytest.raises(CheckFailed, match="pooled"):
        checks.check_mse(pred, truth, ids, starts, series, m, mse * 1.01, heavy_mse, heavy_n)
    with pytest.raises(CheckFailed, match="heavy MSE"):
        checks.check_mse(pred, truth, ids, starts, series, m, mse, heavy_mse * 1.01, heavy_n)
    with pytest.raises(CheckFailed, match="counted"):
        checks.check_mse(pred, truth, ids, starts, series, m, mse, heavy_mse, heavy_n + 1)
    shifted = truth.copy()
    shifted[0, 0] += 0.5
    with pytest.raises(CheckFailed, match="not the series value"):
        checks.check_mse(pred, shifted, ids, starts, series, m, mse, heavy_mse, heavy_n)


def test_gradients():
    g = np.array([0.3, -1e-3, 2.0, 0.0])
    checks.check_gradients(g, g * (1 + 1e-8))
    bad = g.copy()
    bad[2] = -2.0
    with pytest.raises(CheckFailed, match="entry 2"):
        checks.check_gradients(g, bad)


def test_training():
    falling = np.linspace(1.0, 0.1, 50)
    checks.check_training(falling, 0.01, 0.05)
    with pytest.raises(CheckFailed, match="did not fall"):
        checks.check_training(falling[::-1], 0.01, 0.05)
    with pytest.raises(CheckFailed, match="baseline"):
        checks.check_training(falling, 0.05, 0.05)


def test_checkpoint(tmp_path):
    cfg = WindowConfig(i=6, m=12, j=2, hidden=4, layers=1, ds_step=3, ds_window=12)
    store = build_params(cfg, Ablation.FULL, 0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, {"model": cfg.to_meta()})
    loaded, _, _ = load_checkpoint(path)
    written = {n: store[n].data for n in store.names()}
    read = {n: loaded[n].data for n in loaded.names()}
    raw = path.read_bytes()
    checks.check_checkpoint(raw, written, read)
    corrupt = bytearray(raw)
    corrupt[40] ^= 0xFF
    with pytest.raises(CheckFailed, match="sha256"):
        checks.check_checkpoint(bytes(corrupt), written, read)
    changed = dict(read)
    changed["dec.head.b"] = read["dec.head.b"] + 1.0
    with pytest.raises(CheckFailed, match="dec.head.b"):
        checks.check_checkpoint(raw, written, changed)


def test_failed_check_fails_the_run(monkeypatch, capsys):
    """A corrupted program answer makes run.py print correct=false and exit 1."""
    real = periocast.periodicity.acf

    def skewed(series, k_max):
        profile = real(series, k_max)
        rho = profile.rho.copy()
        rho[1] *= 0.999
        return type(profile)(rho, profile.k_max, profile.n)

    monkeypatch.setattr(periocast.periodicity, "acf", skewed)
    code = run.main(["--workload", "fleet-train", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "periobench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "periobench/run.py", "--workload", "fleet-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
