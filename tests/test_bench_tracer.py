"""The benchmark's tracer (periobench/tracer.py) wraps periocast functions at
the place each one is looked up when called.  These tests keep those places
in step with the library: a hook whose name moved would make a traced
benchmark run fail with a KeyError.  The third test keeps the rest of the
API the benchmark drives in step: its cold-start script, and the window
lists it hands to `evaluate`.  The last two run the benchmark itself,
briefly, traced and untraced."""

import json
import math
import subprocess
import sys

import numpy as np

from helpers import BENCH, load_bench_module
import periocast
import periocast.checkpoint
import periocast.loss
import periocast.model
import periocast.neural
import periocast.periodicity
import periocast.traceio
import periocast.training
from periocast.checkpoint import load_checkpoint, save_checkpoint
from periocast.model import WindowConfig, forward, make_windows
from periocast.periodicity import PeriodicityConfig, build_knowledge, detect_period
from periocast.traceio import SyntheticSpec, generate
from periocast.training import TrainConfig, evaluate, train


def test_every_traced_name_is_where_the_tracer_looks_it_up():
    targets = load_bench_module("tracer")._targets(periocast)
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_make_windows_matches_once_per_machine():
    series = generate(SyntheticSpec(length=200, period=12, amplitude=0.3, noise_std=0.02, seed=5))
    pcfg = PeriodicityConfig(distance="dtw", dtw_band=1)
    knowledge = build_knowledge(series, detect_period(series, pcfg))
    assert knowledge is not None
    tracer = load_bench_module("tracer").Tracer(periocast)
    tracer.install()
    try:
        split = make_windows(series, knowledge, WindowConfig(i=6, m=12, j=2), pcfg)
    finally:
        tracer.uninstall()
    assert len(split.train) + len(split.val) + len(split.test) == 200 - 12 - 2 + 1
    assert tracer.counts["periodicity.match_calls"] == 1
    assert tracer.counts["periodicity.dtw_calls"] == 1
    assert periocast.model.match is periocast.periodicity.match
    assert np.all(np.concatenate([w.y_period for w in split.train]) != -1.0)


def test_benchmark_serving_path_matches_the_library(tmp_path):
    cfg = WindowConfig(i=6, m=12, j=2, hidden=3, layers=1, ds_step=4, ds_window=8)
    pcfg = PeriodicityConfig()
    series = generate(SyntheticSpec(length=120, period=12, amplitude=0.3, noise_std=0.02, seed=5))
    split = make_windows(series, build_knowledge(series, detect_period(series, pcfg)), cfg, pcfg)
    store, _ = train(split.train, cfg, TrainConfig(epochs=1, batch_size=16, seed=0))
    ckpt = tmp_path / "served.ckpt"
    save_checkpoint(ckpt, store, {"model": cfg.to_meta(), "ablation": "full"})
    served, _, _ = load_checkpoint(ckpt)

    window = split.test[0]
    rows = np.zeros((2, cfg.m))
    rows[0], rows[1, : cfg.j] = window.x_long, window.y_period
    npy = tmp_path / "window.npy"
    np.save(npy, rows)
    proc = subprocess.run([sys.executable, str(BENCH / "coldstart.py"), str(ckpt), str(npy)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    answer = json.loads(proc.stdout.strip().splitlines()[-1])
    assert answer["y"] == forward(window, served, cfg).y.tolist()

    from_list = evaluate(served, list(split.test), cfg)
    from_set = evaluate(served, split.test, cfg)
    assert from_list.aggregate == from_set.aggregate
    assert from_list.per_machine == from_set.per_machine


def _bench_run(trace: int) -> dict:
    """One 1-second run of the smallest workload; its benchmark's own
    correctness checks pass and no operation fails."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "lax-dtw",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_benchmark_run_passes_its_checks():
    # the tape of a training batch has one node for the encoder, two per
    # decoder step and 9 more
    result = _bench_run(trace=1)
    window = load_bench_module("workloads").WINDOW
    nodes = 2 * window["j"] + 10
    assert result["metrics"]["neural.tape_nodes_per_batch"]["value"] == nodes


def test_untraced_benchmark_run_reports_the_end_to_end_metrics():
    # the run the benchmark gates on: cold start included, no tracer
    result = _bench_run(trace=0)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
