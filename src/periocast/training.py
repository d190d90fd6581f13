"""Training loop, evaluation reports and the ablation runner."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EmptySelection, EmptyTrainSet, NonFiniteLoss
from .loss import LossConfig, batch_loss
from .model import (
    Ablation,
    SampleWindow,
    WindowConfig,
    WindowSplit,
    build_params,
    forward_batch,
)
from .neural import ParamStore, Tape
from .rng import Prng
from .stats import MetricTriple, metrics


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 100
    learning_rate: float = 0.001
    optimizer: str = "adam"        # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    grad_clip: float | None = None  # global L2 norm; None = off
    patience: int = 10              # early-stop patience on validation MSE
    ablation: Ablation = Ablation.FULL
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")

    def effective_loss(self) -> LossConfig:
        return LossConfig("mse") if self.ablation.plain_mse else self.loss


class Adam:
    """Adam with bias-corrected first/second moments:

        m <- b1*m + (1-b1)*g         v <- b2*v + (1-b2)*g^2
        theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, store: ParamStore, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(store.n_params)
        self.v = np.zeros(store.n_params)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        self.store.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class Sgd:
    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr

    def step(self, grad: np.ndarray) -> None:
        self.store.values -= self.lr * grad


@dataclass
class TrainLog:
    """Per-epoch curves.  Validation heavy MSE is None for epochs where the
    validation split has no heavy points."""

    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float | None] = field(default_factory=list)
    val_heavy_mse: list[float | None] = field(default_factory=list)
    wall_time_s: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_mse", "val_heavy_mse", "wall_time_s"])
            for ep, (tl, vm, vh, wt) in enumerate(
                    zip(self.train_loss, self.val_mse, self.val_heavy_mse, self.wall_time_s)):
                writer.writerow([ep, repr(tl),
                                 "" if vm is None else repr(vm),
                                 "" if vh is None else repr(vh),
                                 f"{wt:.3f}"])


def _predict_all(windows: list[SampleWindow], store: ParamStore, cfg: WindowConfig,
                 ablation: Ablation, batch_size: int = 256):
    """Forward every window without recording.  Returns stacked arrays:
    (forecast, truth, heavy mask, fusion weights or None, decoded sequence)."""
    preds, truths, heavies, weights, y_hats = [], [], [], [], []
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo: lo + batch_size]
        bf = forward_batch(chunk, store, cfg, ablation, Tape(recording=False))
        preds.append(bf.y.data)
        truths.append(np.stack([w.target for w in chunk]))
        heavies.append(np.stack([w.heavy for w in chunk]))
        y_hats.append(bf.y_hat)
        if bf.fusion_weights is not None:
            weights.append(bf.fusion_weights)
    return (np.concatenate(preds), np.concatenate(truths), np.concatenate(heavies),
            np.concatenate(weights) if weights else None, np.concatenate(y_hats))


def _val_scores(windows, store, cfg, ablation):
    pred, truth, heavy, _, _ = _predict_all(windows, store, cfg, ablation)
    overall = metrics(pred, truth).mse
    try:
        heavy_mse = metrics(pred, truth, heavy).mse
    except EmptySelection:
        heavy_mse = None
    return overall, heavy_mse


def train(train_windows: list[SampleWindow], cfg: WindowConfig, tcfg: TrainConfig,
          val_windows: list[SampleWindow] | None = None) -> tuple[ParamStore, TrainLog]:
    """Mini-batch training with seeded shuffling.

    Batches are reshuffled every epoch from the run seed.  When a validation
    split is given, the parameters with the best validation MSE are returned
    and training stops after `patience` epochs without improvement;
    otherwise the final parameters are returned.
    """
    if not train_windows:
        raise EmptyTrainSet("no training windows")
    rng = Prng(tcfg.seed)
    store = build_params(cfg, tcfg.ablation, rng)
    if tcfg.optimizer == "adam":
        opt = Adam(store, tcfg.learning_rate, tcfg.beta1, tcfg.beta2, tcfg.eps)
    else:
        opt = Sgd(store, tcfg.learning_rate)
    loss_cfg = tcfg.effective_loss()

    log = TrainLog()
    best = store.copy()
    best_val = np.inf
    since_best = 0
    order = list(range(len(train_windows)))
    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        rng.shuffle(order)
        epoch_losses = []
        for lo in range(0, len(order), tcfg.batch_size):
            batch = [train_windows[k] for k in order[lo: lo + tcfg.batch_size]]
            store.zero_grad()
            bf = forward_batch(batch, store, cfg, tcfg.ablation)
            if not np.all(np.isfinite(bf.y.data)):
                raise NonFiniteLoss(f"non-finite forecast at epoch {epoch}")
            target = np.stack([w.target for w in batch])
            value, grad, _ = batch_loss(bf.y.data, target, loss_cfg)
            if not np.isfinite(value):
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch} (value={value!r})")
            bf.y.grad = grad
            bf.tape.backward()
            flat_grad = store.grad_flat()
            if tcfg.grad_clip is not None:
                norm = float(np.linalg.norm(flat_grad))
                if norm > tcfg.grad_clip:
                    flat_grad = flat_grad * (tcfg.grad_clip / norm)
            opt.step(flat_grad)
            epoch_losses.append(value)
        log.train_loss.append(float(np.mean(epoch_losses)))

        if val_windows:
            val_mse, val_heavy = _val_scores(val_windows, store, cfg, tcfg.ablation)
            log.val_mse.append(val_mse)
            log.val_heavy_mse.append(val_heavy)
            if val_mse < best_val:
                best_val = val_mse
                best = store.copy()
                log.best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
        else:
            log.val_mse.append(None)
            log.val_heavy_mse.append(None)
            best = store
            log.best_epoch = epoch
        log.wall_time_s.append(time.perf_counter() - t0)
        if val_windows and since_best >= tcfg.patience:
            log.stopped_early = True
            break
    return best, log


@dataclass(frozen=True)
class MachineReport:
    overall: MetricTriple
    heavy: MetricTriple | None  # None when the machine has no heavy points


@dataclass(frozen=True)
class EvalReport:
    per_machine: dict[str, MachineReport]
    aggregate: MachineReport
    mean_fusion_weight: float | None  # mean weight on the decoded sequence

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["machine_id", "slice", "mse", "mae", "mape"])
            def _rows(name: str, rep: MachineReport):
                writer.writerow([name, "overall", repr(rep.overall.mse),
                                 repr(rep.overall.mae), repr(rep.overall.mape)])
                if rep.heavy is not None:
                    writer.writerow([name, "heavy", repr(rep.heavy.mse),
                                     repr(rep.heavy.mae), repr(rep.heavy.mape)])
            for name in sorted(self.per_machine):
                _rows(name, self.per_machine[name])
            _rows("ALL", self.aggregate)


def evaluate(store: ParamStore, windows: list[SampleWindow], cfg: WindowConfig,
             ablation: Ablation = Ablation.FULL, batch_size: int = 256) -> EvalReport:
    """Per-machine and pooled error metrics over a window list.

    Points are pooled, so the aggregate equals a metric recomputation over
    the union of points (machines with more windows weigh more).  A machine
    (or the whole set) without heavy target points reports heavy = None.
    """
    if not windows:
        raise EmptySelection("no windows to evaluate")
    pred, truth, heavy, weights, _ = _predict_all(windows, store, cfg, ablation, batch_size)

    def _report(sel: np.ndarray) -> MachineReport:
        overall = metrics(pred[sel], truth[sel])
        try:
            heavy_m = metrics(pred[sel], truth[sel], heavy[sel])
        except EmptySelection:
            heavy_m = None
        return MachineReport(overall, heavy_m)

    machines = sorted({w.machine_id for w in windows})
    ids = np.array([w.machine_id for w in windows])
    per_machine = {mid: _report(ids == mid) for mid in machines}
    aggregate = _report(np.ones(len(windows), dtype=bool))
    mean_w = None if weights is None else float(weights[:, 0].mean())
    return EvalReport(per_machine, aggregate, mean_w)


@dataclass(frozen=True)
class AblationRun:
    ablation: Ablation
    seed: int
    report: EvalReport


@dataclass(frozen=True)
class AblationResult:
    runs: list[AblationRun]

    def metric(self, ablation: Ablation, seed: int, which: str = "heavy") -> float | None:
        for run in self.runs:
            if run.ablation is ablation and run.seed == seed:
                rep = run.report.aggregate
                part = rep.heavy if which == "heavy" else rep.overall
                return None if part is None else part.mse
        return None

    def improvement(self, ablation: Ablation, seed: int, which: str = "heavy") -> float | None:
        """Percent by which FULL beats the given variant on pooled MSE
        (positive = FULL better), (variant - full) / variant * 100."""
        full = self.metric(Ablation.FULL, seed, which)
        other = self.metric(ablation, seed, which)
        if full is None or other is None or other == 0.0:
            return None
        return (other - full) / other * 100.0

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ablation", "seed", "slice", "mse", "mae", "mape",
                             "improvement_pct_vs_full"])
            for run in self.runs:
                agg = run.report.aggregate
                for slice_name, part in (("overall", agg.overall), ("heavy", agg.heavy)):
                    if part is None:
                        continue
                    imp = self.improvement(run.ablation, run.seed, slice_name)
                    writer.writerow([run.ablation.value, run.seed, slice_name,
                                     repr(part.mse), repr(part.mae), repr(part.mape),
                                     "" if imp is None else f"{imp:.2f}"])


def run_ablation_suite(split: WindowSplit, cfg: WindowConfig, tcfg: TrainConfig,
                       seeds=(1, 2, 3)) -> AblationResult:
    """Train all four variants on identical windows for each seed and
    evaluate them on the test split."""
    if len(seeds) < 3:
        raise ValueError("the ablation suite needs at least 3 seeds")
    runs = []
    for seed in seeds:
        for ablation in Ablation:
            variant = replace(tcfg, seed=seed, ablation=ablation)
            store, _ = train(split.train, cfg, variant, split.val)
            report = evaluate(store, split.test, cfg, ablation)
            runs.append(AblationRun(ablation, seed, report))
    return AblationResult(runs)
