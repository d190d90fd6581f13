"""Command line interface.

Subcommands: generate, detect-period, train, predict, evaluate, ablate.
Every command takes --config FILE (flat JSON) plus repeated --set key=value
overrides, and writes its resolved configuration next to its outputs.

Exit codes: 0 success, 1 configuration problems, 2 unreadable or malformed
input files, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .config import RunConfig, key_help
from .errors import (
    CheckpointError,
    ConfigError,
    EmptyTrainSet,
    NumericError,
    PeriocastError,
    SeriesTooShort,
    TraceIOError,
    ZeroVariance,
)
from .model import Ablation, WindowConfig, make_windows, merge_splits
from .periodicity import (
    PeriodicityConfig,
    build_knowledge,
    detect_period,
    fit_threshold_gmm_sweep,
)
from .traceio import SyntheticSpec, WorkloadSeries, generate, load_csv, normalize, save_csv, SCHEMAS, RawTrace
from .training import TrainConfig, _predict_all, evaluate, run_ablation_suite, train


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _common_flags(sub):
    sub.add_argument("--config", help="JSON file of flat config keys")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override one config key")


def _load_series(cfg: RunConfig, data: str) -> list[WorkloadSeries]:
    schema = cfg.schema()
    traces = load_csv(data, schema, allow_gaps=cfg["io.allow_gaps"])
    return [normalize(t, tick=schema.tick) for t in traces]


def _train_slice(series: WorkloadSeries, split) -> WorkloadSeries:
    n = int(split[0] * len(series))
    return WorkloadSeries(series.machine_id, series.values[:n], series.scale, series.tick)


def _build_windows(series_list, cfg: RunConfig, wcfg: WindowConfig,
                   pcfg: PeriodicityConfig, split):
    """Detect periods on each machine's training slice, then cut windows.

    Machines that are too short or constant are skipped with a warning so a
    single dead trace does not abort a fleet run.
    """
    splits = []
    reports = {}
    for series in series_list:
        try:
            report = detect_period(_train_slice(series, split), pcfg)
            knowledge = build_knowledge(_train_slice(series, split), report)
        except (ZeroVariance, SeriesTooShort) as exc:
            print(f"warning: {series.machine_id}: {exc}; treating as aperiodic", file=sys.stderr)
            report, knowledge = None, None
        reports[series.machine_id] = report
        try:
            splits.append(make_windows(series, knowledge, wcfg, pcfg, split))
        except SeriesTooShort as exc:
            print(f"warning: skipping {series.machine_id}: {exc}", file=sys.stderr)
    if not splits:
        raise EmptyTrainSet(f"no machine is long enough for m + j = {wcfg.m + wcfg.j} ticks")
    return merge_splits(splits), reports


def _pick_split(split_set, name: str):
    if name == "all":
        return split_set.train + split_set.val + split_set.test
    windows = getattr(split_set, name)
    if not windows:
        raise ConfigError(f"the {name!r} split is empty for this data")
    return windows


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    traces = []
    for k in range(args.machines):
        spec = SyntheticSpec(
            length=args.length,
            period=args.period if args.period > 0 else None,
            amplitude=args.amplitude,
            noise_std=args.noise_std,
            burst_rate=args.burst_rate,
            burst_height=args.burst_height,
            trend_slope=args.trend_slope,
            seed=args.seed + k,
        )
        series = generate(spec)
        traces.append(RawTrace(f"synth-{k:03d}", np.arange(args.length, dtype=np.int64),
                               series.values))
    save_csv(traces, out, SCHEMAS["generic"])
    sidecar = out.with_name(out.stem + ".config.json")
    recorded = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    sidecar.write_text(json.dumps(recorded | {"command": "generate"},
                                  indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.machines} machines x {args.length} ticks to {out}")
    return 0


def cmd_detect_period(args) -> int:
    cfg = RunConfig.resolve(args.config, args.overrides)
    pcfg = cfg.periodicity_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series_list = _load_series(cfg, args.data)

    rows = []
    peaks = []
    for series in series_list:
        try:
            report = detect_period(series, pcfg)
        except ZeroVariance:
            rows.append([series.machine_id, "zero_variance", "", "", ""])
            continue
        except SeriesTooShort:
            rows.append([series.machine_id, "too_short", "", "", ""])
            continue
        if report.first_peak_value is not None:
            peaks.append(report.first_peak_value)
        if report.is_periodic:
            rows.append([series.machine_id, "periodic", report.period,
                         repr(report.first_peak_value), repr(float(report.acf.rho[report.period]))])
        else:
            rows.append([series.machine_id, "aperiodic", "",
                         "" if report.first_peak_value is None else repr(report.first_peak_value), ""])

    with open(out / "periods.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["machine_id", "verdict", "k", "first_peak", "rho_k"])
        writer.writerows(rows)
    for row in rows:
        print(f"{row[0]}: {row[1]}" + (f" (k={row[2]})" if row[1] == "periodic" else ""))

    if args.auto_threshold:
        if len(peaks) >= 10:
            fit = fit_threshold_gmm_sweep(peaks, cfg["period.gmm_components"])
            lines = []
            for c in range(len(fit.means)):
                lines.append(f"component_{c} = weight {fit.weights[c]:.4f}, "
                             f"mean {fit.means[c]:.4f}, std {fit.stds[c]:.4f}")
            lines.append(f"chosen_cluster = {fit.chosen_cluster}")
            lines.append(f"derived_threshold = {fit.derived_threshold!r}")
            lines.append(f"search_range = {fit.search_range[0]!r} .. {fit.search_range[1]!r}")
            (out / "threshold.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"derived threshold {fit.derived_threshold:.4f} "
                  f"(search range {fit.search_range[0]:.4f} .. {fit.search_range[1]:.4f})")
        else:
            print(f"warning: --auto-threshold needs >= 10 machines with a first peak, "
                  f"got {len(peaks)}; skipping", file=sys.stderr)
    cfg.write(out / "config.json", {"command": "detect-period", "data": str(args.data)})
    return 0


def _checkpoint_meta(cfg: RunConfig, wcfg: WindowConfig, tcfg: TrainConfig, best_epoch: int) -> dict:
    return {
        "model": wcfg.to_meta(),
        "ablation": tcfg.ablation.value,
        "loss_mode": tcfg.effective_loss().describe(),
        "seed": tcfg.seed,
        "split": list(cfg["train.split"]),
        "period": {
            "threshold": cfg["period.threshold"],
            "k_min": cfg["period.k_min"],
            "k_max": cfg["period.k_max"],
            "distance": cfg["period.distance"],
            "dtw_band": cfg["period.dtw_band"],
        },
        "io": {"schema": cfg["io.schema"], "tick": cfg["io.tick"],
               "allow_gaps": cfg["io.allow_gaps"]},
        "best_epoch": best_epoch,
    }


def cmd_train(args) -> int:
    cfg = RunConfig.resolve(args.config, args.overrides)
    wcfg = cfg.window_config()
    pcfg = cfg.periodicity_config()
    tcfg = cfg.train_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    series_list = _load_series(cfg, args.data)
    try:
        split_set, _ = _build_windows(series_list, cfg, wcfg, pcfg, cfg["train.split"])
        store, log = train(split_set.train, wcfg, tcfg, split_set.val)
    except EmptyTrainSet as exc:
        raise ConfigError(str(exc)) from exc

    meta = _checkpoint_meta(cfg, wcfg, tcfg, log.best_epoch)
    ckpt_path = out / f"epoch-{log.best_epoch}.ckpt"
    checksum = ckpt.save_checkpoint(ckpt_path, store, meta)
    log.write_csv(out / "trainlog.csv")
    cfg.write(out / "config.json", {"command": "train", "data": str(args.data),
                                    "checkpoint": ckpt_path.name})
    best_val = log.val_mse[log.best_epoch] if log.val_mse and log.best_epoch >= 0 else None
    print(f"trained {tcfg.ablation.value} for {len(log.train_loss)} epochs "
          f"({len(split_set.train)} train / {len(split_set.val)} val windows)")
    if best_val is not None:
        print(f"best epoch {log.best_epoch} val mse {best_val:.6f}")
    print(f"checkpoint {ckpt_path} sha256 {checksum}")
    return 0


def _load_model(cfg: RunConfig, checkpoint_path: str):
    store, meta, checksum = ckpt.load_checkpoint(checkpoint_path)
    wcfg, stored, ablation = _checkpoint_settings(meta, checkpoint_path)
    for key, value in (("model.i", wcfg.i), ("model.m", wcfg.m), ("model.j", wcfg.j),
                       ("model.hidden", wcfg.hidden), ("model.layers", wcfg.layers),
                       ("model.ds_step", wcfg.ds_step), ("model.ds_window", wcfg.ds_window)):
        if key in cfg.explicit and cfg[key] != value:
            raise ConfigError(
                f"checkpoint was trained with {key}={value}, config asks for {cfg[key]}")
    # The stored period/split settings win so windows are cut the same way.
    cfg.values.update(stored)
    return store, meta, checksum, wcfg, ablation


_META_PERIOD_KEYS = ("threshold", "k_min", "k_max", "distance", "dtw_band")


def _checkpoint_settings(meta, path) -> tuple[WindowConfig, dict, Ablation]:
    """The model shape, the period and split config values and the ablation
    recorded in a checkpoint's meta.  A missing or invalid entry raises
    CheckpointError: the file is intact but was not written by `train`."""
    missing = [key for key in ("model", "period", "split", "ablation")
               if not isinstance(meta, dict) or key not in meta]
    if missing:
        raise CheckpointError(f"{path}: meta lacks {', '.join(missing)}")
    try:
        wcfg = WindowConfig.from_meta(meta["model"])
        per = meta["period"]
        stored = {f"period.{key}": RunConfig._parse(f"period.{key}", per[key])
                  for key in _META_PERIOD_KEYS}
        stored["train.split"] = RunConfig._parse("train.split", meta["split"])
        PeriodicityConfig(**{key: stored[f"period.{key}"] for key in _META_PERIOD_KEYS})
        ablation = Ablation(meta["ablation"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad meta: {exc}") from exc
    return wcfg, stored, ablation


def cmd_predict(args) -> int:
    cfg = RunConfig.resolve(args.config, args.overrides)
    store, _, _, wcfg, ablation = _load_model(cfg, args.checkpoint)
    pcfg = cfg.periodicity_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series_list = _load_series(cfg, args.data)
    try:
        split_set, _ = _build_windows(series_list, cfg, wcfg, pcfg, cfg["train.split"])
    except EmptyTrainSet as exc:
        raise ConfigError(f"model.m+model.j: {exc}") from exc
    windows = _pick_split(split_set, args.split)

    pred, _, _, wts, yhat = _predict_all(windows, store, wcfg, ablation)

    with open(out / "predictions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["machine_id", "window_start", "step", "y"]
        if args.explain:
            header += ["y_hat", "weight_decoded", "weight_period"]
        writer.writerow(header)
        for idx, w in enumerate(windows):
            for step in range(wcfg.j):
                row = [w.machine_id, w.start, step, repr(float(pred[idx, step]))]
                if args.explain:
                    w0 = wts[idx, 0] if wts is not None else 1.0
                    w1 = wts[idx, 1] if wts is not None else 0.0
                    row += [repr(float(yhat[idx, step])), repr(float(w0)), repr(float(w1))]
                writer.writerow(row)
    cfg.write(out / "config.json", {"command": "predict", "data": str(args.data),
                                    "checkpoint": str(args.checkpoint), "split": args.split})
    print(f"wrote {len(windows) * wcfg.j} predicted points for {len(windows)} windows")
    return 0


def cmd_evaluate(args) -> int:
    cfg = RunConfig.resolve(args.config, args.overrides)
    store, _, _, wcfg, ablation = _load_model(cfg, args.checkpoint)
    pcfg = cfg.periodicity_config()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series_list = _load_series(cfg, args.data)
    try:
        split_set, _ = _build_windows(series_list, cfg, wcfg, pcfg, cfg["train.split"])
    except EmptyTrainSet as exc:
        raise ConfigError(f"model.m+model.j: {exc}") from exc
    windows = _pick_split(split_set, args.split)
    report = evaluate(store, windows, wcfg, ablation)
    report.write_csv(out / "eval.csv")
    cfg.write(out / "config.json", {"command": "evaluate", "data": str(args.data),
                                    "checkpoint": str(args.checkpoint), "split": args.split})
    agg = report.aggregate
    print(f"overall mse {agg.overall.mse:.6f} mae {agg.overall.mae:.6f} "
          f"mape {agg.overall.mape:.4f} ({agg.overall.n} points)")
    if agg.heavy is not None:
        print(f"heavy   mse {agg.heavy.mse:.6f} mae {agg.heavy.mae:.6f} "
              f"mape {agg.heavy.mape:.4f} ({agg.heavy.n} points)")
    else:
        print("heavy   no heavy points in this split")
    return 0


def cmd_ablate(args) -> int:
    cfg = RunConfig.resolve(args.config, args.overrides)
    if args.seeds:
        cfg.values["train.ablation_seeds"] = RunConfig._parse("train.ablation_seeds", args.seeds)
        cfg.explicit.add("train.ablation_seeds")
    wcfg = cfg.window_config()
    pcfg = cfg.periodicity_config()
    tcfg = cfg.train_config()
    seeds = cfg["train.ablation_seeds"]
    if len(seeds) < 3:
        raise ConfigError("the ablation suite needs at least 3 seeds")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series_list = _load_series(cfg, args.data)
    try:
        split_set, _ = _build_windows(series_list, cfg, wcfg, pcfg, cfg["train.split"])
        result = run_ablation_suite(split_set, wcfg, tcfg, seeds)
    except EmptyTrainSet as exc:
        raise ConfigError(str(exc)) from exc
    result.write_csv(out / "ablation.csv")
    cfg.write(out / "config.json", {"command": "ablate", "data": str(args.data)})
    for ablation in (Ablation.NO_PERIOD, Ablation.MSE_LOSS, Ablation.NEITHER):
        for which in ("overall", "heavy"):
            imps = [result.improvement(ablation, s, which) for s in seeds]
            shown = ["n/a" if v is None else f"{v:+.1f}%" for v in imps]
            print(f"full vs {ablation.value:<10} {which:<8} {' '.join(shown)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="periocast",
                     description="Periodicity-aware workload forecasting for cluster traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic trace CSV",
                       description="Write a synthetic multi-machine trace CSV (generic schema).")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--machines", type=int, default=6)
    p.add_argument("--length", type=int, default=480)
    p.add_argument("--period", type=int, default=24, help="0 = aperiodic")
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--burst-rate", type=float, default=0.0)
    p.add_argument("--burst-height", type=float, default=0.0)
    p.add_argument("--trend-slope", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("detect-period", help="per-machine periodicity verdicts",
                       epilog=key_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--auto-threshold", action="store_true",
                   help="fit a mixture to the first ACF peaks and derive the threshold")
    _common_flags(p)
    p.set_defaults(func=cmd_detect_period)

    p = sub.add_parser("train", help="train one forecaster over all machines",
                       epilog=key_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-window forecasts",
                       epilog=key_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    p.add_argument("--explain", action="store_true",
                   help="include the decoded sequence and fusing weights")
    _common_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="error metrics on a split",
                       epilog=key_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test", "all"])
    _common_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and compare all four variants",
                       epilog=key_help(), formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", help="comma-separated seeds (default 1,2,3)")
    _common_flags(p)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TraceIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PeriocastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
