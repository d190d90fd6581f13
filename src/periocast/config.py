"""Flat key-value run configuration.

Keys are namespaced by module (io.*, period.*, model.*, loss.*, train.*).
A run is configured from built-in defaults, then an optional JSON file of
flat keys, then repeated --set key=value overrides.  Unknown keys are
rejected.  Every command writes the fully resolved configuration next to
its outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, replace
from pathlib import Path

from .errors import ConfigError
from .loss import LossConfig
from .model import DEFAULT_SPLIT, Ablation, WindowConfig
from .periodicity import PeriodicityConfig
from .traceio import SCHEMAS
from .training import TrainConfig


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int(value) -> int:
    """`int`, without truncating a JSON number or taking a boolean for one."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def _positive_float(value) -> float:
    value = _float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"must be a finite number > 0, got {value}")
    return value


def _positive_int(value) -> int:
    value = _int(value)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _opt(parser):
    def inner(text):
        if text is None or str(text).strip().lower() in ("", "none", "null"):
            return None
        return parser(text)
    return inner


def _split_fractions(text) -> tuple[float, float, float]:
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    parts = [_float(p) for p in parts]
    if len(parts) != 3:
        raise ValueError("split needs three comma-separated fractions")
    if any(p < 0.0 for p in parts) or abs(sum(parts) - 1.0) > 1e-9:
        raise ValueError("split fractions must be nonnegative and sum to 1")
    return tuple(parts)


def _int_list(text) -> tuple[int, ...]:
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    return tuple(_int(p) for p in parts)


def _loss_mode(text: str) -> str:
    LossConfig.from_string(str(text))  # validate eagerly
    return str(text).strip()


def _ablation(text: str) -> str:
    Ablation(str(text).strip())
    return str(text).strip()


def _schema_name(text: str) -> str:
    name = str(text).strip()
    if name not in SCHEMAS:
        raise ValueError(f"unknown schema {name!r}; choose from {sorted(SCHEMAS)}")
    return name


_MODEL, _PERIOD, _TRAIN = WindowConfig(), PeriodicityConfig(), TrainConfig()

# key -> (parser, default, help).  A model.* or period.* key names a field of
# WindowConfig or PeriodicityConfig; defaults are read from the dataclasses.
KEYS: dict[str, tuple] = {
    "io.schema": (_schema_name, "generic", "CSV column preset (generic/alibaba2018/dinda/smd)"),
    "io.tick": (_opt(_positive_float), None, "sampling interval seconds; default from the schema preset"),
    "io.allow_gaps": (_bool, False, "forward-fill timestamp gaps instead of rejecting them"),
    "period.threshold": (_float, _PERIOD.threshold, "ACF peak threshold for the periodic verdict"),
    "period.k_min": (_int, _PERIOD.k_min, "smallest candidate period"),
    "period.k_max": (_opt(_int), _PERIOD.k_max, "largest candidate period; default half the series"),
    "period.distance": (str, _PERIOD.distance, "template matching distance: mse or dtw"),
    "period.dtw_band": (_opt(_int), _PERIOD.dtw_band, "Sakoe-Chiba band for dtw matching"),
    "period.gmm_components": (_positive_int, 3, "mixture components for threshold fitting"),
    "model.i": (_int, _MODEL.i, "recent window length fed to the encoder"),
    "model.m": (_int, _MODEL.m, "long-context window length"),
    "model.j": (_int, _MODEL.j, "forecast horizon"),
    "model.hidden": (_int, _MODEL.hidden, "recurrent hidden size"),
    "model.layers": (_int, _MODEL.layers, "encoder depth"),
    "model.ds_step": (_int, _MODEL.ds_step, "long-context downsampling stride"),
    "model.ds_window": (_int, _MODEL.ds_window, "trailing slice of the long context kept for downsampling"),
    "loss.mode": (_loss_mode, LossConfig().describe(), "limit, mse, or gamma:<float>"),
    "train.epochs": (_int, _TRAIN.epochs, "training epochs"),
    "train.batch_size": (_int, _TRAIN.batch_size, "windows per optimizer step"),
    "train.lr": (_float, _TRAIN.learning_rate, "learning rate"),
    "train.optimizer": (str, _TRAIN.optimizer, "adam or sgd"),
    "train.seed": (_int, _TRAIN.seed, "seed for init and shuffling"),
    "train.grad_clip": (_opt(_float), _TRAIN.grad_clip, "global gradient-norm clip; unset = off"),
    "train.patience": (_int, _TRAIN.patience, "early-stop patience on validation MSE"),
    "train.ablation": (_ablation, _TRAIN.ablation.value, "full, no_period, mse_loss or neither"),
    "train.split": (_split_fractions, DEFAULT_SPLIT, "chronological train/val/test fractions"),
    "train.ablation_seeds": (_int_list, (1, 2, 3), "seeds for the ablate command"),
}


class RunConfig:
    """Resolved flat configuration with typed accessors."""

    def __init__(self, values: dict, explicit: set[str] | None = None):
        self.values = values
        self.explicit = explicit if explicit is not None else set()

    @classmethod
    def resolve(cls, config_path: str | None = None, overrides: list[str] | None = None) -> "RunConfig":
        values = {key: default for key, (_, default, _) in KEYS.items()}
        explicit: set[str] = set()
        if config_path:
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object of key: value pairs")
            for key, value in raw.items():
                values[key] = cls._parse(key, value)
                explicit.add(key)
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            key, _, value = item.partition("=")
            values[key.strip()] = cls._parse(key.strip(), value)
            explicit.add(key.strip())
        return cls(values, explicit)

    @staticmethod
    def _parse(key: str, value):
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        parser = KEYS[key][0]
        try:
            return parser(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    def __getitem__(self, key: str):
        return self.values[key]

    def window_config(self) -> WindowConfig:
        return self._dataclass("model", WindowConfig)

    def periodicity_config(self) -> PeriodicityConfig:
        return self._dataclass("period", PeriodicityConfig)

    def _dataclass(self, prefix: str, cls):
        """`cls` built from the `{prefix}.{field}` value of each of its fields."""
        try:
            return cls(**{f.name: self[f"{prefix}.{f.name}"] for f in fields(cls)})
        except ValueError as exc:
            raise ConfigError(f"bad {prefix} config: {exc}") from exc

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                epochs=self["train.epochs"], batch_size=self["train.batch_size"],
                learning_rate=self["train.lr"], optimizer=self["train.optimizer"],
                seed=self["train.seed"], grad_clip=self["train.grad_clip"],
                patience=self["train.patience"],
                ablation=Ablation(self["train.ablation"]),
                loss=LossConfig.from_string(self["loss.mode"]),
            )
        except ValueError as exc:
            raise ConfigError(f"bad train config: {exc}") from exc

    def schema(self):
        schema = SCHEMAS[self["io.schema"]]
        if self["io.tick"] is not None:
            schema = replace(schema, tick=self["io.tick"])
        return schema

    def write(self, path: str | Path, extra: dict | None = None) -> None:
        """Serialise the resolved configuration (plus run metadata extras);
        tuples become JSON lists."""
        out = {**self.values, **(extra or {})}
        Path(path).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def key_help() -> str:
    """One line per recognised config key, for --help epilogs."""
    lines = ["config keys (defaults in brackets):"]
    for key in sorted(KEYS):
        _, default, text = KEYS[key]
        lines.append(f"  {key:<24} {text} [{default}]")
    return "\n".join(lines)
