import inspect
import json
from dataclasses import fields

import pytest

from periocast.config import KEYS, RunConfig, key_help
from periocast.errors import ConfigError
from periocast.model import DEFAULT_SPLIT, Ablation, WindowConfig, make_windows
from periocast.periodicity import PeriodicityConfig, fit_threshold_gmm, fit_threshold_gmm_sweep
from periocast.training import TrainConfig, run_ablation_suite


def test_defaults_without_inputs():
    cfg = RunConfig.resolve()
    assert cfg["model.hidden"] == 80
    assert cfg["train.lr"] == 0.001
    assert cfg["period.threshold"] == 0.5
    assert cfg.explicit == set()


def test_resolve_from_file_and_overrides(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model.hidden": 16, "train.epochs": 5}))
    cfg = RunConfig.resolve(str(path), ["train.epochs=9", "train.lr=0.01"])
    assert cfg["model.hidden"] == 16
    assert cfg["train.epochs"] == 9      # override beats the file
    assert cfg["train.lr"] == 0.01
    assert cfg.explicit == {"model.hidden", "train.epochs", "train.lr"}


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model.width": 3}))
    with pytest.raises(ConfigError, match="model.width"):
        RunConfig.resolve(str(path))
    with pytest.raises(ConfigError, match="model.width"):
        RunConfig.resolve(None, ["model.width=3"])


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="train.epochs"):
        RunConfig.resolve(None, ["train.epochs=many"])


def test_override_needs_equals():
    with pytest.raises(ConfigError, match="key=value"):
        RunConfig.resolve(None, ["train.epochs"])


def test_missing_config_file():
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.resolve("/nonexistent/run.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        RunConfig.resolve(str(path))


def test_non_object_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.resolve(str(path))


def test_typed_accessors():
    cfg = RunConfig.resolve(None, [
        "model.i=6", "model.m=12", "model.hidden=4", "model.layers=1",
        "model.ds_step=4", "model.ds_window=8",
        "loss.mode=gamma:0.25", "train.ablation=mse_loss",
        "train.split=0.8,0.1,0.1",
    ])
    wcfg = cfg.window_config()
    assert (wcfg.i, wcfg.m, wcfg.hidden, wcfg.layers) == (6, 12, 4, 1)
    tcfg = cfg.train_config()
    assert tcfg.ablation is Ablation.MSE_LOSS
    assert tcfg.loss.mode == "gamma" and tcfg.loss.gamma == 0.25
    assert cfg["train.split"] == (0.8, 0.1, 0.1)


def test_bad_model_config_becomes_config_error():
    cfg = RunConfig.resolve(None, ["model.j=1"])
    with pytest.raises(ConfigError, match="model config"):
        cfg.window_config()


def test_negative_dtw_band_becomes_config_error():
    cfg = RunConfig.resolve(None, ["period.distance=dtw", "period.dtw_band=-1"])
    with pytest.raises(ConfigError, match="dtw_band"):
        cfg.periodicity_config()
    assert RunConfig.resolve(None, ["period.dtw_band=0"]).periodicity_config().dtw_band == 0


def test_bad_split_fractions():
    with pytest.raises(ConfigError):
        RunConfig.resolve(None, ["train.split=0.5,0.5,0.5"])
    with pytest.raises(ConfigError):
        RunConfig.resolve(None, ["train.split=0.5,0.5"])


def test_optional_keys_accept_none_and_values():
    cfg = RunConfig.resolve(None, ["period.k_max=40", "train.grad_clip=5.0"])
    assert cfg["period.k_max"] == 40
    assert cfg["train.grad_clip"] == 5.0
    base = RunConfig.resolve()
    assert base["period.k_max"] is None
    assert base["train.grad_clip"] is None


def test_bool_parsing():
    for text, expect in (("true", True), ("1", True), ("yes", True),
                         ("false", False), ("0", False), ("no", False)):
        cfg = RunConfig.resolve(None, [f"io.allow_gaps={text}"])
        assert cfg["io.allow_gaps"] is expect
    with pytest.raises(ConfigError):
        RunConfig.resolve(None, ["io.allow_gaps=maybe"])


def test_schema_accessor_with_tick_override():
    cfg = RunConfig.resolve(None, ["io.schema=alibaba2018", "io.tick=5.0"])
    schema = cfg.schema()
    assert schema.value_col == "cpu_util_percent"
    assert schema.tick == 5.0


def test_unknown_schema_rejected():
    with pytest.raises(ConfigError):
        RunConfig.resolve(None, ["io.schema=unheard_of"])


def test_ablation_seeds_list():
    cfg = RunConfig.resolve(None, ["train.ablation_seeds=4,5,6,7"])
    assert cfg["train.ablation_seeds"] == (4, 5, 6, 7)


def test_write_round_trips_values(tmp_path):
    cfg = RunConfig.resolve(None, ["model.hidden=8"])
    path = tmp_path / "resolved.json"
    cfg.write(path, {"command": "train"})
    back = json.loads(path.read_text())
    assert back["model.hidden"] == 8
    assert back["command"] == "train"
    assert back["train.split"] == [0.7, 0.1, 0.2]
    # every registered key is present in the resolved dump
    assert set(KEYS).issubset(back)


def test_key_help_mentions_every_key():
    text = key_help()
    for key in KEYS:
        assert key in text


def _names(prefix):
    return {key.split(".", 1)[1] for key in KEYS if key.startswith(prefix + ".")}


def test_model_and_period_keys_are_the_dataclass_fields():
    assert _names("model") == {f.name for f in fields(WindowConfig)}
    assert _names("period") == {f.name for f in fields(PeriodicityConfig)} | {"gmm_components"}


def test_key_defaults_are_the_dataclass_defaults():
    for prefix, cls in (("model", WindowConfig), ("period", PeriodicityConfig)):
        for f in fields(cls):
            assert KEYS[f"{prefix}.{f.name}"][1] == getattr(cls(), f.name), f.name
    base = RunConfig.resolve()
    assert base.window_config() == WindowConfig()
    assert base.periodicity_config() == PeriodicityConfig()
    assert base.train_config() == TrainConfig()  # every train.* field and loss.mode
    # train.split is make_windows' default; the GMM size and the ablation
    # seeds have no library default to drift from their keys
    split_default = inspect.signature(make_windows).parameters["split"].default
    assert KEYS["train.split"][1] == split_default == DEFAULT_SPLIT
    for fn, arg in ((fit_threshold_gmm, "n_components"), (fit_threshold_gmm_sweep, "n_components"),
                    (run_ablation_suite, "seeds")):
        assert inspect.signature(fn).parameters[arg].default is inspect.Parameter.empty, fn.__name__


@pytest.mark.parametrize("key, value", [
    ("model.i", 24.9), ("model.i", True), ("period.k_max", 7.5), ("train.epochs", False),
    ("train.ablation_seeds", [1.5, 2, 3]), ("period.threshold", True), ("train.lr", False),
    ("train.split", [True, 0, 0]),
])
def test_json_values_are_not_truncated(tmp_path, key, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=key):
        RunConfig.resolve(str(path))


def test_json_integral_numbers_are_ints(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model.i": 24.0, "period.threshold": 1, "train.ablation_seeds": [4, 5, 6]}))
    cfg = RunConfig.resolve(str(path))
    assert cfg["model.i"] == 24 and type(cfg["model.i"]) is int
    assert cfg["period.threshold"] == 1.0 and type(cfg["period.threshold"]) is float
    assert cfg["train.ablation_seeds"] == (4, 5, 6)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_gmm_components_must_be_positive(value):
    with pytest.raises(ConfigError, match="period.gmm_components"):
        RunConfig.resolve(None, [f"period.gmm_components={value}"])
