import argparse
import csv
import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from helpers import save_csv_rowwise
from periocast.cli import build_parser, main
from periocast.config import key_help
from periocast.checkpoint import load_checkpoint, save_checkpoint
from periocast.traceio import SCHEMAS, RawTrace, SyntheticSpec, generate, load_csv, save_csv

TINY_MODEL = [
    "--set", "model.i=6", "--set", "model.m=12", "--set", "model.j=2",
    "--set", "model.hidden=3", "--set", "model.layers=1",
    "--set", "model.ds_step=4", "--set", "model.ds_window=8",
]
TINY_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch_size=32",
              "--set", "train.lr=0.01"]


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "traces.csv"
    rc = main(["generate", "--out", str(path), "--machines", "2",
               "--length", "60", "--period", "12", "--amplitude", "0.3",
               "--noise-std", "0.03", "--seed", "5"])
    assert rc == 0
    return path


def _train(tmp_path, data_csv, extra=()):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_csv), "--out", str(out),
               *TINY_MODEL, *TINY_TRAIN, *extra])
    assert rc == 0
    ckpts = sorted(out.glob("*.ckpt"))
    assert len(ckpts) == 1
    return out, ckpts[0]


# --- generate -------------------------------------------------------------------

def test_generate_writes_loadable_csv(data_csv):
    traces = load_csv(data_csv, SCHEMAS["generic"])
    assert [t.machine_id for t in traces] == ["synth-000", "synth-001"]
    assert all(len(t) == 60 for t in traces)
    sidecar = data_csv.with_name(data_csv.stem + ".config.json")
    recorded = json.loads(sidecar.read_text())
    assert recorded["command"] == "generate"
    assert recorded["machines"] == 2
    assert recorded["seed"] == 5


def test_generate_bytes_match_rowwise_writer(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["generate", "--out", str(out), "--machines", "3", "--length", "50",
                 "--period", "10", "--amplitude", "0.3", "--noise-std", "0.05",
                 "--burst-rate", "0.05", "--burst-height", "0.4", "--seed", "11"]) == 0
    recipe = SyntheticSpec(length=50, period=10, amplitude=0.3, noise_std=0.05,
                           burst_rate=0.05, burst_height=0.4)
    traces = [RawTrace(f"synth-{k:03d}", np.arange(50),
                       generate(dataclasses.replace(recipe, seed=11 + k)).values)
              for k in range(3)]
    save_csv_rowwise(traces, tmp_path / "ref.csv", SCHEMAS["generic"])
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["--machines", "2", "--length", "40", "--period", "0", "--seed", "3"]
    assert main(["generate", "--out", str(a), *args]) == 0
    assert main(["generate", "--out", str(b), *args]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- detect-period ----------------------------------------------------------------

@pytest.mark.parametrize("flags, message", [
    (["--length", "0"], "length must be >= 1"),
    (["--period", "1"], "period must be >= 2"),
    (["--burst-rate", "2"], "burst_rate must lie in [0, 1]"),
    (["--machines", "-1"], "--machines must be >= 1"),
    (["--machines", "0"], "--machines must be >= 1"),
], ids=["length-0", "period-1", "burst-rate-2", "machines-minus-1", "machines-0"])
def test_generate_bad_recipe_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "gen" / "traces.csv"
    rc = main(["generate", "--out", str(out), *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "wrote" not in captured.out
    assert not out.parent.exists()


def test_detect_period_verdicts(tmp_path, data_csv, capsys):
    out = tmp_path / "detect"
    rc = main(["detect-period", "--data", str(data_csv), "--out", str(out)])
    assert rc == 0
    with open(out / "periods.csv", newline="") as fh:
        rows = {r["machine_id"]: r for r in csv.DictReader(fh)}
    assert set(rows) == {"synth-000", "synth-001"}
    for row in rows.values():
        assert row["verdict"] == "periodic"
        assert int(row["k"]) == 12
        assert float(row["rho_k"]) > 0.5
    assert (out / "config.json").exists()
    assert "periodic (k=12)" in capsys.readouterr().out


def test_detect_period_auto_threshold_needs_ten(tmp_path, data_csv, capsys):
    out = tmp_path / "detect"
    rc = main(["detect-period", "--data", str(data_csv), "--out", str(out),
               "--auto-threshold"])
    assert rc == 0
    assert not (out / "threshold.txt").exists()
    assert "needs >= 10" in capsys.readouterr().err


def test_detect_period_auto_threshold_fits(tmp_path, capsys):
    data = _fleet_csv(tmp_path)
    out = tmp_path / "detect"
    rc = main(["detect-period", "--data", str(data), "--out", str(out),
               "--auto-threshold", "--set", "period.gmm_components=1"])
    assert rc == 0
    text = (out / "threshold.txt").read_text()
    assert "derived_threshold" in text
    assert "derived threshold" in capsys.readouterr().out


def _fleet_csv(tmp_path, machines=12, identical=False):
    data = tmp_path / "fleet.csv"
    if identical:  # every machine carries the same series, so every first peak is equal
        series = generate(SyntheticSpec(length=120, period=12, amplitude=0.25, noise_std=0.05, seed=2))
        save_csv([RawTrace(f"m{k:02d}", np.arange(120, dtype=np.int64), series.values)
                  for k in range(machines)], data, SCHEMAS["generic"])
    else:
        assert main(["generate", "--out", str(data), "--machines", str(machines),
                     "--length", "120", "--period", "12", "--amplitude", "0.25",
                     "--noise-std", "0.05", "--seed", "2"]) == 0
    return data


@pytest.mark.parametrize("components", ["0", "-1"])
def test_detect_period_auto_threshold_bad_components_exits_1(tmp_path, capsys, components):
    data = _fleet_csv(tmp_path)
    capsys.readouterr()
    rc = main(["detect-period", "--data", str(data), "--out", str(tmp_path / "detect"),
               "--auto-threshold", "--set", f"period.gmm_components={components}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "period.gmm_components" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("components, identical", [("20", False), ("3", True)],
                         ids=["more-components-than-machines", "fewer-distinct-peaks"])
def test_detect_period_auto_threshold_too_few_peaks_warns(tmp_path, capsys, components, identical):
    data = _fleet_csv(tmp_path, identical=identical)
    out = tmp_path / "detect"
    rc = main(["detect-period", "--data", str(data), "--out", str(out),
               "--auto-threshold", "--set", f"period.gmm_components={components}"])
    assert rc == 0
    assert not (out / "threshold.txt").exists()
    assert "needs >= 10" in capsys.readouterr().err


# --- train -----------------------------------------------------------------------

def test_train_outputs(tmp_path, data_csv, capsys):
    out, ckpt_path = _train(tmp_path, data_csv)
    stdout = capsys.readouterr().out
    assert "checkpoint" in stdout and "sha256" in stdout
    assert (out / "trainlog.csv").exists()
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["model.hidden"] == 3
    assert resolved["command"] == "train"
    assert resolved["checkpoint"] == ckpt_path.name
    _, meta, _ = load_checkpoint(ckpt_path)
    assert meta["model"]["hidden"] == 3
    assert meta["ablation"] == "full"
    assert meta["loss_mode"] == "limit"
    assert meta["best_epoch"] == int(ckpt_path.stem.split("-")[1])


def test_train_deterministic_checkpoints(tmp_path, data_csv):
    _, ckpt_a = _train(tmp_path / "a", data_csv)
    _, ckpt_b = _train(tmp_path / "b", data_csv)
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()


@pytest.mark.parametrize("command, setting, message", [
    pytest.param("train", "model.m=120", "no machine is long enough for m + j = 122 ticks", id="train-too-short"),
    pytest.param("ablate", "model.m=120", "no machine is long enough for m + j = 122 ticks", id="ablate-too-short"),
    pytest.param("predict", None, "no machine is long enough for m + j = 14 ticks", id="predict-too-short"),
    pytest.param("evaluate", None, "no machine is long enough for m + j = 14 ticks", id="evaluate-too-short"),
    pytest.param("train", "train.split=0.0,0.5,0.5", "no training windows", id="train-no-train-split"),
    pytest.param("ablate", "train.split=0.0,0.5,0.5", "no training windows", id="ablate-no-train-split"),
])
def test_train_too_short_data_is_config_error(tmp_path, data_csv, capsys, command, setting, message):
    if setting is None:
        # the checkpoint's model needs m + j = 14 ticks; serve it 13
        _, ckpt_path = _train(tmp_path, data_csv)
        short = tmp_path / "short.csv"
        assert main(["generate", "--out", str(short), "--machines", "2", "--length", "13",
                     "--period", "4", "--seed", "5"]) == 0
        argv = [command, "--checkpoint", str(ckpt_path), "--data", str(short)]
    else:
        argv = [command, "--data", str(data_csv), *TINY_MODEL, *TINY_TRAIN, "--set", setting]
    capsys.readouterr()
    rc = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and f"error: {message}" in err


@pytest.mark.parametrize("setting, field", [
    ("train.patience=0", "patience"), ("train.patience=-3", "patience"),
    ("train.lr=-0.01", "learning_rate"), ("train.lr=nan", "learning_rate"),
    ("train.grad_clip=inf", "grad_clip"),
    ("io.tick=nan", "io.tick"), ("io.tick=inf", "io.tick"), ("io.tick=0", "io.tick"), ("io.tick=-1", "io.tick"),
])
def test_bad_train_setting_exits_1(tmp_path, data_csv, capsys, setting, field):
    rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "run"),
               *TINY_MODEL, *TINY_TRAIN, "--set", setting])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and field in err
    assert not (tmp_path / "run").exists()


def test_detect_period_bad_tick_exits_1(tmp_path, data_csv, capsys):
    rc = main(["detect-period", "--data", str(data_csv), "--out", str(tmp_path / "run"), "--set", "io.tick=nan"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1 and "io.tick" in err
    assert not (tmp_path / "run").exists()


# --- predict ----------------------------------------------------------------------

def test_predict_rows(tmp_path, data_csv):
    _, ckpt_path = _train(tmp_path, data_csv)
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--split", "test", *TINY_MODEL])
    assert rc == 0
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 47 windows/machine split 32 train / 4 val / 11 test, j=2 steps each
    assert len(rows) == 2 * 11 * 2
    assert set(r["machine_id"] for r in rows) == {"synth-000", "synth-001"}
    assert all(np.isfinite(float(r["y"])) for r in rows)
    assert "y_hat" not in rows[0]


def test_predict_explain_columns(tmp_path, data_csv):
    _, ckpt_path = _train(tmp_path, data_csv)
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--explain"])
    assert rc == 0
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows[:4]:
        w0 = float(row["weight_decoded"])
        w1 = float(row["weight_period"])
        assert w0 + w1 == pytest.approx(1.0, abs=1e-9)
        assert np.isfinite(float(row["y_hat"]))


def test_predict_rejects_conflicting_model_override(tmp_path, data_csv, capsys):
    _, ckpt_path = _train(tmp_path, data_csv)
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--set", "model.hidden=64"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "model.hidden" in err and "64" in err


def test_predict_accepts_matching_model_override(tmp_path, data_csv):
    _, ckpt_path = _train(tmp_path, data_csv)
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--set", "model.hidden=3"])
    assert rc == 0


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_outputs(tmp_path, data_csv, capsys):
    _, ckpt_path = _train(tmp_path, data_csv)
    out = tmp_path / "eval"
    rc = main(["evaluate", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--split", "test"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "overall mse" in stdout
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["machine_id"] == "ALL" or rows[-2]["machine_id"] == "ALL"
    # config.json records the checkpoint's model (hidden=3), not the key default
    assert json.loads((out / "config.json").read_text())["model.hidden"] == 3


def test_evaluate_deterministic_bytes(tmp_path, data_csv):
    _, ckpt_path = _train(tmp_path, data_csv)
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["evaluate", "--checkpoint", str(ckpt_path),
                     "--data", str(data_csv), "--out", str(out)]) == 0
        outs.append((out / "eval.csv").read_bytes())
    assert outs[0] == outs[1]


# --- ablate -----------------------------------------------------------------------

def test_ablate_runs_all_variants(tmp_path, data_csv, capsys):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--data", str(data_csv), "--out", str(out),
               "--seeds", "1,2,3", *TINY_MODEL,
               "--set", "train.epochs=1", "--set", "train.batch_size=32",
               "--set", "train.lr=0.01"])
    assert rc == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["ablation"] for r in rows} == {"full", "no_period", "mse_loss", "neither"}
    assert {int(r["seed"]) for r in rows} == {1, 2, 3}
    stdout = capsys.readouterr().out
    assert "full vs no_period" in stdout


# --- failure modes ------------------------------------------------------------------

def test_ablate_needs_three_seeds(tmp_path, data_csv, capsys):
    rc = main(["ablate", "--data", str(data_csv), "--out", str(tmp_path / "ab"),
               "--seeds", "1,2", *TINY_MODEL])
    assert rc == 1
    assert "3 seeds" in capsys.readouterr().err


def test_missing_data_file_exits_2(tmp_path, capsys):
    rc = main(["detect-period", "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("machine_id,timestamp,value\na,0,not_a_number\n")
    rc = main(["detect-period", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2


# one bad row after two good ones, in a schema with and one without a
# machine column: line 4 holds the negative value or the byte 0xff
BAD_ROWS = {
    "generic": (b"machine_id,timestamp,value\na,0,0.5\na,1,0.6\n", b"a,2,", b"\na,3,0.4\n"),
    "dinda": (b"timestamp,load\n0,0.5\n1,0.6\n", b"2,", b"\n3,0.4\n"),
}


@pytest.mark.parametrize("schema", sorted(BAD_ROWS))
@pytest.mark.parametrize("value, message", [(b"-0.25", "negative value"), (b"0.\xff7", "not UTF-8")],
                         ids=["negative", "not-utf8"])
def test_bad_trace_value_exits_2_with_file_and_line(tmp_path, capsys, schema, value, message):
    head, row, tail = BAD_ROWS[schema]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(head + row + value + tail)
    rc = main(["detect-period", "--data", str(bad), "--out", str(tmp_path / "out"),
               "--set", f"io.schema={schema}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:4: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rows, line, message", [
    (b"a,0,0.5\n\n\na,1,0.6\na,2,-0.25\n", 6, "negative value -0.25"),
    (b'a,0,0.5,"two\nlines"\na,1,0.6,x\na,2\n', 5, "no 'value' field"),
], ids=["after-blank-lines", "short-row-after-multiline-field"])
def test_bad_row_names_its_file_line(tmp_path, capsys, rows, line, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"machine_id,timestamp,value,note\n" + rows)
    rc = main(["detect-period", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:{line}: {message}" in err
    assert "Traceback" not in err


def test_unknown_config_key_exits_1(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "run"),
               "--set", "model.width=3"])
    assert rc == 1
    assert "model.width" in capsys.readouterr().err


def _surface(parser):
    """Each subcommand's options as {option string: (dest, default, required,
    choices, type, nargs)}, and whether its help lists the config keys."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: ({opt: (a.dest, a.default, a.required, a.choices, a.type, a.nargs)
                    for a in p._actions for opt in a.option_strings if a.dest != "help"},
                   p.epilog == key_help())
            for name, p in sub.choices.items()}


def test_cli_surface_is_pinned():
    data = {"--data": ("data", None, True, None, None, None),
            "--out": ("out", None, True, None, None, None),
            "--config": ("config", None, False, None, None, None),
            "--set": ("overrides", [], False, None, None, None)}
    served = {"--checkpoint": ("checkpoint", None, True, None, None, None),
              "--split": ("split", "test", False, ["train", "val", "test", "all"], None, None)}
    flag = (False, False, None, None, 0)
    assert _surface(build_parser()) == {
        "generate": ({
            "--out": ("out", None, True, None, None, None),
            "--machines": ("machines", 6, False, None, int, None),
            "--length": ("length", 480, False, None, int, None),
            "--period": ("period", 24, False, None, int, None),
            "--amplitude": ("amplitude", 0.3, False, None, float, None),
            "--noise-std": ("noise_std", 0.05, False, None, float, None),
            "--burst-rate": ("burst_rate", 0.0, False, None, float, None),
            "--burst-height": ("burst_height", 0.0, False, None, float, None),
            "--trend-slope": ("trend_slope", 0.0, False, None, float, None),
            "--seed": ("seed", 7, False, None, int, None),
        }, False),
        "detect-period": (data | {"--auto-threshold": ("auto_threshold", *flag)}, True),
        "train": (data, True),
        "predict": (data | served | {"--explain": ("explain", *flag)}, True),
        "evaluate": (data | served, True),
        "ablate": (data | {"--seeds": ("seeds", None, False, None, None, None)}, True),
    }


def test_usage_error_exits_1(capsys):
    rc = main(["train"])  # missing required --data/--out
    assert rc == 1


def test_unknown_subcommand_exits_1(capsys):
    rc = main(["transmogrify"])
    assert rc == 1


def test_negative_dtw_band_exits_1(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "run"),
               *TINY_MODEL, *TINY_TRAIN,
               "--set", "period.distance=dtw", "--set", "period.dtw_band=-1"])
    assert rc == 1
    assert "dtw_band" in capsys.readouterr().err


def test_malformed_checkpoint_exits_2(tmp_path, data_csv, capsys):
    _, ckpt_path = _train(tmp_path, data_csv)
    raw = bytearray(ckpt_path.read_bytes()[:-32])
    at = raw.index(b"dec.head.b") + len("dec.head.b")
    struct.pack_into("<I", raw, at, 3000)  # rows 1 -> 3000: the header overruns the file
    ckpt_path.write_bytes(bytes(raw) + hashlib.sha256(bytes(raw)).digest())
    rc = main(["evaluate", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(tmp_path / "eval"), "--split", "test"])
    assert rc == 2
    assert "overruns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("edit, message", [
    # the meta that periobench writes: model shape and ablation only
    pytest.param(lambda meta: {"model": meta["model"], "ablation": "full"}, "lacks period, split",
                 id="model-and-ablation-only"),
    pytest.param(lambda meta: {**meta, "ablation": "everything"}, "bad meta", id="unknown-ablation"),
    pytest.param(lambda meta: {**meta, "period": {**meta["period"], "distance": "cosine"}}, "bad meta",
                 id="unknown-distance"),
    pytest.param(lambda meta: {**meta, "split": [0.5, 0.5]}, "bad meta", id="two-split-fractions"),
    pytest.param(lambda meta: {**meta, "model": {**meta["model"], "hidden": "wide"}}, "bad meta",
                 id="non-integer-hidden"),
    pytest.param(lambda meta: {**meta, "model": {**meta["model"], "hidden": 3.5}}, "bad meta",
                 id="fractional-hidden"),
    pytest.param(lambda meta: {**meta, "period": {**meta["period"], "k_min": 2.5}}, "bad meta",
                 id="fractional-k-min"),
    pytest.param(lambda meta: {**meta, "period": {**meta["period"], "threshold": True}}, "bad meta",
                 id="boolean-threshold"),
    pytest.param(lambda meta: {**meta, "model": {**meta["model"], "ds_step": True}}, "bad meta",
                 id="boolean-ds-step"),
    pytest.param(lambda meta: [meta], "lacks model", id="meta-not-an-object"),
    # meta that no longer describes the stored tensors (trained with layers=1, hidden=3)
    pytest.param(lambda meta: {**meta, "model": {**meta["model"], "layers": 2}}, "do not fit",
                 id="more-layers-than-stored"),
    pytest.param(lambda meta: {**meta, "model": {**meta["model"], "hidden": 5}}, "do not fit",
                 id="wider-hidden-than-stored"),
    pytest.param(lambda meta: {**meta, "ablation": "no_period"}, "do not fit",
                 id="stored-fuse-slots-unused"),
])
def test_checkpoint_meta_checked_exits_2(tmp_path, data_csv, capsys, command, edit, message):
    _, ckpt_path = _train(tmp_path, data_csv)
    store, meta, _ = load_checkpoint(ckpt_path)
    save_checkpoint(ckpt_path, store, edit(meta))  # a valid digest over the edited meta
    rc = main([command, "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(tmp_path / "out"), "--split", "test"])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_checkpoint_with_older_model_meta_serves(tmp_path, data_csv, command):
    # checkpoints written before the feature width became a constant record "d": 1
    _, ckpt_path = _train(tmp_path, data_csv)
    store, meta, _ = load_checkpoint(ckpt_path)
    older = tmp_path / "older.ckpt"
    save_checkpoint(older, store, {**meta, "model": {**meta["model"], "d": 1}})
    outputs = []
    for name, path in (("fresh", ckpt_path), ("older", older)):
        out = tmp_path / name
        assert main([command, "--checkpoint", str(path), "--data", str(data_csv), "--out", str(out)]) == 0
        outputs.append((out / ("eval.csv" if command == "evaluate" else "predictions.csv")).read_bytes())
    assert outputs[0] == outputs[1]


def test_divergent_training_exits_3(tmp_path, data_csv, capsys):
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "run"),
                   *TINY_MODEL, "--set", "train.epochs=50",
                   "--set", "train.optimizer=sgd", "--set", "train.lr=1e300"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_empty_split_exits_1(tmp_path, data_csv, capsys):
    _, ckpt_path = _train(tmp_path, data_csv, extra=["--set", "train.split=1.0,0.0,0.0"])
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(ckpt_path), "--data", str(data_csv),
               "--out", str(out), "--split", "test"])
    assert rc == 1
    assert "test" in capsys.readouterr().err
