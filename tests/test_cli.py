import csv
import hashlib
import json
import struct

import numpy as np
import pytest

from periocast.cli import main
from periocast.checkpoint import load_checkpoint, save_checkpoint
from periocast.traceio import SCHEMAS, load_csv

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


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["--machines", "2", "--length", "40", "--period", "0", "--seed", "3"]
    assert main(["generate", "--out", str(a), *args]) == 0
    assert main(["generate", "--out", str(b), *args]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- detect-period ----------------------------------------------------------------

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
    data = tmp_path / "fleet.csv"
    assert main(["generate", "--out", str(data), "--machines", "12",
                 "--length", "120", "--period", "12", "--amplitude", "0.25",
                 "--noise-std", "0.05", "--seed", "2"]) == 0
    out = tmp_path / "detect"
    rc = main(["detect-period", "--data", str(data), "--out", str(out),
               "--auto-threshold", "--set", "period.gmm_components=1"])
    assert rc == 0
    text = (out / "threshold.txt").read_text()
    assert "derived_threshold" in text
    assert "derived threshold" in capsys.readouterr().out


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


def test_train_too_short_data_is_config_error(tmp_path, data_csv, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data_csv), "--out", str(out),
               *TINY_MODEL, *TINY_TRAIN, "--set", "model.m=120"])
    assert rc == 1
    assert "m + j" in capsys.readouterr().err


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


def test_unknown_config_key_exits_1(tmp_path, data_csv, capsys):
    rc = main(["train", "--data", str(data_csv), "--out", str(tmp_path / "run"),
               "--set", "model.width=3"])
    assert rc == 1
    assert "model.width" in capsys.readouterr().err


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
    pytest.param(lambda meta: [meta], "lacks model", id="meta-not-an-object"),
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
