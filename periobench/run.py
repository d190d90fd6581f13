"""Benchmark for periocast: ingest, training and serving of fleet traces.

    python3 periobench/run.py --workload fleet-train --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and drives periocast from `src/` through
its library API, in this one process, with one caller and no threads.  The
timed loop repeats whole rounds; each round interleaves every operation
(ingest, training steps, batched forecasts, single-window requests), so
every metric sees the same mix of host speeds, and each operation is timed
between two runs of a fixed host probe and reported at the probe's
reference time (README.md, "Host speed").  After the loop the outputs
are checked against independent recomputations (checks.py); a failed check
exits 1.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
other round runs with spans around periocast's public functions (tracer.py)
and the metrics are per-layer self times and counts.  README.md describes
the workloads, the estimator and the per-layer to end-to-end mapping.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and a second thread on this
# two-core class of host only adds scheduling noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".periobench_out"

sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import (  # noqa: E402
    ACCURACY_SEED, FORECAST_BATCH, TRAIN_BATCH, WINDOW, WORKLOADS, WorkloadSpec, fleet, write_csv,
)

SPLIT = (0.7, 0.1, 0.2)
COLD_STARTS = 6        # cold-start triples per untraced run (see Bench.cold_start)
POOL_MACHINES = 4      # machines whose windows feed training steps and forecasts
GRAD_PARAMS = 8        # parameters checked against finite differences


# The host this benchmark was built on switches between two speeds about
# 1.5x apart every few seconds, for minutes at a time, and no estimator over
# one run's own samples cancels that (README.md, "Host speed").  So every
# operation is bracketed by two runs of a fixed kernel of the benchmark's
# own, the host probe, and reported at the probe's reference time: an
# operation that took t between probes that took p1 and p2 counts as
# t * PROBE_S / mean(p1, p2).  The probe works on arrays with as many rows
# as the operation's batch, since small and large arrays slow by different
# factors.  Likewise each cold start sits between two bare `import numpy`
# starts and is reported at NUMPY_START_S.  The constants are the medians
# measured on that host.
PROBE_ROWS = {"ingest": 8, "online": 8, "train": 64, "batched": 256}
PROBE_S = {"ingest": 0.6e-3, "online": 0.6e-3, "train": 1.9e-3, "batched": 7.0e-3}
NUMPY_START_S = 0.13


class HostProbe:
    """24 steps of a gated recurrent update on fixed (rows, 32) arrays: the
    model's mix of interpreter overhead and numpy kernels, without periocast."""

    def __init__(self, rows: int):
        rng = np.random.default_rng(0)
        self.wx = rng.normal(size=(1, 128))
        self.wh = rng.normal(size=(32, 128)) * 0.1
        self.x = np.ones((rows, 1))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        h = c = np.zeros((len(self.x), 32))
        for _ in range(24):
            z = self.x @ self.wx + h @ self.wh
            s = 1.0 / (1.0 + np.exp(-z))
            c = s[:, 32:64] * c + s[:, :32] * np.tanh(z[:, 64:96])
            h = s[:, 96:] * np.tanh(c)
        return time.perf_counter() - t0


def normalised(ops: dict, kind: str) -> np.ndarray:
    """Each operation's seconds at the probe's reference time."""
    probe = (np.asarray(ops["probe"]) + np.asarray(ops["probe_after"])) / 2.0
    return np.asarray(ops["seconds"]) * (PROBE_S[kind] / probe)


def fleet_rate(ops: dict, kind: str) -> float:
    """Per-run throughput of one kind of operation.

    Operations on the same input (`key`: the machine for ingest, one key for
    the rest) take the median of their normalised seconds, and the rate is
    the total work of one pass over the keys divided by the total of those
    medians, so a run weighs every machine of its fleet once however many
    passes it made."""
    seconds = normalised(ops, kind)
    keys, work = np.asarray(ops["key"]), np.asarray(ops["work"])
    total_work = total_s = 0.0
    for k in np.unique(keys):
        sel = keys == k
        total_work += float(work[sel][0])
        total_s += float(np.median(seconds[sel]))
    return total_work / total_s


def online_ms(ops: dict, q: float) -> float:
    return float(np.percentile(normalised(ops, "online"), q) * 1e3)


def setup_seconds(colds) -> float:
    """Cold start of the serving path at the reference numpy start: the
    median over the run of serve / mean(numpy before, numpy after)."""
    return float(np.median([2.0 * serve / (before + after) for before, serve, after in colds])) * NUMPY_START_S


def _fresh(cmd: list[str]) -> tuple[float, object]:
    """Start `cmd` in a fresh process and return (cold start seconds, its
    last stdout line as JSON).  That line is the perf_counter reading at
    which the process was ready, or an object holding it under "ready";
    perf_counter is the system-wide monotonic clock, so the difference to
    this process's reading before the start is the cold start time."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    ready = out["ready"] if isinstance(out, dict) else out
    return ready - t0, out


def _windows_cut(ingested) -> int:
    return sum(len(s.train) + len(s.val) + len(s.test) for *_, s in ingested)


class Bench:
    def __init__(self, pc, spec: WorkloadSpec, seed: int, seconds: float, trace: bool, run_dir: Path):
        self.pc = pc
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.tracer = None
        if trace:
            from tracer import Tracer
            self.tracer = Tracer(pc)
        self.wcfg = pc.model.WindowConfig(**WINDOW)
        self.pcfg = pc.periodicity.PeriodicityConfig(distance=spec.distance, dtw_band=spec.dtw_band)
        self.probes = {kind: HostProbe(rows) for kind, rows in PROBE_ROWS.items()}
        # kind -> per-operation columns
        self.traced = False
        self.samples = {k: {"work": [], "seconds": [], "probe": [], "probe_after": [], "key": [], "traced": []}
                        for k in PROBE_ROWS}
        self.attempted = 0
        self.failed = 0
        self.losses: list[float] = []
        self.colds: list[tuple[float, float, float]] = []

    # --- operations -------------------------------------------------------

    def ingest(self, path: Path):
        """load_csv -> normalize -> detect_period on the training slice ->
        build_knowledge -> make_windows, for every machine in the file."""
        pc = self.pc
        out = []
        for trace in pc.traceio.load_csv(path, pc.traceio.SCHEMAS["generic"]):
            series = pc.traceio.normalize(trace)
            head = pc.traceio.WorkloadSeries(series.machine_id,
                                             series.values[: int(SPLIT[0] * len(series))],
                                             series.scale, series.tick)
            report = pc.periodicity.detect_period(head, self.pcfg)
            knowledge = pc.periodicity.build_knowledge(head, report)
            out.append((series, report, knowledge,
                        pc.model.make_windows(series, knowledge, self.wcfg, self.pcfg, SPLIT)))
        return out

    def train_step(self, batch) -> float:
        """Tape forward, batch_loss, backward, Adam."""
        pc = self.pc
        self.store.zero_grad()
        bf = pc.model.forward_batch(batch, self.store, self.wcfg, pc.model.Ablation.FULL)
        target = np.stack([w.target for w in batch])
        value, grad, _ = pc.loss.batch_loss(bf.y.data, target, self.loss_cfg)
        bf.y.grad = grad
        bf.tape.backward()
        self.opt.step(self.store.grad_flat())
        return value

    def _timed(self, kind: str, fn, work, key: int = 0):
        """Run one operation between two host probes and record its work (a
        count, or a function of the result), seconds and probe times.  A
        periocast error counts as a failed operation."""
        self.attempted += 1
        probe = self.probes[kind]
        before = probe()
        t0 = time.perf_counter()
        try:
            out = fn()
        except self.pc.errors.PeriocastError as exc:
            self.failed += 1
            print(f"periobench: {kind} failed: {exc}", file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        after = probe()
        ops = self.samples[kind]
        ops["work"].append(work(out) if callable(work) else work)
        ops["seconds"].append(dt)
        ops["probe"].append(before)
        ops["probe_after"].append(after)
        ops["key"].append(key)
        ops["traced"].append(self.traced)
        return out

    # --- phases -----------------------------------------------------------

    def prepare(self) -> None:
        """Write the seeded fleet, ingest it once (fills the pools), train and
        checkpoint the accuracy model."""
        pc, spec = self.pc, self.spec
        self.machines = fleet(spec, spec.kinds, spec.length, self.seed)
        self.shards = []
        for m in self.machines:
            path = self.run_dir / f"{m.machine_id}.csv"
            write_csv(m, path)
            self.shards.append(path)
        # Windows are kept for the first POOL_MACHINES machines only, which
        # bounds memory on the long-trace workload.
        self.ingested = []
        for k, path in enumerate(self.shards):
            series, report, knowledge, split = self.ingest(path)[0]
            self.ingested.append((series, report, knowledge, split if k < POOL_MACHINES else None))
        pool = [split for *_, split in self.ingested[:POOL_MACHINES]]
        self.train_pool = [w for s in pool for w in s.train]
        self.test_pool = [w for s in pool for w in s.test]

        self.acc_machines = fleet(spec, spec.accuracy_kinds, spec.accuracy_length, ACCURACY_SEED)
        acc_dir = self.run_dir / "accuracy"
        acc_dir.mkdir()
        self.acc = []
        for m in self.acc_machines:
            write_csv(m, acc_dir / f"{m.machine_id}.csv")
            self.acc.append(self.ingest(acc_dir / f"{m.machine_id}.csv")[0])
        acc_split = self.acc_split = pc.model.merge_splits([split for *_, split in self.acc])
        tcfg = pc.training.TrainConfig(epochs=spec.accuracy_epochs, batch_size=TRAIN_BATCH,
                                       learning_rate=0.003, seed=0, patience=spec.accuracy_epochs)
        acc_store, _ = pc.training.train(acc_split.train, self.wcfg, tcfg, acc_split.val)
        self.report = pc.training.evaluate(acc_store, acc_split.test, self.wcfg)
        self.acc_store = acc_store

        self.ckpt = self.run_dir / "served.ckpt"
        pc.checkpoint.save_checkpoint(self.ckpt, acc_store, {"model": self.wcfg.to_meta(), "ablation": "full"})
        self.served, _, _ = pc.checkpoint.load_checkpoint(self.ckpt)

        self.store = pc.model.build_params(self.wcfg, pc.model.Ablation.FULL, self.seed)
        self.opt = pc.training.Adam(self.store, 0.003)
        self.loss_cfg = pc.loss.LossConfig()
        self.order = list(range(len(self.train_pool)))
        pc.rng.Prng(self.seed).shuffle(self.order)
        self.cursor = {"ingest": 0, "train": 0, "batched": 0, "online": 0}

    def round_plan(self) -> list[str]:
        """One ingest, then training steps and batched forecasts alternating."""
        train = ["train"] * self.spec.train_steps
        batched = ["batched"] * self.spec.batched
        plan = ["ingest"]
        while train or batched:
            plan += [q.pop() for q in (train, batched) if q]
        return plan

    def run_round(self, plan: list[str]) -> None:
        pc, spec, cur = self.pc, self.spec, self.cursor
        for kind in plan:
            if kind == "ingest":
                key = cur["ingest"] % len(self.shards)
                cur["ingest"] += 1
                self._timed("ingest", lambda: self.ingest(self.shards[key]), _windows_cut, key)
            elif kind == "train":
                n, k = len(self.order), cur["train"] * TRAIN_BATCH
                batch = [self.train_pool[self.order[(k + b) % n]] for b in range(TRAIN_BATCH)]
                cur["train"] += 1
                loss = self._timed("train", lambda: self.train_step(batch), TRAIN_BATCH)
                if loss is not None:
                    self.losses.append(loss)
            else:
                n, k = len(self.test_pool), cur["batched"] * FORECAST_BATCH
                chunk = [self.test_pool[(k + b) % n] for b in range(FORECAST_BATCH)]
                cur["batched"] += 1
                self._timed("batched", lambda: pc.training.evaluate(self.served, chunk, self.wcfg),
                            FORECAST_BATCH)
            for _ in range(spec.online):
                window = self.test_pool[cur["online"] % len(self.test_pool)]
                cur["online"] += 1
                self._timed("online", lambda: pc.model.forward(window, self.served, self.wcfg), 1)

    def cold_start(self) -> tuple[float, float, float]:
        """Seconds for three fresh interpreters, one after the other: one
        that imports numpy, one that loads the served checkpoint and answers
        a forecast (checked against this process's own forecast for the same
        window), and again one that imports numpy."""
        window = self.test_pool[0]
        npy = self.run_dir / "coldstart-window.npy"
        if not npy.exists():
            rows = np.zeros((2, self.wcfg.m))
            rows[0], rows[1, : self.wcfg.j] = window.x_long, window.y_period
            np.save(npy, rows)
        numpy_cmd = [sys.executable, "-c", "import time, numpy; print(time.perf_counter())"]
        before = _fresh(numpy_cmd)[0]
        serve, answer = _fresh([sys.executable, str(BENCH / "coldstart.py"), str(self.ckpt), str(npy)])
        after = _fresh(numpy_cmd)[0]
        checks.check_single_vs_batch(answer["y"], self.pc.model.forward(window, self.served, self.wcfg).y)
        return before, serve, after

    def timed_loop(self) -> dict:
        """Whole rounds until --seconds have passed.  In a traced run every
        other round is traced; the parity flips after each pass over the
        machines, so every machine is ingested both traced and untraced."""
        plan = self.round_plan()
        rounds = traced_rounds = 0
        start = time.perf_counter()
        deadline = start + self.seconds
        next_cold = start + 0.5 * self.seconds / COLD_STARTS
        counts_before = dict(self.tracer.counts) if self.tracer else {}
        while time.perf_counter() < deadline:
            self.traced = self.tracer is not None and (rounds + rounds // len(self.shards)) % 2 == 0
            if self.traced:
                self.tracer.install()
            self.run_round(plan)
            if self.traced:
                self.tracer.uninstall()
                traced_rounds += 1
            rounds += 1
            if self.tracer is None and len(self.colds) < COLD_STARTS and time.perf_counter() >= next_cold:
                self.colds.append(self.cold_start())
                next_cold += self.seconds / COLD_STARTS
        while self.tracer is None and len(self.colds) < COLD_STARTS:
            self.colds.append(self.cold_start())
        return {"traced_rounds": traced_rounds, "counts_before": counts_before,
                "per_round": {"ingest": plan.count("ingest"), "train": plan.count("train"),
                              "batched": plan.count("batched"), "online": len(plan) * self.spec.online}}

    def trace_overhead(self, per_round: dict) -> float:
        """Seconds per round that tracing adds: for each kind of operation
        and each input, the median normalised time of traced operations
        minus that of untraced ones, averaged over inputs and summed over
        the operations of one round."""
        total = 0.0
        for kind, ops in self.samples.items():
            seconds = normalised(ops, kind)
            keys, traced = np.asarray(ops["key"]), np.asarray(ops["traced"], dtype=bool)
            diffs = [np.median(seconds[(keys == k) & traced]) - np.median(seconds[(keys == k) & ~traced])
                     for k in np.unique(keys) if traced[keys == k].any() and (~traced[keys == k]).any()]
            if diffs:  # a run shorter than two passes over the fleet has none for ingest
                total += float(np.mean(diffs)) * per_round[kind]
        return total

    # --- checks -----------------------------------------------------------

    def check(self) -> None:
        pc, wcfg, pcfg = self.pc, self.wcfg, self.pcfg
        for machine, (_, report, _, _) in zip(self.machines + self.acc_machines, self.ingested + self.acc):
            checks.check_period(machine.kind, machine.cycle_lengths, report.period)

        series, report, knowledge, split = self.ingested[0]
        checks.check_acf(series.values[: report.acf.n], report.acf.rho, report.acf.k_max)

        band = pcfg.dtw_band
        if pcfg.distance == "dtw":
            distance = lambda a, b: checks.dtw_full(a, b, band)
        else:
            distance = checks.mean_sq
        matched = [(kn, split.train[0]) for _, _, kn, split in self.ingested[:POOL_MACHINES] if kn is not None]
        for kn, window in matched[:3]:
            m = pc.periodicity.match(kn, window.x_short, wcfg.j, pcfg)
            checks.check_match(kn.x_period, window.x_short, wcfg.j, distance, m.t_a, window.y_period, m.distance)
            seg = np.array([kn.x_period[(m.t_a + t) % len(kn.x_period)] for t in range(wcfg.i)])
            for b in (band, None):
                checks.check_dtw(seg, window.x_short, b, pc.periodicity.dtw_distance(seg, window.x_short, b))

        chunk = self.test_pool[:FORECAST_BATCH]
        bf = pc.model.forward_batch(chunk, self.served, wcfg, pc.model.Ablation.FULL,
                                    pc.neural.Tape(recording=False))
        checks.check_forecasts(bf.y.data, bf.fusion_weights)
        for b in (0, len(chunk) // 2, len(chunk) - 1):
            checks.check_single_vs_batch(pc.model.forward(chunk[b], self.served, wcfg).y, bf.y.data[b])

        test = self.acc_split.test
        pred = np.concatenate([
            pc.model.forward_batch(test[lo: lo + 256], self.acc_store, wcfg, pc.model.Ablation.FULL,
                                   pc.neural.Tape(recording=False)).y.data
            for lo in range(0, len(test), 256)])
        truth = np.stack([w.target for w in test])
        agg = self.report.aggregate
        checks.check_mse(pred, truth, [w.machine_id for w in test], [w.start for w in test],
                         {s.machine_id: s.values for s, *_ in self.acc}, wcfg.m,
                         agg.overall.mse, agg.heavy.mse, agg.heavy.n)
        train_targets = np.stack([w.target for w in self.acc_split.train])
        baseline = checks.mean_sq(truth.ravel(), np.full(truth.size, train_targets.mean()))
        checks.check_training(self.losses, agg.overall.mse, baseline)

        self.check_gradients()

        raw = self.ckpt.read_bytes()
        names = self.acc_store.names()
        checks.check_checkpoint(raw, {n: self.acc_store[n].data for n in names},
                                {n: self.served[n].data for n in self.served.names()})

    def check_gradients(self) -> None:
        """Tape gradients of a small model against central differences."""
        pc = self.pc
        cfg = pc.model.WindowConfig(i=6, m=12, j=2, hidden=4, layers=1, ds_step=3, ds_window=12)
        series, _, knowledge, _ = self.ingested[0]
        windows = pc.model.make_windows(series, knowledge, cfg, self.pcfg, SPLIT).train[:4]
        store = pc.model.build_params(cfg, pc.model.Ablation.FULL, self.seed)
        mse = pc.loss.LossConfig("mse")
        target = np.stack([w.target for w in windows])

        def value(flat):
            store.set_flat(flat)
            bf = pc.model.forward_batch(windows, store, cfg, pc.model.Ablation.FULL,
                                        pc.neural.Tape(recording=False))
            return pc.loss.batch_loss(bf.y.data, target, mse)[0]

        base = store.get_flat()
        bf = pc.model.forward_batch(windows, store, cfg, pc.model.Ablation.FULL)
        _, grad, _ = pc.loss.batch_loss(bf.y.data, target, mse)
        bf.y.grad = grad
        bf.tape.backward()
        analytic = store.grad_flat()
        idx = np.linspace(0, len(base) - 1, GRAD_PARAMS).astype(int)
        h = 1e-6
        numeric = []
        for k in idx:
            up, down = base.copy(), base.copy()
            up[k] += h
            down[k] -= h
            numeric.append((value(up) - value(down)) / (2 * h))
        checks.check_gradients(analytic[idx], numeric)

    # --- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        agg = self.report.aggregate
        return {
            "setup_s": (setup_seconds(self.colds), "s"),
            "ingest_windows_per_s": (fleet_rate(s["ingest"], "ingest"), "windows/s"),
            "train_windows_per_s": (fleet_rate(s["train"], "train"), "windows/s"),
            "forecast_windows_per_s": (fleet_rate(s["batched"], "batched"), "windows/s"),
            "online_forecast_ms_p50": (online_ms(s["online"], 50), "ms"),
            "test_mse": (agg.overall.mse, "load2"),
            "heavy_mse": (agg.heavy.mse, "load2"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self, loop: dict) -> dict:
        tr = self.tracer
        selfs = tr.self_times()
        calls = tr.counts
        rounds = loop["traced_rounds"]
        before = loop["counts_before"]

        def per_call(name):
            n = calls.get(name + "_calls", 0)
            return (selfs.get(name, 0.0) / n if n else 0.0, "s/call")

        def per_round(key):
            return ((calls.get(key, 0) - before.get(key, 0)) / rounds, "count/round")

        backward_calls = calls.get("neural.backward_calls", 0) - before.get("neural.backward_calls", 0)
        tape_nodes = calls.get("neural.tape_nodes", 0) - before.get("neural.tape_nodes", 0)
        return {
            "traceio.load_csv_s": per_call("traceio.load_csv"),
            "traceio.rows_loaded": per_round("traceio.rows_loaded"),
            "stats.acf_s": per_call("stats.acf"),
            "stats.acf_calls": per_round("stats.acf_calls"),
            "stats.metrics_s": per_call("stats.metrics"),
            "periodicity.detect_s": per_call("periodicity.detect"),
            "periodicity.match_s": per_call("periodicity.match"),
            "periodicity.match_calls": per_round("periodicity.match_calls"),
            "periodicity.dtw_s": per_call("periodicity.dtw"),
            "periodicity.dtw_calls": per_round("periodicity.dtw_calls"),
            "model.make_windows_s": per_call("model.make_windows"),
            "model.windows_cut": per_round("model.windows_cut"),
            "model.forward_nograd_s": per_call("model.forward_nograd"),
            "model.forward_calls": per_round("model.forward_nograd_calls"),
            "model.forward_train_s": per_call("model.forward_train"),
            "neural.backward_s": per_call("neural.backward"),
            "neural.tape_nodes_per_batch": (tape_nodes / backward_calls if backward_calls else 0.0, "count"),
            "loss.batch_loss_s": per_call("loss.batch_loss"),
            "training.optimizer_step_s": per_call("training.optimizer_step"),
            "training.validation_s": per_call("training.validation"),
            "training.evaluate_s": per_call("training.evaluate"),
            "checkpoint.save_s": per_call("checkpoint.save"),
            "checkpoint.load_s": per_call("checkpoint.load"),
            "checkpoint.bytes": (float(self.ckpt.stat().st_size), "bytes"),
            "trace.overhead_s": (self.trace_overhead(loop["per_round"]), "s/round"),
        }

    def run(self) -> dict:
        if self.tracer:
            self.tracer.install()
        self.prepare()
        if self.tracer:
            self.tracer.uninstall()
        loop = self.timed_loop()
        if self.tracer:
            OUT.mkdir(exist_ok=True)
            self.tracer.write(OUT / f"spans-{self.spec.name}.jsonl")
        self.check()
        metrics = self.per_layer(loop) if self.tracer else self.end_to_end()
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--samples", help="also write the raw per-operation samples to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "periocast" / "__init__.py").is_file():
        print(f"periobench: no periocast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import periocast.checkpoint
    import periocast.errors
    import periocast.loss
    import periocast.model
    import periocast.neural
    import periocast.periodicity
    import periocast.rng
    import periocast.traceio
    import periocast.training
    pc = periocast

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(pc, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    try:
        result = bench.run()
    except checks.CheckFailed as exc:
        print(f"periobench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": bench.failed,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.samples:
        Path(args.samples).write_text(json.dumps(
            {**bench.samples, "cold": bench.colds}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
