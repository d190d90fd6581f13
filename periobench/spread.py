"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 periobench/spread.py --runs 10 --seconds 30 --out set-a.json
    python3 periobench/spread.py --compare set-a.json set-b.json

The first form runs every workload `--runs` times, one seed per run
(--first-seed, --first-seed + 1, ...), interleaving the workloads so each
sees the same stretch of host time, and prints for every end-to-end metric
the median of the runs, the quartile spread (Q3 - Q1) / median as
`statistics.quantiles(values, n=4)` gives the quartiles, and the bound from
BENCHMARK.json.  With --estimators it also prints the spread that other
per-run estimators of the timed metrics would have had, computed from the
raw per-operation samples of the same runs.  The second form compares the
medians of two saved sets, as a share of the first set's median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


# Candidate per-run estimators over one run's per-operation samples, from
# raw rates to the one run.py reports (`fleet`).
def _raw(s):
    return np.asarray(s["work"]) / np.asarray(s["seconds"])


ESTIMATORS = {
    "raw-median": lambda s, kind: float(np.median(_raw(s))),
    "raw-mean": lambda s, kind: float(np.sum(s["work"]) / np.sum(s["seconds"])),
    "raw-fast10": lambda s, kind: float(np.percentile(_raw(s), 90)),
    "probe-median": lambda s, kind: float(np.median(np.asarray(s["work"]) / run.normalised(s, kind))),
    "fleet": run.fleet_rate,
}
COLD_ESTIMATORS = {
    "raw-min": lambda c: min(serve for _, serve, _ in c),
    "raw-median": lambda c: float(np.median([serve for _, serve, _ in c])),
    "numpy-before": lambda c: float(np.median([serve / before for before, serve, _ in c])),
    "numpy-both": run.setup_seconds,
}


def run_sets(workloads: list[str], runs: int, seconds: int, first_seed: int, estimators: bool) -> dict:
    results = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(dir=ROOT / ".periobench_out") as tmp:
        for k in range(runs):
            for w in workloads:
                samples = Path(tmp) / f"{w}-{k}.json"
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(first_seed + k),
                     "--seconds", str(seconds), "--trace", "0", "--samples", str(samples)],
                    capture_output=True, text=True, cwd=ROOT)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    sys.exit(f"{w} seed {first_seed + k} failed:\n{proc.stderr}")
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                row = {"seed": first_seed + k, "wall_s": wall, "attempted": out["attempted"],
                       "failed": out["failed"],
                       "metrics": {m: v["value"] for m, v in out["metrics"].items()}}
                if estimators:
                    raw = json.loads(samples.read_text(encoding="utf-8"))
                    cold = raw.pop("cold")
                    row["estimators"] = {kind: {name: f(s, kind) for name, f in ESTIMATORS.items()}
                                         for kind, s in raw.items()}
                    row["estimators"]["cold"] = {name: f(cold) for name, f in COLD_ESTIMATORS.items()}
                    online = raw["online"]
                    row["reference"] = {
                        "online_ms_p99_raw": float(np.percentile(online["seconds"], 99) * 1e3),
                        "online_ms_p99": run.online_ms(online, 99),
                        "ingest_ms_per_window_raw": 1e3 * sum(raw["ingest"]["seconds"]) / sum(raw["ingest"]["work"]),
                        **{f"{kind}_per_s_all_sample_mean": ESTIMATORS["raw-mean"](raw[kind], kind)
                           for kind in ("ingest", "train", "batched")},
                    }
                results[w].append(row)
                print(f"{w} seed {first_seed + k}: {wall:.1f} s wall, {out['attempted']} ops", file=sys.stderr)
    return results


def report(results: dict) -> None:
    bounds = _bounds()
    for w, rows in results.items():
        print(f"\n{w}  ({len(rows)} runs, wall {min(r['wall_s'] for r in rows):.1f}"
              f"..{max(r['wall_s'] for r in rows):.1f} s, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in rows})})")
        print(f"  {'metric':26s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for m in rows[0]["metrics"]:
            med, sp = spread([r["metrics"][m] for r in rows])
            bound = bounds.get(m, (float("nan"),))[0]
            flag = "" if sp < bound / 3 else ("  > bound/3" if sp < bound else "  > BOUND")
            print(f"  {m:26s} {med:12.6g} {sp:8.1%} {bound:6.2f}{flag}")
        if "estimators" in rows[0]:
            print("  spreads of other per-run estimators (rates; online as 1/latency):")
            for kind, est in rows[0]["estimators"].items():
                cells = []
                for name in est:
                    _, sp = spread([r["estimators"][kind][name] for r in rows])
                    cells.append(f"{name} {sp:5.1%}")
                print(f"    {kind:8s} " + "  ".join(cells))
            print("  reference figures (median over runs):")
            for name in rows[0]["reference"]:
                print(f"    {name:32s} {statistics.median(r['reference'][name] for r in rows):12.6g}")


def compare(a: dict, b: dict) -> None:
    bounds = _bounds()
    for w in a:
        print(f"\n{w}")
        for m in a[w][0]["metrics"]:
            ma = statistics.median(r["metrics"][m] for r in a[w])
            mb = statistics.median(r["metrics"][m] for r in b[w])
            bound, better = bounds.get(m, (float("nan"), "lower"))
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = "  WORSE THAN BOUND" if worse > bound else ""
            print(f"  {m:26s} {ma:12.6g} {mb:12.6g} worse by {worse:6.1%} (bound {bound:.2f}){flag}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="fleet-train,fleet-serve,lax-dtw")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--estimators", action="store_true")
    ap.add_argument("--out", help="save the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        compare(a, b)
        return
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    (ROOT / ".periobench_out").mkdir(exist_ok=True)
    results = run_sets(args.workloads.split(","), args.runs, seconds, args.first_seed, args.estimators)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1), encoding="utf-8")
    report(results)


if __name__ == "__main__":
    main()
