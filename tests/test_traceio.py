import numpy as np
import pytest

from helpers import denormalize, forward_fill_loop
from periocast.errors import (
    EmptyFile,
    MalformedRow,
    NonMonotonicTimestamps,
)
from periocast.rng import Prng
from periocast.traceio import (
    SCHEMAS,
    CsvSchema,
    RawTrace,
    SyntheticSpec,
    WorkloadSeries,
    generate,
    load_csv,
    normalize,
    save_csv,
)


# --- pseudo-random stream ---------------------------------------------------

def test_prng_deterministic():
    a = Prng(17)
    b = Prng(17)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_prng_seeds_diverge():
    a = [Prng(1).next_u64() for _ in range(4)]
    b = [Prng(2).next_u64() for _ in range(4)]
    assert a != b


def test_prng_uniform_range():
    rng = Prng(0)
    draws = [rng.uniform() for _ in range(5000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_prng_uniform_bounds_args():
    rng = Prng(3)
    draws = [rng.uniform(-2.0, 5.0) for _ in range(2000)]
    assert all(-2.0 <= d < 5.0 for d in draws)


def test_prng_gauss_moments():
    rng = Prng(11)
    draws = np.array([rng.gauss() for _ in range(20000)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_prng_shuffle_permutation():
    rng = Prng(5)
    items = list(range(30))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # vanishingly unlikely to be identity


def test_prng_shuffle_deterministic():
    x = list(range(10))
    y = list(range(10))
    Prng(9).shuffle(x)
    Prng(9).shuffle(y)
    assert x == y


# --- synthetic generation ---------------------------------------------------

def test_generate_deterministic():
    spec = SyntheticSpec(length=100, period=24, amplitude=0.3, noise_std=0.05,
                         burst_rate=0.02, burst_height=0.3, seed=7)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.values, b.values)
    assert a.machine_id == "synth-7"
    assert len(a.values) == 100


def test_generate_range_clipped():
    spec = SyntheticSpec(length=500, period=12, amplitude=0.6, noise_std=0.3,
                         burst_rate=0.1, burst_height=0.8, seed=1)
    out = generate(spec)
    assert out.values.min() >= 0.0
    assert out.values.max() <= 1.0


def test_generate_noiseless_sinusoid_formula():
    spec = SyntheticSpec(length=48, period=24, amplitude=0.2, noise_std=0.0,
                         burst_rate=0.0, burst_height=0.0, seed=0)
    out = generate(spec)
    t = np.arange(48)
    expected = 0.5 + 0.2 * np.sin(2.0 * np.pi * t / 24.0)
    assert np.allclose(out.values, expected, atol=1e-12)


def test_generate_flat_when_featureless():
    spec = SyntheticSpec(length=30, period=None, amplitude=0.0, noise_std=0.0,
                         burst_rate=0.0, burst_height=0.0, seed=4)
    out = generate(spec)
    assert np.all(out.values == 0.5)


def test_generate_draw_count_independent_of_features():
    # Bursts and noise must consume the same number of stream draws whether
    # or not they fire, so changing one knob never shifts the other's values.
    base = SyntheticSpec(length=200, period=None, amplitude=0.0, noise_std=0.1,
                         burst_rate=0.0, burst_height=0.0, seed=13)
    bursty = SyntheticSpec(length=200, period=None, amplitude=0.0, noise_std=0.1,
                           burst_rate=0.5, burst_height=0.0, seed=13)
    a = generate(base)
    b = generate(bursty)
    assert np.allclose(a.values, b.values)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(length=10, period=24, amplitude=0.1, noise_std=0.0,
                      burst_rate=0.0, burst_height=0.0, seed=0)
    with pytest.raises(ValueError):
        SyntheticSpec(length=0, period=None, amplitude=0.0, noise_std=0.0,
                      burst_rate=0.0, burst_height=0.0, seed=0)


# --- csv io -------------------------------------------------------------------

def _write(tmp_path, text, name="trace.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\n"
                         "a,0,1.5\na,1,2.5\nb,0,3.0\nb,1,4.0\n")
    traces = load_csv(p, SCHEMAS["generic"])
    assert [t.machine_id for t in traces] == ["a", "b"]
    assert np.array_equal(traces[0].values, [1.5, 2.5])
    assert np.array_equal(traces[1].values, [3.0, 4.0])


def test_load_csv_sorts_timestamps(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\n"
                         "a,2,30\na,0,10\na,1,20\n")
    (trace,) = load_csv(p, SCHEMAS["generic"])
    assert np.array_equal(trace.values, [10.0, 20.0, 30.0])


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(EmptyFile):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_header_only(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\n")
    with pytest.raises(EmptyFile):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_malformed_value(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\na,0,oops\n")
    with pytest.raises(MalformedRow):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp\na,0\n")
    with pytest.raises(MalformedRow):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_duplicate_timestamp(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\na,0,1\na,0,2\n")
    with pytest.raises(NonMonotonicTimestamps):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_gap_rejected(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\na,0,1\na,1,2\na,3,4\n")
    with pytest.raises(NonMonotonicTimestamps):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_gap_forward_fill(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\na,0,1\na,1,2\na,3,4\n")
    (trace,) = load_csv(p, SCHEMAS["generic"], allow_gaps=True)
    assert np.array_equal(trace.timestamps, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(trace.values, [1.0, 2.0, 2.0, 4.0])


@pytest.mark.parametrize("present", [
    [0, 1, 3],                    # one one-tick gap
    [0, 4, 5, 9],                 # gaps of three ticks
    [0, 2, 3, 5, 8, 9, 13],       # gaps at several positions and widths
    [0, 1, 11],                   # one long gap before the last tick
])
def test_load_csv_gap_forward_fill_matches_loop(tmp_path, present):
    # the vectorised fill against the tick-by-tick loop, on a 5-second grid
    base = 5
    ts = np.array(present, dtype=np.int64) * base + 100
    vals = np.arange(1.0, len(ts) + 1.0) * 1.5
    rows = "".join(f"a,{t},{v}\n" for t, v in zip(ts.tolist(), vals.tolist()))
    (trace,) = load_csv(_write(tmp_path, "machine_id,timestamp,value\n" + rows),
                        SCHEMAS["generic"], allow_gaps=True)
    ref_ts, ref_vals = forward_fill_loop(ts, vals, base)
    assert np.array_equal(trace.timestamps, ref_ts)
    assert np.array_equal(trace.values, ref_vals)
    assert len(trace) == present[-1] + 1


def test_load_csv_single_machine_schema(tmp_path):
    p = _write(tmp_path, "timestamp,value\n0,5\n1,6\n")
    schema = CsvSchema(machine_col=None, time_col="timestamp",
                       value_col="value", tick=1.0, default_machine="host")
    (trace,) = load_csv(p, schema)
    assert trace.machine_id == "host"
    assert np.array_equal(trace.values, [5.0, 6.0])


def test_builtin_schemas_present():
    for name in ("generic", "alibaba2018", "dinda", "smd"):
        assert name in SCHEMAS
    assert SCHEMAS["dinda"].machine_col is None


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    traces = [
        RawTrace("m1", np.arange(50), rng.uniform(0, 100, 50)),
        RawTrace("m2", np.arange(30), rng.uniform(0, 1, 30)),
    ]
    p = tmp_path / "out.csv"
    save_csv(traces, p, SCHEMAS["generic"])
    back = load_csv(p, SCHEMAS["generic"])
    assert [t.machine_id for t in back] == ["m1", "m2"]
    for orig, rt in zip(traces, back):
        assert np.array_equal(orig.timestamps, rt.timestamps)
        assert np.array_equal(orig.values, rt.values)


# --- validation and normalization -------------------------------------------

def test_raw_trace_rejects_nonfinite():
    with pytest.raises(MalformedRow):
        RawTrace("a", np.array([0, 1]), np.array([1.0, np.nan]))


def test_raw_trace_rejects_decreasing():
    with pytest.raises(NonMonotonicTimestamps):
        RawTrace("a", np.array([1, 0]), np.array([1.0, 2.0]))


def test_raw_trace_arrays_read_only():
    t = RawTrace("a", np.array([0, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_normalize_max_scale():
    t = RawTrace("a", np.arange(4), np.array([1.0, 2.0, 4.0, 3.0]))
    s = normalize(t)
    assert s.scale == 4.0
    assert np.allclose(s.values, [0.25, 0.5, 1.0, 0.75])
    assert np.allclose(denormalize(s), t.values, rtol=1e-12)


def test_normalize_all_zero():
    t = RawTrace("a", np.arange(3), np.zeros(3))
    s = normalize(t)
    assert s.scale == 1.0
    assert np.all(s.values == 0.0)


def test_workload_series_rejects_out_of_range():
    with pytest.raises(ValueError):
        WorkloadSeries("a", np.array([0.5, 1.5]), scale=1.0, tick=1.0)
    with pytest.raises(ValueError):
        WorkloadSeries("a", np.array([-0.1, 0.5]), scale=1.0, tick=1.0)
