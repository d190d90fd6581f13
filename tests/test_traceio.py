import csv
import warnings

import numpy as np
import pytest

from helpers import denormalize, forward_fill_loop, load_bench_module, read_rows_dictreader, save_csv_rowwise
from periocast.errors import (
    EmptyFile,
    MalformedRow,
    NonMonotonicTimestamps,
)
from periocast import traceio
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


def test_load_csv_error_names_the_file_line(tmp_path):
    # blank lines and a quoted field over two lines advance the file line
    # but not the row count
    text = ("machine_id,timestamp,value,note\n"
            "a,0,1.5,plain\n"
            "\n"
            "\n"
            'a,1,2.5,"two\nlines"\n'
            "a,2,-0.5,plain\n")
    p = _write(tmp_path, text)
    with pytest.raises(MalformedRow, match=rf"^{p}:7: negative value -0\.5$"):
        load_csv(p, SCHEMAS["generic"])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("cell, message", [(b"-5", "negative value"), (b"0.\xff5", "not UTF-8")],
                         ids=["negative", "not-utf8"])
def test_load_csv_error_line_under_every_line_ending(tmp_path, newline, cell, message):
    nl = newline.encode()
    p = tmp_path / "trace.csv"
    p.write_bytes(nl.join([b"machine_id,timestamp,value", b"a,0,1", b"a,1," + cell, b"a,2,3", b""]))
    with pytest.raises(MalformedRow, match=rf"^{p}:3: {message}"):
        load_csv(p, SCHEMAS["generic"])


def test_load_csv_error_names_the_line_a_row_starts_on(tmp_path):
    text = 'machine_id,timestamp,value,note\na,0,1,x\n\na,1,oops,"spans\nthree\nlines"\na,2,3,x\n'
    p = _write(tmp_path, text)
    with pytest.raises(MalformedRow, match=rf"^{p}:4: could not convert string to float: 'oops'$"):
        load_csv(p, SCHEMAS["generic"])


@pytest.mark.parametrize("rows, line, message", [
    ("a,0,1\na,1\na,2,3\n", 3, "no 'value' field"),
    ("a,0,1\na\na,2,3\n", 3, "no 'timestamp' field"),
    ("a,0,-1\na,x,1\n", 2, "negative value -1.0"),     # the first bad row wins,
    ("a,0,1\na,x,-1\n", 3, "invalid literal for int"),  # whichever check it fails
    ("a,0,1\na,1,nan\n", 3, "non-finite value nan"),
    ("a,0,1\na,1,-inf\n", 3, "non-finite value -inf"),
    (f"a,0,1\na,{2 ** 63},1\n", 3, f"timestamp {2 ** 63} outside the int64 range"),
], ids=["no-value", "no-timestamp", "value-first", "timestamp-first", "nan", "minus-inf", "int64"])
def test_load_csv_bad_row_messages(tmp_path, rows, line, message):
    p = _write(tmp_path, "machine_id,timestamp,value\n" + rows)
    with pytest.raises(MalformedRow) as err:
        load_csv(p, SCHEMAS["generic"])
    assert str(err.value).startswith(f"{p}:{line}: {message}")


def test_load_csv_csv_error_is_malformed_row(tmp_path):
    p = _write(tmp_path, "machine_id,timestamp,value\na,0,1\na,1," + "9" * 200_000 + "\n")
    with pytest.raises(MalformedRow, match=rf"^{p}:3: field larger than field limit"):
        load_csv(p, SCHEMAS["generic"])


# --- the columnar reader against the former DictReader one --------------------

_IDS = ["m0", "host,7", 'q"x', "αβ", "m 3", "m5"]
_PLAIN_IDS = [i for i in _IDS if i.isascii() and not set(i) & set(',"')] + ["h\t7", "nul\x00id"]


def _cell(rng, text: str) -> str:
    """A CSV cell, quoted on some draws and whenever it has to be."""
    if any(ch in text for ch in ',"\r\n') or rng.uniform() < 0.2:
        return '"' + text.replace('"', '""') + '"'
    return text


def _number(rng, v) -> str:
    styles = [repr(v), f"{v:.3f}", f"{v:.6e}", f" {v!r}"]
    if isinstance(v, int):
        styles = [str(v), f" {v} ", f"{v:+d}"]
    return styles[rng.integers(len(styles))]


def _random_trace_csv(rng, schema, allow_gaps: bool, plain: bool, quotes: bool = True) -> str:
    """Interleaved machines on their own grids, rows shuffled, in `schema`,
    with extra columns and (unless `plain`) blank lines.  With `quotes`,
    some cells are quoted and (unless `plain`) quoted fields span lines;
    without, the file has no `"`, ASCII ids, rows with an extra cell and
    LF, CRLF and lone-CR line ends mixed."""
    n_machines = 1 if schema.machine_col is None else int(rng.integers(1, 5))
    rows = []
    for machine in rng.choice(_IDS if quotes else _PLAIN_IDS, size=n_machines, replace=False):
        step, start = int(rng.choice([1, 5, 60])), int(rng.integers(-50, 1000))
        ticks = np.arange(int(rng.integers(2, 26)))
        if allow_gaps and len(ticks) > 3:
            keep = rng.uniform(size=len(ticks)) < 0.7
            keep[[0, 1, -1]] = True
            ticks = ticks[keep]
        for t in ticks:
            value = float(rng.choice([0.0, 1.0, rng.uniform(0, 100), rng.uniform(0, 1e-5)]))
            rows.append({schema.machine_col: str(machine), schema.time_col: start + step * int(t),
                         schema.value_col: value})
    rng.shuffle(rows)
    header = [c for c in (schema.machine_col, schema.time_col, schema.value_col) if c]
    for extra in rng.choice(["note", "cpu", "x y"], size=int(rng.integers(0, 3)), replace=False):
        header.insert(int(rng.integers(len(header) + 1)), str(extra))
    if quotes:
        cell = _cell
        notes = ["", "ok", "a,b", 'say "hi"'] + ([] if plain else ["two\nlines", "cr\r\nlf"])
    else:
        cell = lambda rng, text: text  # noqa: E731
        notes = ["", "ok", "a b", "x\ty"]
    newline = "\r\n" if rng.uniform() < 0.5 else "\n"
    lines = [",".join(cell(rng, c) for c in header)]
    for row in rows:
        cells = []
        for c in header:
            if c == schema.time_col or c == schema.value_col:
                cells.append(cell(rng, _number(rng, row[c])))
            elif c == schema.machine_col:
                cells.append(cell(rng, row[c]))
            else:
                cells.append(cell(rng, str(rng.choice(notes))))
        if not quotes and rng.uniform() < 0.1:
            cells.append("more")
        lines.append(",".join(cells))
        while not plain and rng.uniform() < 0.15:
            lines.append("")
    if quotes:
        return newline.join(lines) + newline
    return "".join(line + end for line, end in zip(lines, rng.choice(["\n", "\r\n", "\r"], size=len(lines))))


def _traces_by_dictreader(path, schema, allow_gaps: bool):
    out = []
    for machine, rows in read_rows_dictreader(path, schema).items():
        rows.sort(key=lambda r: r[0])
        ts = np.array([r[0] for r in rows], dtype=np.int64)
        vals = np.array([r[1] for r in rows], dtype=np.float64)
        if allow_gaps:
            ts, vals = forward_fill_loop(ts, vals, int(np.diff(ts).min()))
        out.append((machine, ts, vals))
    return out


def _assert_same_traces(got, want):
    assert [t.machine_id for t in got] == [m for m, _, _ in want]
    for trace, (_, ts, vals) in zip(got, want):
        assert trace.timestamps.dtype == np.int64 and trace.values.dtype == np.float64
        assert np.array_equal(trace.timestamps, ts)
        assert trace.values.tobytes() == vals.tobytes()


def test_load_csv_repeated_column_reads_the_last(tmp_path):
    p = _write(tmp_path, "machine_id,value,timestamp,value\na,oops,0,1.5\na,-3,1,2.5\n")
    (trace,) = load_csv(p, SCHEMAS["generic"])
    assert np.array_equal(trace.values, [1.5, 2.5])
    _assert_same_traces([trace], _traces_by_dictreader(p, SCHEMAS["generic"], False))


@pytest.mark.parametrize("seed", range(96))
def test_load_csv_matches_dictreader(tmp_path, monkeypatch, seed):
    # seeds from 48 on write quote-free files, which numpy's reader takes
    rng = np.random.default_rng([seed, 12])
    if seed % 2:  # machines and blank rows across blocks of a few rows
        monkeypatch.setattr(traceio, "_CHUNK_ROWS", int(rng.integers(1, 8)))
    schema = SCHEMAS[sorted(SCHEMAS)[seed % 4]]
    allow_gaps = bool(seed // 4 % 2)
    p = tmp_path / "trace.csv"
    p.write_bytes(_random_trace_csv(rng, schema, allow_gaps, plain=False, quotes=seed < 48).encode("utf-8"))
    _assert_same_traces(load_csv(p, schema, allow_gaps=allow_gaps),
                        _traces_by_dictreader(p, schema, allow_gaps))


@pytest.mark.parametrize("seed", range(48))
def test_load_csv_errors_match_dictreader(tmp_path, monkeypatch, seed):
    # one or two bad cells in a file with no blank or multi-line rows, where
    # the former reader's row count is the file line; seeds from 24 on write
    # quote-free files
    rng = np.random.default_rng([seed, 13])
    if seed % 2:
        monkeypatch.setattr(traceio, "_CHUNK_ROWS", int(rng.integers(1, 8)))
    schema = SCHEMAS[sorted(SCHEMAS)[seed % 4]]
    quotes = seed < 24
    lines = _random_trace_csv(rng, schema, False, plain=True, quotes=quotes).splitlines(keepends=True)
    header = next(csv.reader([lines[0]]))
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(1, len(lines)))
        row = next(csv.reader([lines[k]]))
        col = schema.time_col if rng.uniform() < 0.3 else schema.value_col
        row[len(header) - 1 - header[::-1].index(col)] = str(rng.choice(["oops", "-2.5", "nan", "inf", "1.5.2"]))
        end = lines[k][len(lines[k].rstrip("\r\n")):]
        lines[k] = ",".join(_cell(rng, c) if quotes else c for c in row) + end
    p = tmp_path / "trace.csv"
    p.write_bytes("".join(lines).encode("utf-8"))
    with pytest.raises(MalformedRow) as want:
        read_rows_dictreader(p, schema)
    with pytest.raises(MalformedRow) as got:
        load_csv(p, schema)
    assert str(got.value) == str(want.value)


def test_load_csv_matches_dictreader_on_the_benchmark_fleet(tmp_path):
    wl = load_bench_module("workloads")
    spec = wl.WORKLOADS["fleet-serve"]
    for machine in wl.fleet(spec, spec.kinds, spec.length, seed=1):
        p = tmp_path / f"{machine.machine_id}.csv"
        wl.write_csv(machine, p)
        _assert_same_traces(load_csv(p, SCHEMAS["generic"]),
                            _traces_by_dictreader(p, SCHEMAS["generic"], False))


# --- numpy's reader for plain files against csv.reader ------------------------

def _outcome(path, schema, allow_gaps: bool):
    """What `load_csv` gives: each trace's id and bytes, or the error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape load_csv
        try:
            traces = load_csv(path, schema, allow_gaps=allow_gaps)
        except (EmptyFile, MalformedRow, NonMonotonicTimestamps) as exc:
            return type(exc).__name__, str(exc)
    return [(t.machine_id, t.timestamps.tobytes(), t.values.tobytes()) for t in traces]


def _refuse(*args):
    raise ValueError("refused")


def _respelled(rng, cell: str) -> str:
    """`cell` written as Python's `int` or `float` may still read it but
    numpy's reader does not, or as neither reads it."""
    s = cell.strip()
    sign = s[:1] if s[:1] in "+-" else ""
    kind = int(rng.integers(5))
    if kind == 0:
        return f"{sign}0_{s[len(sign):]}"  # underscore: Python only
    if kind == 1:
        return s.translate({ord(d): 0xFF10 + int(d) for d in "0123456789"})  # full width: Python only
    if kind == 2:
        return f"{sign}{10 ** 19}"  # beyond int64 as a timestamp
    if kind == 3:
        return "\x1c" + s  # a separator numpy strips as a space: neither
    return "\u01fe"  # a letter numpy's int parser reads as digits: neither


@pytest.mark.parametrize("seed", range(48))
def test_plain_reader_matches_csv_reader(tmp_path, monkeypatch, seed):
    # quote-free files, some with whitespace-only lines, short rows and cells
    # that only one reader or neither takes, read as they are and with
    # numpy's reader refusing every file: traces and errors are the same
    rng = np.random.default_rng([seed, 14])
    if seed % 2:
        monkeypatch.setattr(traceio, "_CHUNK_ROWS", int(rng.integers(1, 8)))
    schema = SCHEMAS[sorted(SCHEMAS)[seed % 4]]
    allow_gaps = bool(seed // 4 % 2)
    lines = _random_trace_csv(rng, schema, allow_gaps, plain=False, quotes=False).splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    for _ in range(int(rng.integers(0, 3)) if seed % 3 else 0):
        k = int(rng.integers(1, len(lines)))
        body, end = lines[k].rstrip("\r\n"), lines[k][len(lines[k].rstrip("\r\n")):]
        row, what = body.split(","), rng.uniform()
        if what < 0.2:
            body = str(rng.choice([" ", "\t", " \t "]))
        elif what < 0.4:
            body = ",".join(row[: int(rng.integers(len(row)))])
        elif body:
            col = schema.time_col if rng.uniform() < 0.5 else schema.value_col
            at = len(header) - 1 - header[::-1].index(col)
            row[at] = _respelled(rng, row[at])
            body = ",".join(row)
        lines[k] = body + end
    p = tmp_path / "trace.csv"
    p.write_bytes("".join(lines).encode("utf-8"))
    got = _outcome(p, schema, allow_gaps)
    monkeypatch.setattr(traceio, "_plain_blocks", _refuse)
    assert got == _outcome(p, schema, allow_gaps)


@pytest.mark.parametrize("rows, want", [
    ("a,1_000,5\na,1_001,6\n", [1000, 1001]),
    ("a,１２,5\na,１３,6\n", [12, 13]),
    ("a,1,5\na,2,0_6.5\n", [1, 2]),
    (f"a,0,1\na,{10 ** 19},1\n", f"3: timestamp {10 ** 19} outside the int64 range"),
    ("a,0,1\na,1\n", "3: no 'value' field"),
    ("a,0,1\na,1,2\n \n", "4: no 'timestamp' field"),
    ("a,0,1\na,\x1c1,2\n", "3: invalid literal for int() with base 10: '\\x1c1'"),
    ("a,0,1\na,\u01fe,2\n", "3: invalid literal for int() with base 10: '\u01fe'"),
    ("a,0,1\na,1," + "9" * 200_000 + "\n", "3: field larger than field limit"),
], ids=["underscore", "full-width", "underscore-value", "20-digits", "short-row", "spaces-only",
        "file-separator", "not-a-digit", "long-field"])
def test_load_csv_reads_what_numpy_refuses_with_csv_reader(tmp_path, monkeypatch, rows, want):
    # each file goes to the csv.reader path, which loads it or names its bad line
    p = _write(tmp_path, "machine_id,timestamp,value\n" + rows)
    read = []
    csv_blocks = traceio._csv_blocks
    monkeypatch.setattr(traceio, "_csv_blocks", lambda *args: read.append(1) or csv_blocks(*args))
    if isinstance(want, list):
        (trace,) = load_csv(p, SCHEMAS["generic"])
        assert trace.timestamps.tolist() == want
    else:
        with pytest.raises(MalformedRow) as err:
            load_csv(p, SCHEMAS["generic"])
        assert str(err.value).startswith(f"{p}:{want}")
    assert read


@pytest.mark.parametrize("text", ["machine_id,timestamp,value\n", "machine_id,timestamp,value\r\n\n\r\n\r\n"],
                         ids=["header-only", "blank-lines"])
def test_load_csv_no_data_rows_is_empty_file_without_a_warning(tmp_path, monkeypatch, text):
    monkeypatch.setattr(traceio, "_CHUNK_ROWS", 2)  # a block of blank lines only, then one more
    monkeypatch.setattr(traceio, "_csv_blocks", _refuse)  # numpy's reader takes both files
    p = tmp_path / "trace.csv"
    p.write_bytes(text.encode())
    assert _outcome(p, SCHEMAS["generic"], False) == ("EmptyFile", f"{p}: no data rows")


def test_benchmark_fleet_files_never_reach_csv_reader(tmp_path, monkeypatch):
    # numpy's reader takes every file the benchmark writes; a quoted file
    # still goes to csv.reader
    def csv_blocks(*args):
        raise AssertionError("the csv.reader data path ran")

    monkeypatch.setattr(traceio, "_csv_blocks", csv_blocks)
    wl = load_bench_module("workloads")
    for name in ("fleet-serve", "lax-dtw"):
        spec = wl.WORKLOADS[name]
        for machine in wl.fleet(spec, spec.kinds, spec.length, seed=2)[:4]:
            p = tmp_path / f"{machine.machine_id}.csv"
            wl.write_csv(machine, p)
            (trace,) = load_csv(p, SCHEMAS["generic"])
            assert len(trace) == spec.length
    p = _write(tmp_path, 'machine_id,timestamp,value\n"a",0,1\n')
    with pytest.raises(AssertionError, match="csv.reader data path"):
        load_csv(p, SCHEMAS["generic"])


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


@pytest.mark.parametrize("schema", ["generic", "dinda"])
def test_save_csv_bytes_match_rowwise_writer(tmp_path, schema):
    rng = np.random.default_rng(3)
    odd = np.array([0.0, 1.0, 5e-324, 1e-7, 123456789.125, 1e300, 0.1 + 0.2, 2.0 ** 53])
    traces = [RawTrace("m1", np.arange(8) * 60 - 120, odd),
              RawTrace('host,"7"', np.arange(40) + 10 ** 12, rng.uniform(0, 100, 40))]
    if schema == "dinda":
        traces = traces[1:]
    save_csv(traces, tmp_path / "new.csv", SCHEMAS[schema])
    save_csv_rowwise(traces, tmp_path / "ref.csv", SCHEMAS[schema])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
