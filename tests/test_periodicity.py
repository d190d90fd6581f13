import hashlib
import math

import numpy as np
import pytest

from helpers import dtw_exhaustive, dtw_reference, match_mse_lanes, verify_bound
from periocast import periodicity
from periocast.errors import BandTooNarrow, DegenerateComponent, SeriesTooShort
from periocast.periodicity import (
    SENTINEL,
    PeriodicityConfig,
    PeriodKnowledge,
    build_knowledge,
    detect_period,
    dtw_distance,
    fit_threshold_gmm,
    fit_threshold_gmm_sweep,
    match,
)
from periocast.traceio import SyntheticSpec, WorkloadSeries, generate


def _series(values):
    values = np.asarray(values, dtype=np.float64)
    return WorkloadSeries("m", values, scale=1.0, tick=1.0)


# --- detection ----------------------------------------------------------------

def test_detect_sinusoid():
    s = generate(SyntheticSpec(length=480, period=24, amplitude=0.3,
                               noise_std=0.05, seed=3))
    report = detect_period(s, PeriodicityConfig(threshold=0.5))
    assert report.period == 24
    assert report.is_periodic
    rho = report.acf.rho
    k = report.period
    assert rho[k] > rho[k - 1] and rho[k] > rho[k + 1] and rho[k] > 0.5


def test_detect_noise_is_aperiodic():
    s = generate(SyntheticSpec(length=480, noise_std=0.15, seed=5))
    report = detect_period(s, PeriodicityConfig(threshold=0.5))
    assert report.period is None
    assert not report.is_periodic


def test_detect_smallest_qualifying_lag():
    # period 12 also produces an ACF peak at 24; the smaller lag must win
    s = generate(SyntheticSpec(length=480, period=12, amplitude=0.3, seed=0))
    report = detect_period(s, PeriodicityConfig(threshold=0.5))
    assert report.period == 12


def test_detect_first_peak_recorded_below_threshold():
    # weak periodicity: peak exists but sits under the default threshold
    s = generate(SyntheticSpec(length=480, period=24, amplitude=0.05,
                               noise_std=0.12, seed=2))
    report = detect_period(s, PeriodicityConfig(threshold=0.9))
    assert report.period is None
    assert report.first_peak_value is not None
    assert report.first_peak_value <= 0.9


def test_detect_threshold_flips_verdict():
    s = generate(SyntheticSpec(length=480, period=24, amplitude=0.08,
                               noise_std=0.10, seed=7))
    lenient = detect_period(s, PeriodicityConfig(threshold=0.2))
    strict = detect_period(s, PeriodicityConfig(threshold=0.9))
    assert lenient.period == 24
    assert strict.period is None
    # the recorded first peak is a property of the series, not the threshold
    assert strict.first_peak_value == pytest.approx(
        lenient.first_peak_value, abs=1e-12)


def test_detect_respects_k_min():
    s = generate(SyntheticSpec(length=480, period=12, amplitude=0.3, seed=1))
    report = detect_period(s, PeriodicityConfig(threshold=0.5, k_min=15))
    assert report.period == 24  # first multiple of 12 at or past k_min


def test_detect_too_short():
    with pytest.raises(SeriesTooShort):
        detect_period(_series([0.1, 0.9, 0.1, 0.9, 0.2]), PeriodicityConfig())


# --- empirical smoothness bound -------------------------------------------------

def test_verify_bound_arithmetic():
    x = np.array([0.0, 1.0, 0.0, 1.0])
    emp, bound = verify_bound(x, 2, threshold=0.5)
    # lag-2 differences are all zero; bound = 2 * 0.5 * var = 0.25
    assert emp == 0.0
    assert bound == pytest.approx(0.25)


def test_verify_bound_holds_for_detected_period():
    s = generate(SyntheticSpec(length=480, period=24, amplitude=0.3,
                               noise_std=0.03, seed=9))
    cfg = PeriodicityConfig(threshold=0.5)
    report = detect_period(s, cfg)
    assert report.period is not None
    emp, bound = verify_bound(s, report.period, cfg.threshold)
    assert emp <= bound * 1.05


def test_verify_bound_rejects_bad_lag():
    with pytest.raises(ValueError):
        verify_bound(np.arange(5.0), 5, 0.5)


# --- threshold mixture -----------------------------------------------------------

def test_gmm_two_well_separated_clusters():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.normal(0.8, 0.02, 120),
        rng.normal(0.2, 0.02, 80),
    ])
    fit = fit_threshold_gmm(x, n_components=2, seed=0)
    means = np.sort(fit.means)
    assert abs(means[0] - 0.2) < 0.02
    assert abs(means[1] - 0.8) < 0.02
    assert fit.chosen_cluster == int(np.argmax(fit.means))
    top = fit.means[fit.chosen_cluster]
    spread = fit.stds[fit.chosen_cluster]
    assert fit.derived_threshold == pytest.approx(top - spread)
    assert fit.search_range == pytest.approx((top - spread, top + spread))
    # weights recover the 120/80 split
    w_hi = fit.weights[fit.chosen_cluster]
    assert abs(w_hi - 0.6) < 0.05


def test_gmm_single_component_floors_std():
    # distinct but nearly identical values: with one component the std floor
    # applies instead of degeneracy
    x = np.array([0.5, 0.5 + 1e-9, 0.5 - 1e-9])
    fit = fit_threshold_gmm(x, n_components=1, seed=0)
    assert fit.stds[0] >= 1e-6
    assert fit.derived_threshold == pytest.approx(0.5, abs=1e-5)


def test_gmm_degenerate_component_raises():
    # one isolated point forces the second component to collapse onto it
    x = np.concatenate([np.full(40, 0.5) + np.linspace(0, 1e-9, 40),
                        np.array([0.9])])
    with pytest.raises(DegenerateComponent):
        fit_threshold_gmm(x, n_components=2, seed=0)


def test_gmm_requires_distinct_values():
    with pytest.raises(ValueError):
        fit_threshold_gmm(np.full(10, 0.4), n_components=2, seed=0)
    with pytest.raises(ValueError):
        fit_threshold_gmm(np.array([0.1, 0.2]), n_components=3, seed=0)


def test_gmm_sweep_keeps_best_likelihood():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.7, 0.05, 100), rng.normal(0.2, 0.05, 100)])
    best = fit_threshold_gmm_sweep(x, n_components=2, seeds=(0, 1, 2))
    for seed in (0, 1, 2):
        single = fit_threshold_gmm(x, n_components=2, seed=seed)
        assert best.log_likelihood >= single.log_likelihood - 1e-9


def test_gmm_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(0.5, 0.1, 200)
    a = fit_threshold_gmm(x, n_components=2, seed=3)
    b = fit_threshold_gmm(x, n_components=2, seed=3)
    assert np.array_equal(a.means, b.means)
    assert a.log_likelihood == b.log_likelihood


# --- template matching ------------------------------------------------------------

def test_match_exact_offset():
    template = np.arange(24, dtype=np.float64) / 24.0
    know = PeriodKnowledge("m", template)
    cfg = PeriodicityConfig()
    x_short = template[7:13]
    m = match(know, x_short, j=2, cfg=cfg)
    assert m.t_a == 7
    assert m.distance == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(m.y_period, template[13:15])


def test_match_wraps_cyclically():
    template = np.sin(2 * np.pi * np.arange(24) / 24.0) * 0.4 + 0.5
    know = PeriodKnowledge("m", template)
    cfg = PeriodicityConfig()
    # window starting at offset 20 runs off the template end and wraps
    x_short = template[(20 + np.arange(6)) % 24]
    m = match(know, x_short, j=3, cfg=cfg)
    assert m.t_a == 20
    assert np.allclose(m.y_period, template[(26 + np.arange(3)) % 24])


def test_match_tie_breaks_to_smallest_offset():
    know = PeriodKnowledge("m", np.full(8, 0.3))
    m = match(know, np.full(4, 0.9), j=2, cfg=PeriodicityConfig())
    assert m.t_a == 0


def test_match_without_knowledge_gives_sentinel():
    m = match(None, np.array([0.1, 0.2]), j=3, cfg=PeriodicityConfig())
    assert m.t_a == -1
    assert m.distance == math.inf
    assert np.all(m.y_period == SENTINEL)
    assert len(m.y_period) == 3
    stacked = match(None, np.zeros((5, 2)), j=3, cfg=PeriodicityConfig())
    assert np.array_equal(stacked.t_a, np.full(5, -1))
    assert np.array_equal(stacked.distance, np.full(5, math.inf))
    assert np.array_equal(stacked.y_period, np.full((5, 3), SENTINEL))


@pytest.mark.parametrize("distance,band", [("mse", None), ("dtw", None), ("dtw", 0), ("dtw", 1), ("dtw", 3)])
@pytest.mark.parametrize("p", [2, 3, 7, 12, 30])
def test_stacked_match_equals_per_window_match(distance, band, p):
    rng = np.random.default_rng([p, 9 if band is None else band, distance == "dtw"])
    template = rng.uniform(size=p)
    know = PeriodKnowledge("m", template)
    cfg = PeriodicityConfig(distance=distance, dtw_band=band)
    if distance == "mse":
        reference = lambda seg, xs: float(np.mean((seg - xs) ** 2))
    else:
        reference = lambda seg, xs: dtw_reference(seg, xs, band)
    for width in sorted({1, max(1, p - 1), p, p + 5, 2 * p + 3}):  # windows shorter and longer than p
        stack = rng.uniform(size=(9, width))
        segments = template[(np.arange(p)[:, None] + np.arange(width)) % p]
        got = match(know, stack, 3, cfg)
        assert got.t_a.shape == got.distance.shape == (9,) and got.y_period.shape == (9, 3)
        for r, row in enumerate(stack):
            one = match(know, row, 3, cfg)
            assert isinstance(one.t_a, int) and isinstance(one.distance, float)
            assert one.t_a == got.t_a[r]
            assert one.distance == got.distance[r]
            assert np.array_equal(one.y_period, got.y_period[r])
            assert np.array_equal(one.y_period, template[(one.t_a + width + np.arange(3)) % p])
            ref = [reference(seg, row) for seg in segments]
            assert ref[one.t_a] == pytest.approx(min(ref), rel=1e-12, abs=1e-15)
            assert one.distance == pytest.approx(min(ref), rel=1e-12, abs=1e-15)
        if distance == "dtw":
            lanes = dtw_distance(segments, stack[:, None, :], band)
            assert lanes.shape == (9, p)
            for r, a in np.ndindex(9, p):
                assert lanes[r, a] == dtw_distance(segments[a], stack[r], band)


@pytest.mark.parametrize("distance, lanes", [("mse", periodicity._MSE_LANES), ("dtw", periodicity._DTW_LANES)])
def test_stacked_match_across_blocks(distance, lanes):
    # three full blocks and a short fourth: every row matches exactly as it
    # does alone
    p, width = 7, 10
    block = lanes // (width if distance == "mse" else p)  # MSE blocks hold lanes // max(p, I) windows
    n = 3 * block + block // 3
    rng = np.random.default_rng([n, width])
    template = rng.uniform(size=p)
    know = PeriodKnowledge("m", template)
    cfg = PeriodicityConfig(distance=distance, dtw_band=2)
    stack = rng.uniform(size=(n, width))
    got = match(know, stack, 3, cfg)
    segments = template[(np.arange(p)[:, None] + np.arange(width)) % p]
    if distance == "mse":
        ref = np.mean((segments[None] - stack[:, None]) ** 2, axis=2)
        assert np.array_equal(got.t_a, np.argmin(ref, axis=1))
        assert got.distance == pytest.approx(ref.min(axis=1), rel=1e-12, abs=1e-15)
    assert np.array_equal(got.y_period, template[(got.t_a[:, None] + width + np.arange(3)) % p])
    edges = {e + d for e in range(block, n, block) for d in (-1, 0)}
    for r in range(n):
        one = match(know, stack[r], 3, cfg)
        assert one.t_a == got.t_a[r]
        assert one.distance == got.distance[r]
        assert np.array_equal(one.y_period, got.y_period[r])
        if distance == "dtw" and r in edges:
            ref = [dtw_reference(seg, stack[r], 2) for seg in segments]
            assert one.t_a == int(np.argmin(ref))
            assert one.distance == pytest.approx(min(ref), rel=1e-12, abs=1e-15)


def _lane_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A template and a stack of windows of one kind."""
    if kind == "random":
        return rng.uniform(size=17), rng.uniform(size=(300, 24))
    if kind == "quantised":  # values on a quarter grid: exact ties between offsets
        return rng.integers(0, 4, 12) / 4, rng.integers(0, 4, (400, 6)) / 4
    if kind == "near-ties-far-from-0":  # gaps the screen's ~1e-10 rounding can invert
        stack = 1000 + rng.integers(0, 3, (1000, 6)) / 3 + rng.normal(0.0, 3e-10, (1000, 6))
        return 1000 + rng.integers(0, 3, 12) / 3, stack
    if kind == "constant":  # every offset ties
        return np.full(9, 0.3), rng.uniform(size=(50, 5))
    if kind == "sub-cycle":  # a 3-tick cycle four times: offsets 3 apart tie
        cycle = rng.uniform(size=3)
        stack = np.resize(cycle, (200, 8)) + rng.normal(0.0, 1e-3, (200, 8)) * (np.arange(200) % 2)[:, None]
        return np.resize(cycle, 12), stack
    if kind == "cut-from-template":  # exact zero distances, at times at two offsets
        template = rng.integers(0, 3, 10) / 2
        starts = rng.integers(0, 10, 300)
        return template, template[(starts[:, None] + np.arange(7)) % 10]
    if kind == "width-1":
        return rng.uniform(size=5), rng.uniform(size=(100, 1))
    if kind == "wider-than-p":
        return rng.uniform(size=4), rng.uniform(size=(100, 11))
    if kind == "p-2":
        return rng.uniform(size=2), rng.uniform(size=(100, 7))
    if kind == "binary":  # 0/1 ticks: many windows keep tied offsets
        return rng.integers(0, 2, 13).astype(float), rng.integers(0, 2, (3000, 20)).astype(float)
    assert kind == "across-blocks"  # two full blocks of _MSE_LANES // max(p, I) windows, then one window
    return rng.uniform(size=7), rng.uniform(size=(2 * (periodicity._MSE_LANES // 10) + 1, 10))


@pytest.mark.parametrize("kind", ["random", "quantised", "near-ties-far-from-0", "constant", "sub-cycle",
                                  "cut-from-template", "width-1", "wider-than-p", "p-2", "binary",
                                  "across-blocks"])
def test_mse_match_equals_lane_oracle(kind):
    template, stack = _lane_case(kind, np.random.default_rng(list(kind.encode())))
    got = match(PeriodKnowledge("m", template), stack, 3, PeriodicityConfig())
    t_a, y_period, distance = match_mse_lanes(template, stack, 3)
    assert np.array_equal(got.t_a, t_a)
    assert got.distance.tobytes() == distance.tobytes()
    assert got.y_period.tobytes() == y_period.tobytes()


def test_mse_match_splits_a_one_ulp_gap():
    # Window (x0, x1) against offsets 0 and 1 of the template (s0, s1): the
    # two distances are equal in exact arithmetic when x1 == x0.  Stepping x1
    # by ulps gives pairs whose summed distances differ by exactly one ulp.
    # Near 1000 the screen's scores are about 1e6 and resolve only ~1e-10,
    # so it cannot order them; the smaller must win even at the larger offset.
    s0, s1, x0 = 1000.3, 1000.30001, 1000.55
    stack, want = [], []
    for k in range(-300, 301):
        x1 = x0 + k * math.ulp(x0)
        d = [((s0 - x0) * (s0 - x0) + (s1 - x1) * (s1 - x1)) / 2,
             ((s1 - x0) * (s1 - x0) + (s0 - x1) * (s0 - x1)) / 2]
        if abs(d[0] - d[1]) == math.ulp(min(d)):
            stack.append([x0, x1])
            want.append(int(d[1] < d[0]))
    assert 0 in want and 1 in want
    got = match(PeriodKnowledge("m", np.array([s0, s1])), np.array(stack), 1, PeriodicityConfig())
    assert got.t_a.tolist() == want
    _, y_period, distance = match_mse_lanes([s0, s1], np.array(stack), 1)
    assert got.distance.tobytes() == distance.tobytes()
    assert got.y_period.tobytes() == y_period.tobytes()


def test_match_digest_is_pinned():
    # seeded periodic, lax and spiky machines, each matched against its first
    # cycle as make_windows does (I = 24, j = 2); a change of arithmetic, of
    # the tie rule or of any offset changes the digest
    rng = np.random.default_rng(20231017)
    digest = hashlib.sha256()
    for kind in ("periodic", "lax", "spiky") * 2:
        period = int(rng.integers(12, 40))
        if kind == "lax":
            lengths = rng.integers(period - 3, period + 4, 1200 // (period - 3) + 1)
            wave = np.concatenate([np.sin(2 * np.pi * np.arange(n) / n) for n in lengths])[:1200]
        else:
            wave = np.sin(2 * np.pi * np.arange(1200) / period)
        values = 0.5 + 0.25 * wave + rng.normal(0.0, 0.04, 1200)
        if kind == "spiky":
            values += 0.45 * (rng.uniform(size=1200) < 0.02)
        got = match(PeriodKnowledge(kind, values[:period]),
                    np.lib.stride_tricks.sliding_window_view(values, 24), 2, PeriodicityConfig())
        for array, dtype in ((got.t_a, "<i8"), (got.distance, "<f8"), (got.y_period, "<f8")):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    assert digest.hexdigest() == "e9afbb885c90378d8c5f37d9c1d3ed0a8e023dd8132a79d2ba42deb2dfa01115"


def test_match_dtw_agrees_on_exact_alignment():
    template = np.arange(12, dtype=np.float64) / 12.0
    know = PeriodKnowledge("m", template)
    cfg = PeriodicityConfig(distance="dtw", dtw_band=2)
    m = match(know, template[4:9], j=2, cfg=cfg)
    assert m.t_a == 4
    assert m.distance == pytest.approx(0.0, abs=1e-15)


def test_match_window_longer_than_template():
    # two full cycles of a length-4 template still align at offset 1
    template = np.array([0.1, 0.9, 0.4, 0.6])
    know = PeriodKnowledge("m", template)
    x_short = template[(1 + np.arange(8)) % 4]
    m = match(know, x_short, j=2, cfg=PeriodicityConfig())
    assert m.t_a == 1
    assert np.allclose(m.y_period, template[(9 + np.arange(2)) % 4])


def test_build_knowledge_takes_first_cycle():
    s = generate(SyntheticSpec(length=480, period=24, amplitude=0.3, seed=4))
    report = detect_period(s, PeriodicityConfig())
    know = build_knowledge(s, report)
    assert know is not None
    assert len(know.x_period) == report.period
    assert np.array_equal(know.x_period, s.values[: report.period])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_knowledge_rejects_non_finite_template(bad):
    with pytest.raises(ValueError, match="finite"):
        PeriodKnowledge("m", [0.2, bad, 0.5])


def test_build_knowledge_aperiodic_none():
    s = generate(SyntheticSpec(length=480, noise_std=0.15, seed=6))
    report = detect_period(s, PeriodicityConfig())
    assert build_knowledge(s, report) is None


# --- dynamic time warping -----------------------------------------------------------

def test_dtw_identity_zero():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=10)
    assert dtw_distance(x, x) == 0.0


def test_dtw_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(size=6), rng.uniform(size=9)
    assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), rel=1e-12)


def test_dtw_matches_exhaustive_enumeration():
    rng = np.random.default_rng(2)
    for la in range(1, 7):
        for lb in range(1, 7):
            a = rng.uniform(size=la)
            b = rng.uniform(size=lb)
            got = dtw_distance(a, b)
            ref = dtw_exhaustive(a, b)
            assert got == pytest.approx(ref, abs=1e-12)


def test_dtw_banded_matches_unbanded_when_wide():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(size=8), rng.uniform(size=8)
    assert dtw_distance(a, b, band=8) == pytest.approx(dtw_distance(a, b))


def test_dtw_band_zero_equals_pointwise():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(size=7), rng.uniform(size=7)
    assert dtw_distance(a, b, band=0) == pytest.approx(float(((a - b) ** 2).sum()))


@pytest.mark.parametrize("band", [None, 0, 2, 5])
def test_dtw_matches_scalar_recurrence(band):
    rng = np.random.default_rng(11)
    for n, m in [(1, 1), (4, 6), (9, 9), (12, 7)]:
        if band is not None and band < abs(n - m):
            continue
        a, b = rng.uniform(size=n), rng.uniform(size=m)
        assert dtw_distance(a, b, band) == pytest.approx(dtw_reference(a, b, band), rel=1e-12)


def test_dtw_band_too_narrow():
    with pytest.raises(BandTooNarrow):
        dtw_distance(np.zeros(8), np.zeros(3), band=2)


def test_dtw_shifted_impulse_cheaper_than_euclidean():
    a = np.zeros(10)
    b = np.zeros(10)
    a[4] = 1.0
    b[5] = 1.0
    assert dtw_distance(a, b) < float(((a - b) ** 2).sum())


def test_dtw_band_monotone_in_width():
    rng = np.random.default_rng(5)
    a, b = rng.uniform(size=9), rng.uniform(size=9)
    prev = math.inf
    for band in (0, 1, 2, 4, 8):
        d = dtw_distance(a, b, band=band)
        assert d <= prev + 1e-12
        prev = d
