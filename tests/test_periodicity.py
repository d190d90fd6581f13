import math

import numpy as np
import pytest

from helpers import dtw_exhaustive, verify_bound
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
