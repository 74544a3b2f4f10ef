import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import usable_cpus
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import kolmogi, ndtr
from scipy.stats import chi2, norm

from solarband import normality
from solarband import series as series_mod
from solarband.normality import (
    TABLE_LEVELS,
    TABLE_SIZES,
    DegenerateSampleError,
    _decide,
    asymptotic_distance_quantile,
    diff_histogram,
    format_table,
    generate_table,
    jarque_bera,
    ks_normal,
    lilliefors,
    lilliefors_critical,
    lilliefors_statistic,
    normtests,
    parse_table,
)


def chi2_df2_quantile_oracle(p):
    """0.95-style quantile of chi-square(2) by Simpson integration of the pdf."""

    def cdf(x, steps=20000):
        grid = np.linspace(0.0, x, steps + 1)
        pdf = 0.5 * np.exp(-grid / 2.0)
        h = x / steps
        return h / 3.0 * (pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-1:2].sum())

    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# moment test
# ---------------------------------------------------------------------------


def test_jb_zero_for_zero_skew_and_kurtosis():
    # symmetric 8-point sample solving m4 = 3 * m2^2 exactly in the reals
    b = math.sqrt(9.0 + 4.0 * math.sqrt(6.0))
    x = np.array([-b, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, b])
    r = jarque_bera(x)
    assert r.statistic < 1e-12
    assert not r.reject


def test_jb_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        jarque_bera(np.full(20, 3.0))


def test_jb_threshold_matches_integration_oracle():
    r = jarque_bera(np.random.default_rng(0).standard_normal(100), level=0.05)
    assert abs(r.threshold - chi2_df2_quantile_oracle(0.95)) < 1e-6
    r10 = jarque_bera(np.random.default_rng(0).standard_normal(100), level=0.10)
    assert abs(r10.threshold - chi2_df2_quantile_oracle(0.90)) < 1e-6


def test_jb_affine_invariance():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(200)
    base = jarque_bera(x).statistic
    for a, b in ((2.5, -7.0), (-3.0, 11.0), (0.001, 0.0)):
        assert abs(jarque_bera(a * x + b).statistic - base) < 1e-9 * max(1.0, base)


def test_statistics_permutation_invariant():
    rng = np.random.default_rng(42)
    x = rng.standard_normal(100)
    shuffled = rng.permutation(x)
    assert jarque_bera(x).statistic == pytest.approx(jarque_bera(shuffled).statistic, abs=1e-12)
    assert ks_normal(x).statistic == ks_normal(shuffled).statistic
    assert lilliefors(x).statistic == pytest.approx(lilliefors(shuffled).statistic, abs=1e-15)


# ---------------------------------------------------------------------------
# fixed-reference distance test
# ---------------------------------------------------------------------------


def test_ks_at_reference_quantiles():
    n = 25
    x = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    r = ks_normal(x)
    assert abs(r.statistic - 1.0 / (2 * n)) < 1e-9


def test_ks_far_tail_limit():
    r = ks_normal(np.full(50, 10.0) + np.arange(50) * 1e-6)
    assert r.statistic > 1.0 - 1e-6
    assert r.reject


def test_ks_consistent_relabeling():
    rng = np.random.default_rng(43)
    x = rng.standard_normal(80)
    base = ks_normal(x, mean=0.0, std=1.0)
    moved = ks_normal(2.0 * x + 3.0, mean=3.0, std=2.0)
    assert abs(base.statistic - moved.statistic) < 1e-10


@st.composite
def _samples(draw):
    """Hand-picked floats, or a seeded normal sample at a drawn scale and offset."""
    if draw(st.booleans()):
        values = st.floats(-1e150, 1e150, allow_nan=False)
        return np.array(draw(st.lists(values, min_size=8, max_size=60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    return rng.standard_normal(draw(st.integers(8, 300))) * scale + draw(st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None, database=None)
@given(x=_samples(), level=st.sampled_from([0.2, 0.1, 0.05, 0.01]))
def test_ks_given_the_samples_moments_equals_ks_on_the_standardized_sample(x, level):
    """The CLI declares the sample's own moments; that must be bit for bit the old standardizing."""
    mean, std = x.mean(), x.std(ddof=1)
    assume(0 < std < math.inf)
    standardized = (x - mean) / std
    assume(np.var(x) > 0 and np.var(standardized) > 0)
    declared = ks_normal(x, level, mean, std)
    by_hand = ks_normal(standardized, level)
    assert declared.statistic.hex() == by_hand.statistic.hex()
    assert declared.threshold.hex() == by_hand.threshold.hex()
    assert declared.reject == by_hand.reject


def _outcome(run):
    """Each report's fields, floats in hex, or the type and message of what was raised."""
    try:
        return [(r.test_name, r.n, r.statistic.hex(), r.threshold.hex(), r.level, r.reject)
                for r in run()]
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None)
@given(x=_samples(), level=st.sampled_from([0.2, 0.1, 0.05, 0.01]))
@example(x=np.arange(7.0), level=0.05)  # short
@example(x=np.full(20, 3.0), level=0.05)  # zero variance
@example(x=np.random.default_rng(48).standard_normal(200) * 1e200, level=0.05)  # overflowing
def test_normtests_is_the_three_direct_calls(x, level):
    """Report by report in hex; a sample jarque_bera refuses raises its error, message and all."""
    direct = _outcome(lambda: [jarque_bera(x, level),
                               ks_normal(x, level, x.mean(), x.std(ddof=1)),
                               lilliefors(x, level)])
    assert _outcome(lambda: normtests(x, level)) == direct


def reference_jarque_bera(x, level):
    """The statistic from whole-array moments, each ``np.mean(centered**p)`` in one thread."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean()
        m2, m3, m4 = (float(np.mean(centered**p)) for p in (2, 3, 4))
    skewness = m3 / m2**1.5
    excess_kurtosis = m4 / m2**2 - 3.0
    return x.size / 6.0 * (skewness**2 + excess_kurtosis**2 / 4.0), float(chi2.ppf(1.0 - level, df=2))


@settings(max_examples=100, deadline=None, database=None)
@given(x=_samples(), level=st.sampled_from([0.2, 0.1, 0.05, 0.01]))
@example(x=np.random.default_rng(48).standard_normal(200) * 1e200, level=0.05)  # overflowing
def test_jarque_bera_does_not_depend_on_the_cpu_count(x, level):
    """Blocks of at most 8 samples over 1, 2, 3 and 5 CPUs: the whole-array statistic in hex."""
    outcomes = []
    with mock.patch.object(series_mod, "BLOCK", 8):
        for cpus in (1, 2, 3, 5):
            with usable_cpus(cpus):
                outcomes.append(_outcome(lambda: [jarque_bera(x, level)]))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    if isinstance(outcomes[0], list):
        statistic, threshold = reference_jarque_bera(x, level)
        assert outcomes[0][0][2:4] == (statistic.hex(), threshold.hex())


def reference_supremum_distance(z_sorted):
    """The sup distance in whole-row passes, one thread: ``(i + 1) / n - cdf`` and ``cdf - i / n``."""
    n = z_sorted.shape[-1]
    cdf = ndtr(z_sorted)
    steps = np.arange(1.0, n + 1.0)
    d_plus = np.max(steps / n - cdf, axis=-1)
    d_minus = np.max(cdf - (steps - 1.0) / n, axis=-1)
    return np.maximum(d_plus, d_minus)


@settings(max_examples=150, deadline=None, database=None)
@given(x=_samples(), level=st.sampled_from([0.2, 0.1, 0.05, 0.01]), declared=st.booleans())
@example(x=np.full(300, 3.0), level=0.05, declared=False)  # zero variance
def test_the_distance_tests_match_the_whole_row_reference(x, level, declared):
    """ks_normal and lilliefors in hex against the sup distance taken on a fresh array per pass."""
    mean, std = (x.mean(), x.std(ddof=1)) if declared else (0.0, 1.0)
    outcome = _outcome(lambda: [ks_normal(x, level, mean, std), lilliefors(x, level)])
    if isinstance(outcome, list):
        want = [reference_supremum_distance(np.sort((x - mean) / std)),
                reference_supremum_distance(np.sort((x - x.mean()) / x.std(ddof=1)))]
        assert [report[2] for report in outcome] == [float(w).hex() for w in want]


@pytest.mark.parametrize("mean, std", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                                       (0.0, math.inf), (0.0, 0.0), (0.0, -1.0)])
def test_ks_rejects_a_nonfinite_or_nonpositive_reference(mean, std):
    with pytest.raises(ValueError, match="reference"):
        ks_normal(np.random.default_rng(3).standard_normal(50), 0.05, mean, std)


def test_ks_critical_constant_from_series():
    # independent oracle: scipy's inverse of the asymptotic law
    for level in (0.20, 0.10, 0.05, 0.01):
        assert abs(asymptotic_distance_quantile(level) - kolmogi(level)) < 1e-9


def test_ks_threshold_scales_with_sqrt_n():
    r100 = ks_normal(np.random.default_rng(1).standard_normal(100))
    r400 = ks_normal(np.random.default_rng(2).standard_normal(400))
    assert r100.threshold == pytest.approx(2.0 * r400.threshold, rel=1e-12)


# ---------------------------------------------------------------------------
# estimated-parameter distance test
# ---------------------------------------------------------------------------


def test_lilliefors_affine_invariance():
    rng = np.random.default_rng(44)
    x = rng.standard_normal(150)
    base = lilliefors_statistic(x)
    for a, b in ((5.0, 100.0), (-2.0, 3.0)):
        assert abs(lilliefors_statistic(a * x + b) - base) < 1e-12


def test_lilliefors_critical_interpolation():
    # exact at tabulated sizes, monotone decreasing across them
    assert lilliefors_critical(500, 0.05) < lilliefors_critical(100, 0.05)
    mid = lilliefors_critical(130, 0.05)
    assert lilliefors_critical(150, 0.05) < mid < lilliefors_critical(100, 0.05)
    # beyond the table: 1/sqrt(n) scaling
    big = lilliefors_critical(8000, 0.05)
    assert big == pytest.approx(lilliefors_critical(2000, 0.05) * math.sqrt(2000 / 8000), rel=1e-12)
    with pytest.raises(ValueError):
        lilliefors_critical(100, 0.037)


def test_table_generation_deterministic_and_parseable(monkeypatch):
    monkeypatch.setattr(normality, "TABLE_SIZES", (10, 25))
    rows = generate_table(seed=9, replicates=2000)
    again = generate_table(seed=9, replicates=2000)
    assert rows == again
    table = parse_table(format_table(rows))
    assert set(table) == set((level for _, level, _ in rows))
    # per-size child seeds: tabulating a superset must not change a bucket
    monkeypatch.setattr(normality, "TABLE_SIZES", (25,))
    only25 = generate_table(seed=9, replicates=2000)
    assert [r for r in rows if r[0] == 25] == only25


def test_lilliefors_statistic_of_rows_is_each_rows_statistic():
    rows = np.random.default_rng(45).standard_normal((5, 40))
    rows[2] *= 1e3
    got = lilliefors_statistic(rows)
    assert got.shape == (5,)
    assert got.tolist() == [lilliefors_statistic(row) for row in rows]
    rows[3] = 1.0
    with pytest.raises(DegenerateSampleError, match=r"^degenerate sample: std 0\.0 is zero or overflows$"):
        lilliefors_statistic(rows)


def reference_generate_table(seed, replicates, sizes):
    """The batched loop that spelled the statistic out a second time, kept as the reference."""
    rows = []
    for n in sizes:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        stats = np.empty(replicates)
        done = 0
        chunk = max(1, 4_000_000 // n)
        while done < replicates:
            m = min(chunk, replicates - done)
            samples = rng.standard_normal((m, n))
            means = samples.mean(axis=1, keepdims=True)
            stds = samples.std(axis=1, ddof=1, keepdims=True)
            stats[done : done + m] = reference_supremum_distance(np.sort((samples - means) / stds, axis=1))
            done += m
        stats.sort()
        for level in TABLE_LEVELS:
            rank = math.ceil((1.0 - level) * replicates)
            rows.append((n, level, float(stats[rank - 1])))
    return rows


# 4,001 draws a chunk of 999 samples, then a chunk of one.
@example(seed=7, replicates=1000, sizes=[4001])
@settings(max_examples=25, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    replicates=st.integers(1000, 2000),
    sizes=st.lists(st.sampled_from(TABLE_SIZES), min_size=1, max_size=3, unique=True),
)
def test_table_is_the_reference_loop_bit_for_bit(seed, replicates, sizes):
    sizes = tuple(sorted(sizes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normality, "TABLE_SIZES", sizes)
        got = generate_table(seed=seed, replicates=replicates)
    want = reference_generate_table(seed, replicates, sizes)
    assert [(n, lv, c.hex()) for n, lv, c in got] == [(n, lv, c.hex()) for n, lv, c in want]


def test_a_statistic_equal_to_its_threshold_is_no_reject(monkeypatch):
    assert not _decide("t", 10, 0.25, 0.25, 0.05).reject
    assert _decide("t", 10, math.nextafter(0.25, 1.0), 0.25, 0.05).reject
    x = np.random.default_rng(46).standard_normal(100)
    monkeypatch.setattr(normality, "lilliefors_critical", lambda n, level: lilliefors_statistic(x))
    report = lilliefors(x)
    assert report.statistic == report.threshold
    assert not report.reject


# ---------------------------------------------------------------------------
# size and power
# ---------------------------------------------------------------------------


def _rejection_rate(test, sampler, replicates=1000, n=500, seed=1000):
    rng = np.random.default_rng(seed)
    rejected = 0
    for _ in range(replicates):
        rejected += test(sampler(rng, n)).reject
    return rejected / replicates


def _gaussian(rng, n):
    return rng.standard_normal(n)


def _mixture(rng, n):
    signs = rng.integers(0, 2, n) * 6.0 - 3.0
    return signs + rng.standard_normal(n)


def test_size_on_gaussian_null():
    for test in (jarque_bera, ks_normal, lilliefors):
        rate = _rejection_rate(test, _gaussian)
        assert 0.035 <= rate <= 0.065, (test.__name__, rate)


def test_lilliefors_size_close_to_nominal():
    rate = _rejection_rate(lilliefors, _gaussian, seed=2000)
    assert abs(rate - 0.05) <= 0.015


def test_lilliefors_power_on_uniform():
    rate = _rejection_rate(lilliefors, lambda rng, n: rng.uniform(0, 1, n), seed=3000)
    assert rate >= 0.99


def test_power_exceeds_size_on_bimodal_mixture():
    for test in (jarque_bera, ks_normal, lilliefors):
        null = _rejection_rate(test, _gaussian, replicates=200, seed=4000)
        alt = _rejection_rate(test, _mixture, replicates=200, seed=4000)
        assert alt > null, test.__name__


def _refused_without_warnings(test, x, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError, match=match):
            test(x)


@pytest.mark.parametrize("scale", [1e80, 1e160, 1e200, 1e300])
def test_jb_moments_beyond_double_range_are_degenerate(scale):
    """At 1e80 the fourth moment overflows; at 1e160 the statistic was NaN and never rejected."""
    x = np.random.default_rng(48).standard_normal(200) * scale
    _refused_without_warnings(jarque_bera, x, "overflow")


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_lilliefors_std_beyond_double_range_is_degenerate(scale):
    """The std overflowed to inf, every standardized value became 0 and the statistic 0.5."""
    x = np.random.default_rng(49).standard_normal(200) * scale
    _refused_without_warnings(lilliefors, x, "overflow")
    _refused_without_warnings(lilliefors_statistic, x, "overflow")


def test_jb_variance_whose_powers_underflow_is_degenerate():
    """A subnormal variance raised to 1.5 is 0, which divided by zero."""
    x = np.random.default_rng(50).standard_normal(200) * 1e-160
    _refused_without_warnings(jarque_bera, x, "variance")


def test_minimum_sample_size_enforced():
    x = np.arange(7, dtype=float)
    for test in (jarque_bera, ks_normal, lilliefors):
        with pytest.raises(ValueError):
            test(x)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_single_value_single_bin():
    h = diff_histogram(np.full(12, 3.5), bins=1)
    assert h.counts.tolist() == [12]


def test_histogram_counts_conserved():
    rng = np.random.default_rng(45)
    x = rng.normal(0, 2, 5000)
    for bins in (1, 7, 40):
        assert diff_histogram(x, bins).counts.sum() == 5000


def test_histogram_curve_integrates_to_sample_size():
    rng = np.random.default_rng(46)
    x = rng.standard_normal(10000)
    h = diff_histogram(x, bins=50)
    binwidth = h.bin_edges[1] - h.bin_edges[0]
    integral = np.trapezoid(h.curve_y, h.curve_x) / binwidth
    assert abs(integral - 10000) / 10000 < 0.02


@pytest.mark.parametrize(
    "sample, bins",
    [
        ([0.0, 5e-324], 60),  # a span narrower than bins float steps
        ([1.0, 1.0000000000000002], 60),
        ([1e16], 1),  # the +/-0.5 widening is absorbed at this magnitude
        ([-1e308, 1e308], 1),  # a span wider than the largest float
    ],
)
def test_histogram_unsplittable_span_is_degenerate(sample, bins):
    with pytest.raises(DegenerateSampleError, match=f"into {bins} bins"):
        diff_histogram(np.array(sample), bins)


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_histogram_std_beyond_double_range_is_degenerate(scale):
    """The std overflowed to inf and the normal curve came out all zero beside correct counts."""
    x = np.random.default_rng(1).standard_normal(200) * scale
    _refused_without_warnings(lambda sample: diff_histogram(sample, 60), x, "overflow")


def test_histogram_mean_beyond_double_range_is_degenerate():
    x = np.full(200, 1.5e308)
    x[0] = 1e308
    _refused_without_warnings(lambda sample: diff_histogram(sample, 60), x, "overflow")


def test_histogram_narrow_span_that_splits_is_kept():
    h = diff_histogram(np.array([0.0, 5e-324]), 1)
    assert h.counts.tolist() == [2]
    assert h.bin_edges.tolist() == [0.0, 5e-324]


def test_histogram_validation():
    with pytest.raises(ValueError):
        diff_histogram(np.array([]), 5)
    with pytest.raises(ValueError):
        diff_histogram(np.ones(5), 0)
