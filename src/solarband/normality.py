"""Normality tests for forecast errors: moment-based, distance-based, and
distance-based with estimated parameters.

All three tests share the same report shape and the same strict decision
rule: reject iff statistic > critical value at the chosen level. p-values
are deliberately not computed; the contract is the reject decision.

Critical values come from three different places:

* moment test: chi-square(2) quantile (asymptotic null),
* fixed-reference distance test: the asymptotic supremum-distance law,
  with the level constant solved from its series expansion,
* estimated-parameter distance test: Monte-Carlo null tables generated
  with a fixed seed and shipped as package data (``data/lilliefors_critical.csv``,
  regenerable through the CLI).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import ndtr
from scipy.stats import chi2

DEFAULT_LEVEL = 0.05
MIN_SAMPLES = 8

TABLE_FILENAME = "lilliefors_critical.csv"
TABLE_HEADER = "n,level,critical"
TABLE_SIZES = (
    list(range(8, 21))
    + [25, 30, 40, 50, 75, 100, 150, 200, 300, 500, 750, 1000, 1500, 2000]
)
TABLE_LEVELS = (0.20, 0.15, 0.10, 0.05, 0.01)
TABLE_REPLICATES = 100_000
MAX_REPLICATES = 10**7  # 80 MB of statistics per size, allocated before any work
TABLE_SEED = 1956127
CURVE_POINTS = 257


class DegenerateSampleError(ValueError):
    """Sample variance is zero or out of double range, or its span cannot be binned."""


@dataclass(frozen=True)
class NormalityReport:
    """Outcome of one normality test at one significance level."""

    test_name: str
    n: int
    statistic: float
    threshold: float
    level: float
    reject: bool


def _decide(
    test_name: str, n: int, statistic: float, threshold: float, level: float
) -> NormalityReport:
    """The one decision rule: reject iff the statistic exceeds the threshold; a tie keeps."""
    return NormalityReport(test_name, n, statistic, threshold, level, reject=statistic > threshold)


def _validate_sample(x: np.ndarray, level: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("sample must be 1-d")
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("sample must be finite")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return x


def jarque_bera(x: np.ndarray, level: float = DEFAULT_LEVEL) -> NormalityReport:
    """Moment-based normality test on skewness and excess kurtosis.

    Parameters
    ----------
    x : array_like, 1d
        Sample, at least 8 finite values with positive variance and moments
        in double range (else :class:`DegenerateSampleError`).
    level : float
        Significance level; the critical value is the chi-square(2)
        quantile at 1 - level.

    Notes
    -----
    Skewness and kurtosis use plain 1/n central moments; kurtosis is the
    excess form (Gaussian -> 0), which keeps the classic off-by-3 bug out.
    """
    x = _validate_sample(x, level)
    n = x.size
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean()
        m2, m3, m4 = (float(np.mean(centered**p)) for p in (2, 3, 4))
    if not np.isfinite((m2, m3, m4)).all():
        raise DegenerateSampleError("degenerate sample: its moments overflow double precision")
    if m2**2 == 0.0:  # m2 ** 1.5 and m2 ** 2 divide below
        raise DegenerateSampleError(f"degenerate sample: variance {m2!r} is zero or its square underflows")
    skewness = m3 / m2**1.5
    excess_kurtosis = m4 / m2**2 - 3.0
    statistic = n / 6.0 * (skewness**2 + excess_kurtosis**2 / 4.0)
    threshold = float(chi2.ppf(1.0 - level, df=2))
    return _decide("jarque_bera", n, statistic, threshold, level)


def _supremum_distance(z_sorted: np.ndarray) -> np.ndarray:
    """Two-sided sup distance between the empirical CDF and the normal CDF, per last-axis row."""
    n = z_sorted.shape[-1]
    cdf = ndtr(z_sorted)
    steps = np.arange(1.0, n + 1.0)
    d_plus = np.max(steps / n - cdf, axis=-1)
    d_minus = np.max(cdf - (steps - 1.0) / n, axis=-1)
    return np.maximum(d_plus, d_minus)


def asymptotic_distance_quantile(level: float) -> float:
    """Solve K(c) = 1 - level for the limiting sup-distance law by bisection.

    K(x) = 1 - 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 x^2); the series
    converges fast enough that 200 terms are far beyond double precision.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")

    def cdf(x: float) -> float:
        k = np.arange(1, 201, dtype=float)
        return 1.0 - 2.0 * float(np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2)))

    lo, hi = 0.05, 5.0
    target = 1.0 - level
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_normal(
    x: np.ndarray,
    level: float = DEFAULT_LEVEL,
    mean: float = 0.0,
    std: float = 1.0,
) -> NormalityReport:
    """Sup-distance test against a normal with fixed reference parameters.

    Parameters
    ----------
    x : array_like, 1d
        Sample, at least 8 finite values with positive variance.
    level : float
        Significance level.
    mean, std : float
        Reference parameters. These are declared by the caller, not fitted;
        standardizing by the sample's own moments changes the null law and
        belongs to :func:`lilliefors`. Both must be finite, ``std`` > 0.

    Notes
    -----
    The critical value is c(level) / sqrt(n) from the asymptotic law of the
    scaled supremum distance.
    """
    x = _validate_sample(x, level)
    if not (math.isfinite(mean) and 0 < std < math.inf):
        raise ValueError("reference mean must be finite and reference std finite and > 0")
    if np.var(x) == 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")
    n = x.size
    statistic = float(_supremum_distance(np.sort((x - mean) / std)))
    threshold = asymptotic_distance_quantile(level) / math.sqrt(n)
    return _decide("kolmogorov_smirnov", n, statistic, threshold, level)


def lilliefors_statistic(x: np.ndarray) -> float | np.ndarray:
    """Sup distance after standardizing by the sample mean and std (ddof=1), per last-axis row.

    A 1-d sample gives a float. A row whose std is zero or overflows raises
    :class:`DegenerateSampleError`.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        std = x.std(axis=-1, ddof=1, keepdims=True)
    bad = ~((0.0 < std) & (std < math.inf))  # NaN too
    if bad.any():
        first = float(std[bad][0])
        raise DegenerateSampleError(f"degenerate sample: std {first!r} is zero or overflows")
    distance = _supremum_distance(np.sort((x - x.mean(axis=-1, keepdims=True)) / std))
    return float(distance) if x.ndim == 1 else distance


def lilliefors(x: np.ndarray, level: float = DEFAULT_LEVEL) -> NormalityReport:
    """Sup-distance normality test with mean and std estimated from the sample.

    Parameters
    ----------
    x : array_like, 1d
        Sample, at least 8 finite values with positive variance.
    level : float
        Significance level; must be one of the tabulated levels
        (see ``TABLE_LEVELS``).

    Notes
    -----
    Estimating the parameters shrinks the null distribution of the distance,
    so the fixed-reference critical values would be badly conservative here.
    Critical values come from the simulated null table instead.
    """
    x = _validate_sample(x, level)
    n = x.size
    statistic = lilliefors_statistic(x)
    threshold = lilliefors_critical(n, level)
    return _decide("lilliefors", n, statistic, threshold, level)


def normtests(x: np.ndarray, level: float = DEFAULT_LEVEL) -> list[NormalityReport]:
    """The normality battery: jarque_bera, ks_normal and lilliefors, in that order.

    jarque_bera refuses a short, zero-variance or overflowing sample first. ks_normal is
    declared the sample's own mean and std (ddof=1), a case lilliefors handles exactly.
    """
    return [jarque_bera(x, level), ks_normal(x, level, np.mean(x), np.std(x, ddof=1)),
            lilliefors(x, level)]


# ---------------------------------------------------------------------------
# Monte-Carlo null table for the estimated-parameter test
# ---------------------------------------------------------------------------


def generate_table(
    seed: int = TABLE_SEED,
    replicates: int = TABLE_REPLICATES,
    sizes: list[int] | None = None,
) -> list[tuple[int, float, float]]:
    """Simulate null critical values for the estimated-parameter test.

    For each sample size, ``replicates`` standard-normal samples are drawn,
    the statistic computed by :func:`lilliefors_statistic` itself, and
    critical values read off as conservative order statistics. Each size gets
    its own child seed, so per-size results do not depend on which sizes are
    requested together.
    """
    if not 1000 <= replicates <= MAX_REPLICATES:
        raise ValueError(f"replicates must be in [1000, {MAX_REPLICATES}] for a usable quantile")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    sizes = list(TABLE_SIZES) if sizes is None else sorted(sizes)
    rows: list[tuple[int, float, float]] = []
    for n in sizes:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        stats = np.empty(replicates)
        done = 0
        chunk = max(1, 4_000_000 // n)
        while done < replicates:
            m = min(chunk, replicates - done)
            stats[done : done + m] = lilliefors_statistic(rng.standard_normal((m, n)))
            done += m
        stats.sort()
        for level in TABLE_LEVELS:
            rank = math.ceil((1.0 - level) * replicates)
            rows.append((n, level, float(stats[rank - 1])))
    return rows


def format_table(rows: list[tuple[int, float, float]]) -> str:
    lines = [TABLE_HEADER]
    for n, level, critical in rows:
        lines.append(f"{n},{level},{critical!r}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> dict[float, list[tuple[int, float]]]:
    """Parse a ``n,level,critical`` CSV into {level: [(n, critical), ...]}."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != TABLE_HEADER:
        raise ValueError(f"expected header {TABLE_HEADER!r}")
    by_level: dict[float, list[tuple[int, float]]] = {}
    for line in lines[1:]:
        n_text, level_text, crit_text = line.split(",")
        by_level.setdefault(float(level_text), []).append((int(n_text), float(crit_text)))
    for entries in by_level.values():
        entries.sort()
    return by_level


@functools.cache
def _packaged_table() -> dict[float, list[tuple[int, float]]]:
    return parse_table(resources.files("solarband").joinpath(f"data/{TABLE_FILENAME}").read_text())


def lilliefors_critical(n: int, level: float = DEFAULT_LEVEL) -> float:
    """Critical value for the estimated-parameter test at sample size ``n``.

    Exact at tabulated sizes. Between sizes, critical * sqrt(n) is
    interpolated linearly in log n (the statistic scales like 1/sqrt(n)
    with a slowly varying constant); beyond the largest size the constant
    is held fixed.
    """
    table = _packaged_table()
    if level not in table:
        available = ", ".join(str(lv) for lv in sorted(table, reverse=True))
        raise ValueError(f"level {level} not tabulated (available: {available})")
    entries = table[level]
    sizes = [entry[0] for entry in entries]
    if n < sizes[0]:
        raise ValueError(f"n={n} below smallest tabulated size {sizes[0]}")
    if n >= sizes[-1]:
        n_max, crit_max = entries[-1]
        return crit_max * math.sqrt(n_max / n)
    j = bisect.bisect_right(sizes, n)
    (n_lo, crit_lo), (n_hi, crit_hi) = entries[j - 1], entries[j]
    if n == n_lo:
        return crit_lo
    c_lo = crit_lo * math.sqrt(n_lo)
    c_hi = crit_hi * math.sqrt(n_hi)
    w = (math.log(n) - math.log(n_lo)) / (math.log(n_hi) - math.log(n_lo))
    return (c_lo + w * (c_hi - c_lo)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Histogram with fitted normal overlay
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Histogram:
    """Equal-width histogram plus a fitted normal curve in count units."""

    bin_edges: np.ndarray
    counts: np.ndarray
    curve_x: np.ndarray
    curve_y: np.ndarray


def diff_histogram(x: np.ndarray, bins: int) -> Histogram:
    """Histogram of a sample with a normal overlay scaled to count units.

    Bins are equal-width over [min, max] (a degenerate span is widened by
    half a unit each side so the single bin still holds everything). The
    overlay is the normal density with the sample mean/std at ``CURVE_POINTS``
    points, scaled by n * binwidth so curve and bars share the y axis. A
    span that floats cannot split into ``bins`` strictly increasing edges
    (narrower than ``bins`` float steps, or wider than the largest float), or
    a std that leaves double range (a spread past about 1e154), raises
    :class:`DegenerateSampleError`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("sample must be 1-d and non-empty")
    if not np.isfinite(x).all():
        raise ValueError("sample must be finite")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
    if not (edges[:-1] < edges[1:]).all():
        raise DegenerateSampleError(f"span [{lo!r}, {hi!r}] cannot be split into {bins} bins")
    counts, bin_edges = np.histogram(x, bins=bins, range=(lo, hi))
    binwidth = (hi - lo) / bins
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing std is refused below
        mean = float(x.mean())
        std = float(x.std())
    if not std < math.inf:  # NaN too, from a mean that overflows
        raise DegenerateSampleError(f"degenerate sample: std {std!r} overflows double precision")
    curve_x = np.linspace(lo, hi, CURVE_POINTS)
    if std > 0:
        density = np.exp(-0.5 * ((curve_x - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
        curve_y = density * x.size * binwidth
    else:
        curve_y = np.zeros_like(curve_x)
    return Histogram(
        bin_edges=bin_edges,
        counts=counts,
        curve_x=curve_x,
        curve_y=curve_y,
    )
