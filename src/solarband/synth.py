"""Synthetic minute-resolution irradiance with controllable cloud regimes.

A fixture generator, not a radiative model: a low-accuracy solar-position
bell curve scaled by a seeded, mean-reverting cloud transmittance process.
Output is bitwise deterministic for a fixed config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import accumulate

import numpy as np

from .series import MAX_GRID_MINUTES, IrradianceSeries

REFERENCE_YEAR = 2021
MINUTES_PER_DAY = 1440
CLOUD_FLOOR = 0.05
CLOUD_CEIL = 1.0

REGIMES = ("clear", "broken", "overcast")

# Transmittance process per regime: base level(s), AR(1) noise, clip range.
_CLEAR = {"level": 0.99, "rho": 0.9, "sigma": 0.002, "lo": 0.95, "hi": CLOUD_CEIL}
_OVERCAST = {"level": 0.25, "rho": 0.97, "sigma": 0.01, "lo": CLOUD_FLOOR, "hi": 0.45}
_BROKEN = {
    "high": 0.95,
    "low": 0.30,
    "dwell_high": 20.0,  # mean minutes in the bright state
    "dwell_low": 8.0,
    "rho": 0.8,
    "sigma": 0.03,
    "lo": CLOUD_FLOOR,
    "hi": CLOUD_CEIL,
}


@dataclass(frozen=True)
class SynthConfig:
    latitude: float = 48.7
    day_of_year: int = 150
    days: int = 1
    clear_sky_peak: float = 1000.0
    cloud_regime: str = "broken"
    seed: int = 0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError("latitude must be in [-90, 90]")
        if not 1 <= self.day_of_year <= 366:
            raise ValueError("day_of_year must be in 1..366")
        max_days = MAX_GRID_MINUTES // MINUTES_PER_DAY  # the longest span the readers accept
        if not 1 <= self.days <= max_days:
            raise ValueError(f"days must be in 1..{max_days}")
        if not 0 < self.clear_sky_peak < math.inf:  # NaN, or inf times a night zero, is a gap
            raise ValueError("clear_sky_peak must be finite and > 0")
        if self.cloud_regime not in REGIMES:
            raise ValueError(f"cloud_regime must be one of {REGIMES}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def solar_elevation_sine(latitude: float, day_of_year: int, minute_of_day: np.ndarray) -> np.ndarray:
    """sin(solar elevation) from declination and hour angle, longitude 0.

    Accuracy near a degree, which is ample for a test fixture.
    """
    declination = 0.409 * math.sin(2.0 * math.pi * (day_of_year - 80) / 365.0)
    hour_angle = np.radians(0.25 * (minute_of_day - 720.0))  # 15 deg/h
    lat = math.radians(latitude)
    return math.sin(lat) * math.sin(declination) + math.cos(lat) * math.cos(
        declination
    ) * np.cos(hour_angle)


def clear_sky_curve(cfg: SynthConfig) -> np.ndarray:
    """Cloudless per-minute irradiance over the configured span; 0 at night."""
    minute_of_day = np.arange(MINUTES_PER_DAY, dtype=float)
    days = []
    for d in range(cfg.days):
        doy = (cfg.day_of_year - 1 + d) % 365 + 1
        elevation = solar_elevation_sine(cfg.latitude, doy, minute_of_day)
        days.append(cfg.clear_sky_peak * np.maximum(0.0, elevation))
    return np.concatenate(days)


# Steps of the AR(1) recurrence that pass through Python floats at a time:
# small enough that the per-chunk lists add nothing to the track's peak memory.
_CHUNK = 4096


def _ar1_noise(shocks: np.ndarray, rho: float, sigma: float) -> np.ndarray:
    """noise[k] = rho * noise[k - 1] + sigma * shocks[k] from noise 0, in place.

    The same float operations in the same order as a per-minute loop, so the
    result is bit for bit that loop's.
    """
    last = 0.0
    for a in range(0, shocks.size, _CHUNK):
        steps = (sigma * shocks[a : a + _CHUNK]).tolist()
        chunk = list(accumulate(steps, lambda x, step: rho * x + step, initial=last))
        shocks[a : a + _CHUNK] = chunk[1:]
        last = chunk[-1]
    return shocks


def _broken_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-minute base level of the two-state dwell process, one step per dwell.

    Each minute takes 1 off the time remaining, and the state switches when
    that is no longer positive. So from remaining r the state holds for
    ceil(r) - 1 minutes and switches at the next one. While the remaining
    time is at least 1 each subtraction of 1 is exact, so r - held is what
    those minutes leave, and the last subtraction rounds as a per-minute loop
    rounds it. The dwell draws come in the loop's order.
    """
    p = _BROKEN
    bright = True
    remaining = rng.exponential(p["dwell_high"])
    states: list[bool] = []
    lengths: list[int] = []
    start = k = 0  # the current state began at minute start; k is the next minute
    while True:
        held = max(math.ceil(remaining) - 1, 0)  # below 0 only for a first draw of 0.0
        k += held
        if k >= n:
            break
        remaining = (remaining - held) - 1.0
        states.append(bright)
        lengths.append(k - start)
        while remaining <= 0.0:
            bright = not bright
            remaining += rng.exponential(p["dwell_high"] if bright else p["dwell_low"])
        start = k
        k += 1
    states.append(bright)
    lengths.append(n - start)
    return np.repeat(np.where(states, p["high"], p["low"]), lengths)


def _cloud_factor(cfg: SynthConfig, n: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal(n)
    if cfg.cloud_regime == "broken":
        p = _BROKEN
        level = _broken_levels(rng, n)
    else:
        p = _CLEAR if cfg.cloud_regime == "clear" else _OVERCAST
        level = p["level"]
    factor = _ar1_noise(shocks, p["rho"], p["sigma"])
    np.add(level, factor, out=factor)
    return np.clip(factor, p["lo"], p["hi"], out=factor)


def generate(cfg: SynthConfig) -> IrradianceSeries:
    """Generate a gap-free synthetic series: clear-sky curve times cloud factor.

    Night samples are exactly zero; all samples stay within
    [0, clear_sky_peak]. Identical configs give bitwise-identical output.
    """
    clear = clear_sky_curve(cfg)
    factor = _cloud_factor(cfg, clear.size)
    start = datetime(REFERENCE_YEAR, 1, 1, tzinfo=timezone.utc) + timedelta(
        days=cfg.day_of_year - 1
    )
    return IrradianceSeries(start_time=start, values=clear * factor)
