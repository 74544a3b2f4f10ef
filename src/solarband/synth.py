"""Synthetic minute-resolution irradiance with controllable cloud regimes.

A fixture generator, not a radiative model: a low-accuracy solar-position
bell curve scaled by a seeded, mean-reverting cloud transmittance process.
Output is bitwise deterministic for a fixed config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

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
        if not self.clear_sky_peak > 0:  # NaN would write a file of gaps only
            raise ValueError("clear_sky_peak must be > 0")
        if self.cloud_regime not in REGIMES:
            raise ValueError(f"cloud_regime must be one of {REGIMES}")


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


def _cloud_factor(cfg: SynthConfig, n: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal(n)
    factor = np.empty(n)

    if cfg.cloud_regime == "broken":
        p = _BROKEN
        bright = True
        remaining = rng.exponential(p["dwell_high"])
        noise = 0.0
        for k in range(n):
            remaining -= 1.0
            while remaining <= 0.0:
                bright = not bright
                remaining += rng.exponential(p["dwell_high"] if bright else p["dwell_low"])
            level = p["high"] if bright else p["low"]
            noise = p["rho"] * noise + p["sigma"] * shocks[k]
            factor[k] = min(max(level + noise, p["lo"]), p["hi"])
        return factor

    p = _CLEAR if cfg.cloud_regime == "clear" else _OVERCAST
    noise = 0.0
    for k in range(n):
        noise = p["rho"] * noise + p["sigma"] * shocks[k]
        factor[k] = min(max(p["level"] + noise, p["lo"]), p["hi"])
    return factor


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
