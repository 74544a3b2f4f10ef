"""Synthetic minute-resolution irradiance with controllable cloud regimes.

A fixture generator, not a radiative model: a low-accuracy solar-position
bell curve scaled by a seeded, mean-reverting cloud transmittance process.
Output is bitwise deterministic for a fixed config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .series import MAX_GRID_MINUTES, MINUTES_PER_DAY, IrradianceSeries, frozen

REFERENCE_YEAR = 2021
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
_PROCESS = {"clear": _CLEAR, "broken": _BROKEN, "overcast": _OVERCAST}


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


def clear_sky_curve(cfg: SynthConfig) -> np.ndarray:
    """Cloudless per-minute irradiance over the configured span; 0 at night.

    The peak times sin(solar elevation) from declination and hour angle at
    longitude 0, accurate to about a degree, which is ample for a test
    fixture. Each day is flat + tilt * cos(hour angle), so one outer product
    gives every day, with the same rounding as a day at a time. The curve
    is built in place, each operation and operand order as in that loop.
    """
    lat = math.radians(cfg.latitude)
    days = [(cfg.day_of_year - 1 + d) % 365 + 1 for d in range(cfg.days)]
    declinations = [0.409 * math.sin(2.0 * math.pi * (doy - 80) / 365.0) for doy in days]
    flat = np.array([math.sin(lat) * math.sin(dec) for dec in declinations])
    tilt = np.array([math.cos(lat) * math.cos(dec) for dec in declinations])
    minute_of_day = np.arange(MINUTES_PER_DAY, dtype=float)
    cos_hour = np.cos(np.radians(0.25 * (minute_of_day - 720.0)))  # 15 deg/h
    elevation = np.multiply(tilt[:, None], cos_hour)
    elevation += flat[:, None]
    np.maximum(0.0, elevation, out=elevation)
    elevation *= cfg.clear_sky_peak
    return elevation.ravel()


# Minutes per lane of the side-by-side recurrence at the largest rho. Its warm-up
# forgets a wrong start by a factor rho**_LANE, 0.97**2048 (about 1e-27).
_LANE = 2048
# Dwell times drawn from the generator at a time.
_DRAWS = 4096


def _lane(rho: float) -> int:
    """The fewest minutes over which rho forgets a wrong start at least as much as
    the overcast rho does over _LANE: 280 for broken, 593 for clear, _LANE for overcast.

    Read at call time, so that a patched _LANE shrinks every regime's lane.
    """
    return math.ceil(_LANE * (math.log(_OVERCAST["rho"]) / math.log(rho)))


def _ar1_noise(by_lane: np.ndarray, rho: float, sigma: float) -> np.ndarray:
    """noise[k] = rho * noise[k - 1] + sigma * shocks[k] from noise 0, in place.

    by_lane holds the shocks one lane of _lane(rho) minutes per row, a short
    track padded with zero shocks. The lanes run side by side, one numpy step
    per minute of a lane: y *= rho, then y += step, the two separately rounded
    operations of the per-minute loop. Lane 0 starts from the loop's exact 0.
    Each other lane starts from a guess, first the state a read-only warm-up
    reaches from 0 over the previous lane's steps. While a guess differs, bit
    for bit, from the previous lane's last value, the guesses take those last
    values, the steps are rebuilt from the shocks and the lanes run again.
    Then by induction every sample is the loop's: a lane that starts from the
    loop's exact state takes the loop's steps from it, so it ends on the
    loop's exact state, which is the next lane's start. Each round makes at
    least one more lane's start exact, so there are at most as many rounds as
    lanes. A lane of _lane(rho) minutes forgets a wrong start as much as the
    overcast lane does, so a year merges in one round in every regime.
    """
    lanes, lane = by_lane.shape
    # Row j holds minute j of every lane: its steps, then its noise.
    by_minute = np.multiply(by_lane.T, sigma, out=np.empty((lane, lanes)))
    start = np.zeros(lanes)
    guess = start[1:]
    if guess.size:  # a single lane has no start to guess
        for step in by_minute[:, :-1]:
            guess *= rho
            guess += step
    while True:
        y = start.copy()
        for row in by_minute:
            y *= rho
            y += row
            row[:] = y
        ends = by_minute[-1, :-1]
        # Compared as int64, so that -0.0 and 0.0, equal as floats, count as different.
        if np.array_equal(guess.view(np.int64), ends.view(np.int64)):
            break
        guess[:] = ends
        np.multiply(by_lane.T, sigma, out=by_minute)
    by_lane[...] = by_minute.T
    return by_lane


def _broken_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-minute base level of the two-state dwell process, one step per dwell.

    Each minute takes 1 off the time remaining, and the state switches when
    that is no longer positive. So from remaining r the state holds for
    ceil(r) - 1 minutes and switches at the next one. While the remaining
    time is at least 1 each subtraction of 1 is exact, so r - held is what
    those minutes leave, and the last subtraction rounds as a per-minute loop
    rounds it. The dwell draws come in the loop's order.

    Draw i is a bright dwell exactly when i is even, so the state is the
    parity of the draws taken. numpy's exponential(scale) is
    scale * standard_exponential() on the same stream, so standard
    exponentials drawn _DRAWS at a time and multiplied in numpy by the
    alternating scales are the loop's dwells, one IEEE multiply either way.
    Each block takes its scales from the parity of its first draw, so any
    _DRAWS gives the same dwells. The last block's unused draws are lost, but
    nothing draws from rng after the dwells.
    """
    p = _BROKEN
    scales = np.resize([p["dwell_high"], p["dwell_low"]], _DRAWS + 1)
    draws = itertools.chain.from_iterable(
        (scales[first % 2 : first % 2 + _DRAWS] * rng.standard_exponential(_DRAWS)).tolist()
        for first in itertools.count(0, _DRAWS)
    )
    remaining = next(draws)
    odd = 1  # the parity of the draws taken: 1 while the state is bright
    states: list[int] = []
    lengths: list[int] = []
    start = k = 0  # the current state began at minute start; k is the next minute
    while True:
        held = math.ceil(remaining) - 1
        if held < 0:  # only for a first draw of 0.0; max() here took 50% longer
            held = 0
        k += held
        if k >= n:
            break
        remaining = (remaining - held) - 1.0
        states.append(odd)
        lengths.append(k - start)
        while remaining <= 0.0:
            remaining += next(draws)
            odd ^= 1
        start = k
        k += 1
    states.append(odd)
    lengths.append(n - start)
    return np.repeat(np.where(states, p["high"], p["low"]), lengths)


def _cloud_factor(cfg: SynthConfig, n: int) -> np.ndarray:
    p = _PROCESS[cfg.cloud_regime]
    lane = _lane(p["rho"])
    rng = np.random.default_rng(cfg.seed)
    shocks = np.zeros((-(-n // lane), lane))  # zero shocks pad the last lane
    rng.standard_normal(out=shocks.reshape(-1)[:n])
    level = _broken_levels(rng, n) if p is _BROKEN else p["level"]
    factor = _ar1_noise(shocks, p["rho"], p["sigma"]).reshape(-1)[:n]
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
    return IrradianceSeries(start_time=start, values=frozen(clear * factor))
