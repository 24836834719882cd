"""Plant growth and canopy turgor dynamics on a fixed simulation clock.

Height and turgid canopy width grow exponentially at a rate set by the
nutrient concentration band (over-fertilized fastest, under-fertilized
slowest). Turgor is a fraction in [0, 1]: it drains under a diurnal
water-demand profile and, after an irrigation plus an uptake lag of
10-15 minutes, recovers first-order toward 1 for a fixed recovery window.
The visible canopy width shrinks with lost turgor, which is what the
vision pipeline later picks up as wilt.

All transitions are closed-form within a step, so advancing a plant by
one long step or by many short ones gives the same trajectory; scenarios
exploit this to jump between sampling instants without per-minute loops.

One ``PlantState`` also holds a whole population. Every plant in a run
shares the demand, the irrigation instants and the uptake lag, so turgor
never depends on the plant: the population shares one turgor, and its
heights, turgid widths and rate multipliers are arrays stepped together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .seeding import unit_hash

MINUTES_PER_DAY = 1440.0

_LAG_STREAM = 0x1A6
_JITTER_STREAM = 0x317


class EcBand(Enum):
    """Nutrient concentration treatment, by solution electrical conductivity.

    The bands are disjoint and ordered: under 1.0-1.5 mS/cm, normal
    2.5-5.0 mS/cm and over 10.0-12.5 mS/cm.
    """

    UNDER = "under"
    NORMAL = "normal"
    OVER = "over"


@dataclass(frozen=True)
class GrowthParams:
    """Calibration constants for the growth and turgor model."""

    initial_height_cm: float
    initial_width_cm: float
    # Normal-band relative height growth per day.
    normal_rate_per_day: float
    under_multiplier: float
    over_multiplier: float
    # Canopy width grows slower than height by this factor.
    width_exponent: float
    # Per-plant growth-rate jitter half-range (fraction of the band rate).
    jitter: float
    # Maximum fractional canopy shrink at zero turgor.
    s_max: float
    recovery_tau_min: float
    recovery_duration_min: float
    lag_low_min: float
    lag_high_min: float

    def band_multiplier(self, band: EcBand) -> float:
        if band is EcBand.UNDER:
            return self.under_multiplier
        if band is EcBand.OVER:
            return self.over_multiplier
        return 1.0

    def height_rate_per_min(self, band: EcBand, rate_scale: float = 1.0) -> float:
        return self.normal_rate_per_day * self.band_multiplier(band) * rate_scale / MINUTES_PER_DAY

    def width_rate_per_min(self, band: EcBand, rate_scale: float = 1.0) -> float:
        return self.width_exponent * self.height_rate_per_min(band, rate_scale)


@dataclass(frozen=True)
class DemandProfile:
    """Diurnal turgor-loss rate: zero outside the daytime window, peaking at its midpoint.

    ``shape`` is "sine" (half sine over the window) or "flat" (constant
    inside the window; the midpoint still attains the maximum).
    """

    window_start_min: float
    window_end_min: float
    peak_loss_rate: float  # turgor fraction per minute at the midpoint
    shape: str

    def loss_integral(self, a_min: float, b_min: float) -> float:
        """Exact integral of the loss rate over [a, b] in unwrapped clock minutes.

        The interval must not straddle a window edge strictly; callers split
        at edges first (advance() does).
        """
        if b_min <= a_min:
            return 0.0
        day = math.floor(a_min / MINUTES_PER_DAY)
        a = a_min - day * MINUTES_PER_DAY
        b = b_min - day * MINUTES_PER_DAY
        lo = max(a, self.window_start_min)
        hi = min(b, self.window_end_min)
        if hi <= lo:
            return 0.0
        if self.shape == "flat":
            return self.peak_loss_rate * (hi - lo)
        span = self.window_end_min - self.window_start_min
        w = math.pi / span
        return (self.peak_loss_rate / w) * (
            math.cos(w * (lo - self.window_start_min)) - math.cos(w * (hi - self.window_start_min))
        )


@dataclass(frozen=True)
class PlantState:
    """Physiological state of one plant, or of a population that shares its turgor.

    ``height_cm``, ``turgid_width_cm`` and ``rate_scale`` are floats for one
    plant or arrays of shape (n,) for a population of n plants; the other
    fields are shared by every plant. ``age_min`` doubles as absolute
    simulation time: plants are transplanted at t = 0 (midnight), so
    clock-of-day is age modulo 1440.
    ``rate_scale`` carries the per-plant growth jitter.
    ``recovery_deadline_min`` is the absolute time at which post-irrigation
    turgor recovery begins (irrigation time plus lag).
    """

    age_min: float
    height_cm: float | np.ndarray
    turgid_width_cm: float | np.ndarray
    turgor: float
    band: EcBand
    rate_scale: float | np.ndarray = 1.0
    recovery_deadline_min: float | None = None

    def __post_init__(self):
        if not np.all(np.greater(self.height_cm, 0.0)):
            raise ValueError("height_cm must be > 0")
        if not np.all(np.greater(self.turgid_width_cm, 0.0)):
            raise ValueError("turgid_width_cm must be > 0")
        if not 0.0 <= self.turgor <= 1.0:
            raise ValueError("turgor must be in [0, 1]")


def make_seedling(params: GrowthParams, band: EcBand = EcBand.NORMAL,
                  rate_scale: float | np.ndarray = 1.0) -> PlantState:
    """Fresh fully-turgid seedling at transplant time.

    An array ``rate_scale`` makes a population of ``len(rate_scale)`` seedlings.
    """
    shape = np.shape(rate_scale)  # () for one plant: [()] below unwraps the 0-d array
    return PlantState(
        age_min=0.0,
        height_cm=np.full(shape, params.initial_height_cm)[()],
        turgid_width_cm=np.full(shape, params.initial_width_cm)[()],
        turgor=1.0,
        band=band,
        rate_scale=rate_scale,
    )


def plant_rate_scale(seed: int, group_index: int, plant_index: int,
                     params: GrowthParams) -> float:
    """Deterministic per-plant growth-rate multiplier in 1 +/- jitter."""
    u = unit_hash(seed, _JITTER_STREAM, group_index, plant_index)
    return 1.0 + params.jitter * (2.0 * u - 1.0)


def irrigation_lag(seed: int, now_min: float, params: GrowthParams) -> float:
    """Uptake lag in minutes for an irrigation at ``now_min``, drawn from [low, high).

    Stateless in the irrigation history: re-irrigating at the same instant
    always yields the same lag.
    """
    u = unit_hash(seed, _LAG_STREAM, int(now_min))
    return params.lag_low_min + (params.lag_high_min - params.lag_low_min) * u


def effective_width(state: PlantState, params: GrowthParams) -> float | np.ndarray:
    """Visible canopy width: full turgid width scaled down by turgor deficit, per plant."""
    return state.turgid_width_cm * (1.0 - params.s_max * (1.0 - state.turgor))


def apply_irrigation(state: PlantState, now_min: float, lag_min: float) -> PlantState:
    """Schedule turgor recovery to begin ``lag_min`` minutes after ``now_min``.

    A later call always wins, so re-irrigating before the previous lag has
    elapsed simply replaces the pending recovery window.
    """
    return replace(state, recovery_deadline_min=now_min + lag_min)


def advance(state: PlantState, dt_min: float, demand: DemandProfile,
            params: GrowthParams) -> PlantState:
    """Advance a plant or a population by ``dt_min`` minutes of simulated time.

    The time of day at the start of the step is the plant age modulo 1440
    (midnight transplant). Height and turgid width grow exponentially, each
    plant at its own rate; the shared turgor integrates the demand loss
    exactly, except inside the post-irrigation recovery window where it
    relaxes toward 1 instead.
    """
    if dt_min <= 0.0:
        raise ValueError("dt_min must be > 0")

    rh = params.height_rate_per_min(state.band, state.rate_scale)
    rw = params.width_rate_per_min(state.band, state.rate_scale)
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned about
        height = state.height_cm * np.exp(rh * dt_min)
        width = state.turgid_width_cm * np.exp(rw * dt_min)
    if not (np.all(np.isfinite(height)) and np.all(np.isfinite(width))):
        raise ValueError(f"plant size overflows in a {dt_min:g}-minute growth step "
                         f"from age {state.age_min:g} min")
    turgor = _integrate_turgor(state, dt_min, demand, state.age_min % MINUTES_PER_DAY, params)

    return replace(
        state,
        age_min=state.age_min + dt_min,
        height_cm=height,
        turgid_width_cm=width,
        turgor=turgor,
    )


def _integrate_turgor(state: PlantState, dt: float, demand: DemandProfile,
                      clock0: float, params: GrowthParams) -> float:
    # Split [0, dt] (offsets from the step start) at recovery-window edges and
    # at every demand-window edge, then integrate each piece in closed form.
    # Without demand nothing drains, so a step of any length needs no demand
    # cuts: the monitor grows its plant for weeks in one zero-demand step.
    cuts = {0.0, dt}
    rec_lo = rec_hi = None
    if state.recovery_deadline_min is not None:
        rec_lo = state.recovery_deadline_min - state.age_min
        rec_hi = rec_lo + params.recovery_duration_min
        for x in (rec_lo, rec_hi):
            if 0.0 < x < dt:
                cuts.add(x)
    if demand.peak_loss_rate > 0.0:
        first_day = math.floor(clock0 / MINUTES_PER_DAY)
        last_day = math.floor((clock0 + dt) / MINUTES_PER_DAY)
        for day in range(int(first_day), int(last_day) + 1):
            for edge in (demand.window_start_min, demand.window_end_min):
                x = day * MINUTES_PER_DAY + edge - clock0
                if 0.0 < x < dt:
                    cuts.add(x)

    xs = sorted(cuts)
    turgor = state.turgor
    for a, b in zip(xs, xs[1:]):
        mid = 0.5 * (a + b)
        in_recovery = rec_lo is not None and rec_lo <= mid < rec_hi
        if in_recovery:
            turgor = 1.0 - (1.0 - turgor) * math.exp(-(b - a) / params.recovery_tau_min)
        else:
            drained = demand.loss_integral(clock0 + a, clock0 + b)
            if drained > 0.0:
                turgor *= math.exp(-drained)
    return min(1.0, max(0.0, turgor))
