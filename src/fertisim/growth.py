"""Plant growth and canopy turgor dynamics on a fixed simulation clock.

Height and turgid canopy width grow exponentially, each plant at its own
rate: the nutrient concentration band's rate (over-fertilized fastest,
under-fertilized slowest) times the plant's seeded jitter, fixed when the
seedling is made. Turgor is a fraction in [0, 1]: it drains under a diurnal
water-demand profile and, after an irrigation plus an uptake lag of
10-15 minutes, recovers first-order toward 1 for a fixed recovery window.
The visible canopy width shrinks with lost turgor, which is what the
vision pipeline later picks up as wilt.

``advance`` steps a state through a run of absolute instants, building no
state per instant. A step of any length is three closed-form turgor pieces
(drain, recovery in the recovery window, drain) under a demand integral
exact over any span, so one long step equals many short ones to rounding
and scenarios jump freely.

One ``PlantState`` also holds a whole population. Every plant in a run
shares the demand, the irrigation instants and the uptake lag, so turgor
never depends on the plant: the population shares one turgor and differs
only by growth rate. A state is each plant's rate and three shared scalars
(age, turgor and the recovery deadline), and stepping touches only the
scalars. Every plant starts at the transplant sizes in ``GrowthParams``, and
``sizes`` gives its sizes in closed form at the state's age and turgor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .seeding import unit_hashes

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


@dataclass(frozen=True)
class DemandProfile:
    """Diurnal turgor-loss rate: a half sine over the daytime window, zero outside it."""

    window_start_min: float
    window_end_min: float
    peak_loss_rate: float  # turgor fraction per minute at the midpoint

    def loss_integral(self, a_min: float, b_min: float) -> float:
        """Exact integral of the loss rate over [a, b] in unwrapped clock minutes, any a <= b.

        Each day boundary crossed adds a whole window, 2 * peak / w (w = pi / window
        length); each end adds the cosine term at its clock of day, clipped to the window.
        A span with no daytime in it loses exactly 0.0, an infinite peak included.
        """
        start, end = self.window_start_min, self.window_end_min
        w = math.pi / (end - start)
        day_a, clock_a = divmod(a_min, MINUTES_PER_DAY)
        day_b, clock_b = divmod(b_min, MINUTES_PER_DAY)
        lo, hi = min(max(clock_a, start), end), min(max(clock_b, start), end)
        daytime = math.cos(w * (lo - start)) - math.cos(w * (hi - start)) + 2.0 * (day_b - day_a)
        return (self.peak_loss_rate / w) * daytime if daytime else 0.0


@dataclass(frozen=True)
class PlantState:
    """Physiological state of one plant, or of a population that shares its turgor.

    ``rate_per_min`` is a float for one plant or an array of shape (n,) for a
    population of n plants; the other fields are shared by every plant. Every
    plant is transplanted at ``GrowthParams.initial_height_cm`` and
    ``initial_width_cm``; ``sizes`` gives its sizes at ``age_min``. Age doubles
    as absolute simulation time: plants are transplanted at t = 0 (midnight),
    so clock-of-day is age modulo 1440.
    ``rate_per_min`` is the relative height growth per minute, band and
    jitter included; the turgid width grows at ``width_exponent`` times it.
    ``recovery_deadline_min`` is the absolute time at which post-irrigation
    turgor recovery begins (irrigation time plus lag). Sizes and turgor are
    checked where they enter the program (config, CLI), not in a state.
    """

    age_min: float
    turgor: float
    rate_per_min: float | np.ndarray
    recovery_deadline_min: float | None = None


def make_seedling(params: GrowthParams, band: EcBand = EcBand.NORMAL,
                  rate_scale: float | np.ndarray = 1.0) -> PlantState:
    """Fresh fully-turgid seedling at transplant time.

    Its growth rate is the band's rate times ``rate_scale``, the plant's jitter.
    An array ``rate_scale`` makes a population of ``len(rate_scale)`` seedlings.
    """
    with np.errstate(over="ignore"):  # an infinite rate is reported where ``sizes`` reads it
        rate = (params.normal_rate_per_day * params.band_multiplier(band) * rate_scale
                / MINUTES_PER_DAY)
    return PlantState(age_min=0.0, turgor=1.0, rate_per_min=rate)


def rate_scales(seed: int, group_index: int, n_plants: int, params: GrowthParams) -> np.ndarray:
    """Growth-rate multipliers in 1 +/- jitter of a group's plants 0 .. n_plants - 1, drawn in
    one pass; plant i's is keyed by ``(seed, group_index, i)``, whatever the group's size."""
    u = np.array(unit_hashes((seed, _JITTER_STREAM, group_index), range(n_plants)))
    return 1.0 + params.jitter * (2.0 * u - 1.0)


def irrigation_lags(seed: int, instants: Iterable[float], params: GrowthParams) -> list[float]:
    """Uptake lag in minutes, drawn from [low, high), for an irrigation at each of ``instants``.

    A lag is keyed by the seed and its instant truncated to a whole minute, so it is
    stateless in the irrigation history: re-irrigating at the same instant always yields
    the same lag.
    """
    us = unit_hashes((seed, _LAG_STREAM), instants)  # the hash truncates each to int
    return [params.lag_low_min + (params.lag_high_min - params.lag_low_min) * u for u in us]


def sizes(state: PlantState, params: GrowthParams) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Heights and visible canopy widths of the plants.

    A visible width is the turgid width less the turgor deficit. ``age_min`` and
    ``turgor`` may also be arrays of one plant's instants, with its ``rate_per_min``.
    An overflow raises ValueError naming the earliest age, before an inf enters a projection.
    """
    rate = state.rate_per_min
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned about
        height = params.initial_height_cm * np.exp(rate * state.age_min)
        width = params.initial_width_cm * np.exp(params.width_exponent * rate * state.age_min)
    if not (np.all(np.isfinite(height)) and np.all(np.isfinite(width))):
        raise ValueError(f"plant size overflows at age {np.min(state.age_min):g} min")
    return height, width * (1.0 - params.s_max * (1.0 - state.turgor))


def apply_irrigation(state: PlantState, now_min: float, lag_min: float) -> PlantState:
    """Schedule turgor recovery to begin ``lag_min`` minutes after ``now_min``.

    A later call always wins, so re-irrigating before the previous lag has
    elapsed simply replaces the pending recovery window.
    """
    return PlantState(state.age_min, state.turgor, state.rate_per_min, now_min + lag_min)


def advance(state: PlantState, instants: Sequence[float], demand: DemandProfile,
            params: GrowthParams, lags: Sequence[float] | None = None
            ) -> tuple[list[float], list[float], PlantState]:
    """Step a plant or a population through ascending absolute ``instants`` (minutes).

    Returns each instant's age and turgor and the state at the last instant, building no
    state on the way; an instant not past the age is skipped, leaving age and turgor as they
    are. Sizes follow from the age (``sizes``); the shared turgor drains with the demand and
    relaxes toward 1 inside the post-irrigation recovery window. With ``lags``
    (``irrigation_lags``), each instant also irrigates, as ``apply_irrigation(state, instant,
    lag)`` once the state is stepped to it.
    """
    age, turgor, deadline = state.age_min, state.turgor, state.recovery_deadline_min
    ages, turgors = [], []
    for i, now in enumerate(instants):
        if now > age:
            dt = now - age
            turgor = _integrate_turgor(turgor, age, deadline, dt, demand, params)
            age += dt
        ages.append(age)
        turgors.append(turgor)
        if lags is not None:
            deadline = now + lags[i]
    return ages, turgors, PlantState(age, turgor, state.rate_per_min, deadline)


def _integrate_turgor(turgor: float, age: float, deadline: float | None, dt: float,
                      demand: DemandProfile, params: GrowthParams) -> float:
    """Turgor ``dt`` minutes after ``age``, from ``turgor`` there and the recovery deadline."""
    # Offsets from the step start: drain over [0, lo], recovery toward 1 over [lo, hi]
    # (the recovery window clipped to the step, empty without one), drain over [hi, dt].
    clock0 = age % MINUTES_PER_DAY
    lo = hi = dt
    if deadline is not None:
        rec_lo = deadline - age
        lo = min(max(rec_lo, 0.0), dt)
        hi = min(max(rec_lo + params.recovery_duration_min, 0.0), dt)
    turgor = turgor * math.exp(-demand.loss_integral(clock0, clock0 + lo))
    if hi > lo:
        turgor = 1.0 - (1.0 - turgor) * math.exp(-(hi - lo) / params.recovery_tau_min)
    if hi < dt:
        turgor *= math.exp(-demand.loss_integral(clock0 + hi, clock0 + dt))
    return min(1.0, max(0.0, turgor))
