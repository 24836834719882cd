"""Pump controllers: the wilt-triggered rule and the baseline timer.

The wilt controller anchors a reference canopy width at the first sample
of each day. At every later sample it computes

    wilt_degree = (reference_width - width) / reference_width

and commands the pump ON for ``Schedule.pump_on_min`` minutes iff wilt_degree
exceeds the threshold (strictly) AND the width shrank since the previous
sample (strictly). The second conjunct keeps the controller from
re-watering while the plant is already responding: widths stop shrinking
shortly after an irrigation, so the next sample sees a non-decreasing
width even though the wilt degree may still read above threshold.

The timer baseline pumps for ``pump_on_min`` minutes at each of its
instants, ``Schedule.timer_times``: every timer period inside the daytime
window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .growth import MINUTES_PER_DAY

class SchedulingError(RuntimeError):
    """Controller sampled outside its daytime window."""


class Action(Enum):
    ON = "on"
    OFF = "off"
    HOLD = "hold"


@dataclass(frozen=True)
class PumpCommand:
    action: Action
    duration_min: float = 0.0


@dataclass(frozen=True)
class Schedule:
    """Sampling and pump cadence; the window is half-open [start, end). Each field but
    ``sample_interval_min`` is the ``control.*`` config key of its name."""

    sample_interval_min: int
    window_start_min: int
    window_end_min: int
    timer_period_min: int
    pump_on_min: float

    def in_window(self, now_min: float) -> bool:
        m = now_min % MINUTES_PER_DAY
        return self.window_start_min <= m < self.window_end_min

    def sample_times(self, day: int) -> range:
        """In-window camera sample instants (absolute minutes) for one simulation day."""
        return self._instants(day, self.sample_interval_min)

    def timer_times(self, day: int) -> range:
        """In-window timer instants (absolute minutes) for one simulation day."""
        return self._instants(day, self.timer_period_min)

    def _instants(self, day: int, step_min: int) -> range:
        base = int(day * MINUTES_PER_DAY)
        return range(base + self.window_start_min, base + self.window_end_min, step_min)


@dataclass(frozen=True)
class ControllerState:
    """The rule's memory, plus the last sample's wilt degree and gradient sign: 1 if the
    width shrank since the previous sample, -1 if it grew, 0 if it held or was the day's first."""

    reference_width_cm: float | None = None
    previous_width_cm: float | None = None
    pump_off_deadline_min: float | None = None
    last_sample_day: int | None = None
    wilt_degree: float = 0.0
    gradient_sign: int = 0


def spa_tick(state: ControllerState, width_cm: float, now_min: float,
             schedule: Schedule, wilt_threshold: float) -> tuple[ControllerState, PumpCommand]:
    """One wilt-rule evaluation at an in-window sample instant."""
    if width_cm <= 0.0:
        raise ValueError("width_cm must be > 0")
    if not schedule.in_window(now_min):
        raise SchedulingError(f"sample at minute {now_min} is outside the daytime window")

    day = int(now_min // MINUTES_PER_DAY)
    if state.last_sample_day != day:
        # First sample of the day anchors the morning reference.
        anchored = replace(state, reference_width_cm=width_cm, previous_width_cm=width_cm,
                           last_sample_day=day, wilt_degree=0.0, gradient_sign=0)
        return anchored, PumpCommand(Action.HOLD)

    degree = (state.reference_width_cm - width_cm) / state.reference_width_cm
    shrank, grew = state.previous_width_cm > width_cm, state.previous_width_cm < width_cm
    pump_running = (state.pump_off_deadline_min is not None
                    and now_min < state.pump_off_deadline_min)
    deadline = state.pump_off_deadline_min
    if pump_running:
        command = PumpCommand(Action.HOLD)
    elif degree > wilt_threshold and shrank:
        command = PumpCommand(Action.ON, schedule.pump_on_min)
        deadline = now_min + schedule.pump_on_min
    else:
        command = PumpCommand(Action.OFF)

    updated = replace(state, previous_width_cm=width_cm, pump_off_deadline_min=deadline,
                      last_sample_day=day, wilt_degree=degree, gradient_sign=shrank - grew)
    return updated, command


def timer_tick(schedule: Schedule) -> PumpCommand:
    """Baseline regime: the command at each of the timer's instants, ``Schedule.timer_times``."""
    return PumpCommand(Action.ON, schedule.pump_on_min)
