"""Pump controllers: the wilt-triggered rule and the baseline timer.

The wilt controller anchors a reference canopy width at the first sample
of each day. At every later sample it computes

    wilt_degree = (reference_width - width) / reference_width

and commands the pump ON for ``timer_on_min`` minutes iff wilt_degree
exceeds the threshold (strictly) AND the width shrank since the previous
sample (strictly). The second conjunct keeps the controller from
re-watering while the plant is already responding: widths stop shrinking
shortly after an irrigation, so the next sample sees a non-decreasing
width even though the wilt degree may still read above threshold.

The timer baseline simply pumps for ``timer_on_min`` minutes at every
timer period inside the daytime window.
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

    @staticmethod
    def on(duration_min: float) -> "PumpCommand":
        return PumpCommand(Action.ON, duration_min)

    @staticmethod
    def off() -> "PumpCommand":
        return PumpCommand(Action.OFF)

    @staticmethod
    def hold() -> "PumpCommand":
        return PumpCommand(Action.HOLD)


@dataclass(frozen=True)
class Schedule:
    """Sampling and timer cadence; the window is half-open [start, end)."""

    sample_interval_min: int
    window_start_min: int
    window_end_min: int
    timer_period_min: int
    timer_on_min: float

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
    reference_width_cm: float | None = None
    previous_width_cm: float | None = None
    pump_off_deadline_min: float | None = None
    last_sample_day: int | None = None


def spa_tick(state: ControllerState, width_cm: float, now_min: float,
             schedule: Schedule, wilt_threshold: float) -> tuple[ControllerState, PumpCommand]:
    """One wilt-rule evaluation at an in-window sample instant."""
    if width_cm <= 0.0:
        raise ValueError("width_cm must be > 0")
    if not schedule.in_window(now_min):
        raise SchedulingError(f"sample at minute {now_min} is outside the daytime window")

    day = int(now_min // MINUTES_PER_DAY)
    if state.reference_width_cm is None or state.last_sample_day != day:
        # First sample of the day anchors the morning reference.
        anchored = ControllerState(
            reference_width_cm=width_cm,
            previous_width_cm=width_cm,
            pump_off_deadline_min=state.pump_off_deadline_min,
            last_sample_day=day,
        )
        return anchored, PumpCommand.hold()

    pump_running = (state.pump_off_deadline_min is not None
                    and now_min < state.pump_off_deadline_min)
    deadline = state.pump_off_deadline_min
    if pump_running:
        command = PumpCommand.hold()
    else:
        degree = wilt_degree(state.reference_width_cm, width_cm)
        if degree > wilt_threshold and state.previous_width_cm > width_cm:
            command = PumpCommand.on(schedule.timer_on_min)
            deadline = now_min + schedule.timer_on_min
        else:
            command = PumpCommand.off()

    updated = replace(state, previous_width_cm=width_cm,
                      pump_off_deadline_min=deadline, last_sample_day=day)
    return updated, command


def timer_tick(schedule: Schedule, now_min: float) -> PumpCommand:
    """Baseline regime: ON for ``timer_on_min`` at every timer period inside the window."""
    if not schedule.in_window(now_min):
        return PumpCommand.off()
    m = now_min % MINUTES_PER_DAY
    if (m - schedule.window_start_min) % schedule.timer_period_min == 0:
        return PumpCommand.on(schedule.timer_on_min)
    return PumpCommand.off()


def wilt_degree(reference_width_cm: float, width_cm: float) -> float:
    """Fractional shrink of ``width_cm`` relative to the morning reference."""
    if reference_width_cm <= 0.0:
        raise ValueError("reference width must be > 0")
    return (reference_width_cm - width_cm) / reference_width_cm
