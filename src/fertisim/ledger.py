"""Water accounting: pump commands to liters, daily totals, and the savings figure."""

from __future__ import annotations

from dataclasses import dataclass, field

from .control import Action, PumpCommand
from .growth import MINUTES_PER_DAY


class TimeOrderError(ValueError):
    """Commands were fed to the ledger out of time order."""


@dataclass
class DailyUsage:
    day: int
    regime: str
    liters: float = 0.0
    activations: int = 0


@dataclass
class WaterLedger:
    """Per-day irrigation volume accumulator.

    Days must be registered (with their regime) before commands arrive, so
    zero-activation days still count toward the regime mean. The total is kept
    as the volumes are accrued, summed in accrual order.
    """

    days: dict[int, DailyUsage] = field(default_factory=dict)
    _last_time: float | None = field(default=None, repr=False)
    _total: float = field(default=0.0, repr=False)

    def register_day(self, day: int, regime: str) -> None:
        if day not in self.days:
            self.days[day] = DailyUsage(day=day, regime=regime)

    def accrue(self, command: PumpCommand, now_min: float, flow_l_per_min: float,
               regime: str) -> None:
        """Account one command; ``flow_l_per_min`` is the whole population manifold's flow."""
        if self._last_time is not None and now_min < self._last_time:
            raise TimeOrderError(f"command at minute {now_min} precedes minute {self._last_time}")
        self._last_time = now_min
        day = int(now_min // MINUTES_PER_DAY)
        self.register_day(day, regime)
        if command.action is Action.ON:
            row, liters = self.days[day], command.duration_min * flow_l_per_min
            row.liters += liters
            row.activations += 1
            self._total += liters

    def total_liters(self) -> float:
        return self._total

    def mean_liters_per_day(self, regime: str) -> float:
        rows = [r for r in self.days.values() if r.regime == regime]
        if not rows:
            raise ValueError(f"no days for regime {regime!r}")
        return sum(r.liters for r in rows) / len(rows)

    def rows(self) -> list[DailyUsage]:
        return [self.days[d] for d in sorted(self.days)]


def savings(timer_mean_l_per_day: float, auto_mean_l_per_day: float) -> float:
    """Fraction of water saved by the wilt-triggered regime against the timer baseline."""
    if timer_mean_l_per_day <= 0.0:
        raise ValueError("timer mean must be > 0")
    return (timer_mean_l_per_day - auto_mean_l_per_day) / timer_mean_l_per_day
