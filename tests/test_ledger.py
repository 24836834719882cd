"""Water accounting."""

import pytest
from hypothesis import given, strategies as st

from fertisim.config import ConfigError, default_config, parse_config
from fertisim.control import Action, PumpCommand, timer_tick
from fertisim.ledger import TimeOrderError, WaterLedger, savings


def _timer_day(schedule, flow_l_per_min):
    """Ledger of one day of ``schedule``'s timer, ticked at each of its instants."""
    ledger = WaterLedger()
    ledger.register_day(0, "timer")
    for m in schedule.timer_times(0):
        ledger.accrue(timer_tick(schedule), float(m), flow_l_per_min, "timer")
    return ledger


class TestCalibrateFlow:
    """The shipped ``pump.flow_l_per_min`` is 101.6 L/day over the timer's activations."""

    def test_against_timer_enumeration(self, schedule):
        # the activation count comes straight from the timer schedule
        activations = len(schedule.timer_times(0))
        assert activations == 18
        flow = default_config()["pump.flow_l_per_min"]
        assert flow * activations * schedule.pump_on_min == pytest.approx(101.6)
        assert flow == pytest.approx(1.8815, abs=5e-4)

    def test_round_numbers(self, schedule):
        assert _timer_day(schedule, 1.0).mean_liters_per_day("timer") == pytest.approx(54.0)


class TestAccrue:
    def test_single_activation_volume(self):
        ledger = WaterLedger()
        ledger.accrue(PumpCommand(Action.ON, 3.0), 480.0, 1.881, "timer")
        assert ledger.total_liters() == pytest.approx(3 * 1.881)

    def test_full_timer_day(self, cfg, schedule):
        ledger = _timer_day(schedule, cfg["pump.flow_l_per_min"])
        row = ledger.rows()[0]
        assert row.activations == 18
        assert row.liters == pytest.approx(101.6, abs=0.1)
        assert ledger.mean_liters_per_day("timer") == pytest.approx(101.6, abs=0.1)

    def test_quiet_day_is_zero(self):
        ledger = WaterLedger()
        ledger.register_day(0, "auto")
        ledger.accrue(PumpCommand(Action.OFF), 500.0, 1.881, regime="auto")
        ledger.accrue(PumpCommand(Action.HOLD), 515.0, 1.881, regime="auto")
        assert ledger.total_liters() == 0.0
        assert ledger.rows()[0].activations == 0

    def test_time_regression_rejected(self):
        ledger = WaterLedger()
        ledger.accrue(PumpCommand(Action.ON, 3.0), 500.0, 1.0, "timer")
        with pytest.raises(TimeOrderError):
            ledger.accrue(PumpCommand(Action.OFF), 499.0, 1.0, "timer")

    def test_additivity(self):
        ledger = WaterLedger()
        ons = 0
        for day in range(3):
            ledger.register_day(day, "timer")
            for k in range(day + 1):
                ledger.accrue(PumpCommand(Action.ON, 3.0), day * 1440.0 + 480.0 + 30 * k, 2.0,
                              "timer")
                ons += 1
        assert ledger.total_liters() == pytest.approx(sum(r.liters for r in ledger.rows()))
        assert ledger.total_liters() == pytest.approx(3.0 * 2.0 * ons)

    def test_total_sums_volumes_in_accrual_order(self):
        # Not day by day: day 1's two litres sum to 2.0, which 1e16 keeps, where each
        # litre added to 1e16 alone rounds away.
        ledger = WaterLedger()
        for now, flow in ((0.0, 1e16), (1440.0, 1.0), (1441.0, 1.0)):
            ledger.accrue(PumpCommand(Action.ON, 1.0), now, flow, "timer")
        assert ledger.total_liters() == (1e16 + 1.0) + 1.0 == 1e16


class TestSavings:
    def test_reference_figures(self):
        assert savings(101.6, 17.3) == pytest.approx(0.8297, abs=5e-5)

    def test_identity(self):
        assert savings(100.0, 100.0) == 0.0

    def test_upper_bound(self):
        assert savings(100.0, 0.0) == 1.0

    def test_non_positive_timer_rejected(self):
        with pytest.raises(ValueError):
            savings(0.0, 10.0)

    @given(timer=st.floats(1.0, 1e4), auto=st.floats(0.0, 1e4),
           scale=st.floats(0.01, 100.0))
    def test_scale_invariance(self, timer, auto, scale):
        assert savings(timer * scale, auto * scale) == pytest.approx(savings(timer, auto))


def test_pump_model_validation():
    for flow in ("0", "-1"):
        with pytest.raises(ConfigError, match="pump.flow_l_per_min"):
            parse_config(f"pump.flow_l_per_min = {flow}\n")
