"""Wilt-rule controller and timer baseline."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fertisim.config import default_config
from fertisim.control import (
    Action,
    ControllerState,
    SchedulingError,
    spa_tick,
    timer_tick,
)

CFG = default_config()
SCHEDULE = CFG.schedule()  # 15-min samples, window 08:00-17:00, timer 30/3
THRESHOLD = CFG["control.wilt_threshold"]  # 2%
DAY0_0800 = 480.0


def state_with(reference, previous, now=DAY0_0800 + 60):
    return ControllerState(reference_width_cm=reference, previous_width_cm=previous,
                           last_sample_day=int(now // 1440))


class TestWiltRule:
    def test_fires_when_wilted_and_shrinking(self):
        state = state_with(100.0, 97.5)
        _, cmd = spa_tick(state, 97.0, DAY0_0800 + 60, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.ON
        assert cmd.duration_min == 3.0

    def test_recovering_plant_stays_off(self):
        state = state_with(100.0, 98.5)
        _, cmd = spa_tick(state, 99.0, DAY0_0800 + 60, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.OFF

    def test_equal_widths_do_not_fire(self):
        # wilt 3% but width not strictly shrinking: the second conjunct blocks it
        state = state_with(100.0, 97.0)
        _, cmd = spa_tick(state, 97.0, DAY0_0800 + 60, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.OFF

    def test_threshold_is_strict(self):
        state = state_with(100.0, 98.5)
        _, cmd = spa_tick(state, 98.0, DAY0_0800 + 60, SCHEDULE, THRESHOLD)  # exactly 2%
        assert cmd.action is Action.OFF

    def test_scripted_session_fires_once_at_minute_255(self):
        # 26 samples over 375 minutes; width drifts down past 2% at index 17,
        # then recovers after the watering.
        widths = [100.0] * 26
        for i in range(10, 17):
            widths[i] = 100.0 - 0.27 * (i - 9)  # at i=16: 98.11, still under 2%
        widths[17] = 97.5  # 2.5% wilt, shrinking
        for i in range(18, 26):
            widths[i] = widths[17] + 0.5 * (i - 17)
        state = ControllerState()
        fired = []
        for i, width in enumerate(widths):
            now = DAY0_0800 + 15 * i
            state, cmd = spa_tick(state, width, now, SCHEDULE, THRESHOLD)
            if cmd.action is Action.ON:
                fired.append((i, now - DAY0_0800))
        assert fired == [(17, 255.0)]

    def test_first_sample_of_day_anchors_reference(self):
        state, cmd = spa_tick(ControllerState(), 42.0, DAY0_0800, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.HOLD
        assert state.reference_width_cm == 42.0
        assert state.previous_width_cm == 42.0

    def test_reference_reanchors_on_new_day(self):
        state = state_with(100.0, 95.0, now=DAY0_0800)
        next_day = 1440.0 + DAY0_0800
        state, cmd = spa_tick(state, 90.0, next_day, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.HOLD
        assert state.reference_width_cm == 90.0

    def test_two_days_use_their_own_references(self):
        state = ControllerState()
        state, _ = spa_tick(state, 100.0, DAY0_0800, SCHEDULE, THRESHOLD)
        state, cmd = spa_tick(state, 96.0, DAY0_0800 + 30, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.ON  # 4% against day-1 reference
        day2 = 1440.0 + DAY0_0800
        state, _ = spa_tick(state, 96.0, day2, SCHEDULE, THRESHOLD)  # day-2 anchor
        state, cmd = spa_tick(state, 94.5, day2 + 30, SCHEDULE, THRESHOLD)
        assert state.wilt_degree < 0.02
        assert cmd.action is Action.OFF  # 1.6% against the day-2 reference

    def test_hold_while_pump_runs(self):
        fast = replace(SCHEDULE, sample_interval_min=1)
        state = state_with(100.0, 97.5)
        state, cmd = spa_tick(state, 97.0, DAY0_0800 + 60, fast, THRESHOLD)
        assert cmd.action is Action.ON
        state, cmd = spa_tick(state, 96.0, DAY0_0800 + 61, fast, THRESHOLD)
        assert cmd.action is Action.HOLD  # 3 minutes not yet expired
        assert state.previous_width_cm == 96.0
        state, cmd = spa_tick(state, 95.0, DAY0_0800 + 63, fast, THRESHOLD)
        assert cmd.action is Action.ON  # deadline expired, rule re-evaluated

    def test_out_of_window_sample_rejected(self):
        with pytest.raises(SchedulingError):
            spa_tick(ControllerState(), 40.0, 100.0, SCHEDULE, THRESHOLD)
        with pytest.raises(SchedulingError):
            spa_tick(ControllerState(), 40.0, 1020.0, SCHEDULE, THRESHOLD)  # window is half-open

    def test_non_positive_width_rejected(self):
        with pytest.raises(ValueError):
            spa_tick(ControllerState(), 0.0, DAY0_0800, SCHEDULE, THRESHOLD)

    def test_exhaustive_rule_grid(self):
        # fire iff wilt > 0.02 strictly AND previous > current strictly
        for reference in (50.0, 80.0, 100.0):
            for prev_f in (0.93, 0.96, 0.975, 0.98, 1.0):
                for cur_f in (0.93, 0.96, 0.975, 0.98, 0.985, 1.0):
                    previous, current = reference * prev_f, reference * cur_f
                    state = state_with(reference, previous)
                    _, cmd = spa_tick(state, current, DAY0_0800 + 60, SCHEDULE, THRESHOLD)
                    wilt = (reference - current) / reference
                    expected = wilt > 0.02 and previous > current
                    assert (cmd.action is Action.ON) == expected, \
                        (reference, previous, current, wilt)


class TestTimer:
    def test_window_start_activates(self):
        assert int(DAY0_0800) in SCHEDULE.timer_times(0)
        assert timer_tick(SCHEDULE).action is Action.ON

    def test_mid_cycle_off(self):
        assert int(DAY0_0800) + 15 not in SCHEDULE.timer_times(0)  # 08:15

    def test_full_day_is_18_activations(self):
        instants = SCHEDULE.timer_times(0)
        assert list(instants) == list(range(480, 1020, 30))
        commands = [timer_tick(SCHEDULE) for _ in instants]
        assert len(commands) == 18
        assert all(c.action is Action.ON for c in commands)
        assert sum(c.duration_min for c in commands) == 54.0
        assert [m - 1440 for m in SCHEDULE.timer_times(1)] == list(instants)

    def test_outside_window_off(self):
        assert 100 not in SCHEDULE.timer_times(0)  # 01:40
        assert 1020 not in SCHEDULE.timer_times(0)  # 17:00, the window's open end


class TestResetDaily:
    """The daily rollover happens inside spa_tick: the first sample of a new
    day drops yesterday's reference and previous width."""

    def test_rollover_clears_anchors(self):
        state = state_with(100.0, 95.0, now=DAY0_0800)
        next_day = 1440.0 + DAY0_0800
        state, cmd = spa_tick(state, 88.0, next_day, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.HOLD  # 12% below yesterday's reference, but a new day
        assert state.reference_width_cm == state.previous_width_cm == 88.0
        assert state.last_sample_day == 1
        _, cmd = spa_tick(state, 87.0, next_day + 15, SCHEDULE, THRESHOLD)
        assert cmd.action is Action.OFF  # 1.1% against today's anchor, not 13% against 100


class TestTraceInvariants:
    @settings(max_examples=80, deadline=None)
    @given(widths=st.lists(st.floats(50.0, 110.0), min_size=2, max_size=36))
    def test_safety_and_no_double_fire(self, widths):
        state = ControllerState()
        last_on = None
        previous = None
        for i, width in enumerate(widths):
            now = DAY0_0800 + 15.0 * i
            state, cmd = spa_tick(state, width, now, SCHEDULE, THRESHOLD)
            if cmd.action is Action.ON:
                assert cmd.duration_min == 3.0
                assert previous is not None and previous > width, \
                    "pump must never fire on a non-decreasing width"
                if last_on is not None:
                    assert now - last_on >= SCHEDULE.sample_interval_min
                    assert now >= last_on + 3.0
                last_on = now
            previous = width

    @settings(max_examples=60, deadline=None)
    @given(widths=st.lists(st.sampled_from([95.0, 96.0, 97.0, 100.0]) | st.floats(50.0, 110.0),
                           min_size=1, max_size=36))
    def test_each_sample_reports_its_degree_and_sign(self, widths):
        # Also while the pump runs (fast samples): the trace reads every sample's.
        fast = replace(SCHEDULE, sample_interval_min=1)
        state = ControllerState()
        for i, width in enumerate(widths):
            state, _ = spa_tick(state, width, DAY0_0800 + i, fast, THRESHOLD)
            assert state.wilt_degree == (widths[0] - width) / widths[0]
            previous = widths[i - 1] if i else width
            assert state.gradient_sign == (0 if previous == width else 1 if previous > width else -1)

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.floats(50.0, 110.0), min_size=2, max_size=24))
    def test_deadline_accounting(self, widths):
        state = ControllerState()
        for i, width in enumerate(widths):
            now = DAY0_0800 + 15.0 * i
            state, cmd = spa_tick(state, width, now, SCHEDULE, THRESHOLD)
            if cmd.action is Action.ON:
                assert state.pump_off_deadline_min == now + 3.0
