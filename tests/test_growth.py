"""Growth and turgor dynamics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fertisim.config import ConfigError, default_config, parse_config
from fertisim.growth import (
    EcBand,
    PlantState,
    advance,
    apply_irrigation,
    effective_width,
    irrigation_lag,
    make_seedling,
    plant_rate_scale,
)

CFG = default_config()
GP = CFG.growth_params()
NO_DEMAND = CFG.demand("growth_exp.peak_loss_rate")  # the default window, no loss
FLAT_ALL_DAY = replace(NO_DEMAND, window_start_min=0.0, window_end_min=1440.0,
                       peak_loss_rate=0.003, shape="flat")


def demand_of(peak, shape="sine"):
    return replace(NO_DEMAND, peak_loss_rate=peak, shape=shape)


def _run(plant, minutes, demand, step=1.0):
    for _ in range(int(minutes / step)):
        plant = advance(plant, step, demand, GP)
    return plant


class TestGrowthLaw:
    def test_band_ordering_after_30_days(self):
        finals = {}
        for band in EcBand:
            plant = _run(make_seedling(GP, band), 30 * 1440, NO_DEMAND, step=1440.0)
            finals[band] = plant.height_cm
        assert finals[EcBand.UNDER] < finals[EcBand.NORMAL] < finals[EcBand.OVER]

    def test_night_step_grows_height_only(self):
        plant = make_seedling(GP)
        plant = advance(plant, 180.0, NO_DEMAND, GP)  # park it at 03:00
        before = plant
        after = advance(plant, 10.0, demand_of(0.01), GP)
        assert after.turgor == before.turgor == 1.0
        assert after.height_cm > before.height_cm

    def test_split_advance_matches_single_advance(self):
        demand = demand_of(0.002)
        base = make_seedling(GP)
        base = advance(base, 30 * 1440.0 + 600.0, NO_DEMAND, GP)  # a grown plant, clock at 10:00

        one = advance(base, 10.0, demand, GP)
        two = advance(advance(base, 5.0, demand, GP), 5.0, demand, GP)
        assert abs(one.height_cm - two.height_cm) < 1e-9
        assert abs(one.turgid_width_cm - two.turgid_width_cm) < 1e-9
        assert abs(one.turgor - two.turgor) < 1e-12

    def test_non_positive_dt_rejected(self):
        plant = make_seedling(GP)
        with pytest.raises(ValueError):
            advance(plant, 0.0, NO_DEMAND, GP)
        with pytest.raises(ValueError):
            advance(plant, -5.0, NO_DEMAND, GP)

    def test_daily_increments_non_decreasing(self):
        plant = make_seedling(GP)
        heights = [plant.height_cm]
        for day in range(43):
            plant = advance(plant, 1440.0, NO_DEMAND, GP)
            heights.append(plant.height_cm)
        increments = [b - a for a, b in zip(heights, heights[1:])]
        assert all(later >= earlier for earlier, later in zip(increments, increments[1:]))

    def test_group_mean_ordering_every_capture_day(self):
        params = GP
        groups = {
            band: [make_seedling(params, band, plant_rate_scale(11, gi, i, params))
                   for i in range(20)]
            for gi, band in enumerate(EcBand)
        }
        for day in range(3, 44, 3):
            groups = {band: [advance(p, 3 * 1440.0, NO_DEMAND, params) for p in grp]
                      for band, grp in groups.items()}
            means = {band: sum(p.height_cm for p in grp) / len(grp)
                     for band, grp in groups.items()}
            assert means[EcBand.OVER] > means[EcBand.NORMAL] > means[EcBand.UNDER], day


class TestIrrigationResponse:
    def test_lag_delays_recovery_under_constant_demand(self):
        plant = make_seedling(GP)
        plant = apply_irrigation(plant, now_min=100.0, lag_min=12.0)
        trajectory = {0: plant.turgor}
        for minute in range(1, 151):
            plant = advance(plant, 1.0, FLAT_ALL_DAY, GP)
            trajectory[minute] = plant.turgor
        assert trajectory[105] < trajectory[100], "still draining during the lag"
        post = [trajectory[m] for m in range(112, 150)]
        assert all(b >= a for a, b in zip(post, post[1:])), "non-decreasing once recovery starts"

    def test_fully_turgid_plant_stays_saturated(self):
        plant = make_seedling(GP)
        plant = apply_irrigation(plant, now_min=0.0, lag_min=10.0)
        plant = advance(plant, 60.0, NO_DEMAND, GP)
        assert plant.turgor == 1.0

    def test_reirrigation_before_lag_takes_latest(self):
        lag = 12.0
        demand = FLAT_ALL_DAY

        def trajectory(irrigation_times):
            plant = make_seedling(GP)
            seen = []
            for minute in range(1, 200):
                if minute - 1 in irrigation_times:
                    plant = apply_irrigation(plant, float(minute - 1), lag)
                plant = advance(plant, 1.0, demand, GP)
                seen.append(plant.turgor)
            return seen

        twice = trajectory({100, 101})
        once = trajectory({101})
        # identical from the second irrigation instant onward
        assert twice[101:] == once[101:]

    def test_lag_draw_is_bounded_and_deterministic(self, growth_params):
        lags = [irrigation_lag(42, 1000 + k, growth_params) for k in range(50)]
        assert all(growth_params.lag_low_min <= lag < growth_params.lag_high_min for lag in lags)
        assert irrigation_lag(42, 1234, growth_params) == irrigation_lag(42, 1234, growth_params)
        assert len(set(lags)) > 1


class TestEffectiveWidth:
    def test_full_turgor_identity(self):
        plant = PlantState(age_min=0, height_cm=50, turgid_width_cm=40, turgor=1.0,
                           band=EcBand.NORMAL)
        assert effective_width(plant, GP) == 40.0

    def test_zero_turgor_hits_shrink_floor(self):
        plant = PlantState(age_min=0, height_cm=50, turgid_width_cm=40, turgor=0.0,
                           band=EcBand.NORMAL)
        assert effective_width(plant, GP) == pytest.approx(36.0)

    def test_partial_turgor_formula(self):
        plant = PlantState(age_min=0, height_cm=50, turgid_width_cm=40, turgor=0.8,
                           band=EcBand.NORMAL)
        assert effective_width(plant, GP) == pytest.approx(40.0 * (1.0 - 0.10 * 0.2))

    @given(turgor=st.floats(0.0, 1.0), width=st.floats(1.0, 100.0))
    def test_bounded_by_shrink_limit(self, turgor, width):
        plant = PlantState(age_min=0, height_cm=10, turgid_width_cm=width, turgor=turgor,
                           band=EcBand.NORMAL)
        w = effective_width(plant, GP)
        assert w <= width
        assert w >= (1.0 - 0.10) * width - 1e-12
        if turgor == 1.0:
            assert w == width

    @given(lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    def test_strictly_increasing_in_turgor(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        if hi - lo < 1e-9:  # below float resolution of the formula
            return
        make = lambda t: PlantState(age_min=0, height_cm=10, turgid_width_cm=40, turgor=t,
                                    band=EcBand.NORMAL)
        assert effective_width(make(lo), GP) < effective_width(make(hi), GP)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(peak=st.floats(0.0, 0.02), minutes=st.integers(1, 2000), seed=st.integers(0, 10))
    def test_state_stays_physical(self, peak, minutes, seed):
        demand = demand_of(peak)
        plant = make_seedling(GP, rate_scale=plant_rate_scale(seed, 0, 0, GP))
        prev = plant
        for step in range(0, minutes, 37):
            dt = min(37.0, minutes - step)
            plant = advance(plant, dt, demand, GP)
            assert 0.0 <= plant.turgor <= 1.0
            assert plant.height_cm >= prev.height_cm
            assert plant.turgid_width_cm >= prev.turgid_width_cm
            prev = plant

    def test_trajectory_is_bit_deterministic(self):
        demand = demand_of(0.004)

        def simulate():
            plant = make_seedling(GP)
            out = []
            for minute in range(600):
                if minute == 300:
                    plant = apply_irrigation(plant, plant.age_min, 12.5)
                plant = advance(plant, 1.0, demand, GP)
                out.append((plant.height_cm, plant.turgid_width_cm, plant.turgor))
            return out

        assert simulate() == simulate()


class TestPopulation:
    @settings(max_examples=60, deadline=None)
    @given(
        band=st.sampled_from(list(EcBand)),
        seed=st.integers(0, 1000),
        n=st.integers(1, 8),
        peak=st.floats(0.0, 0.02),
        # short steps land inside lags and recovery windows, long ones cross
        # demand-window edges and whole days
        steps=st.lists(st.tuples(st.one_of(st.floats(0.25, 40.0), st.floats(40.0, 2000.0)),
                                 st.booleans()),
                       min_size=1, max_size=16),
    )
    def test_population_matches_plants_advanced_alone(self, band, seed, n, peak, steps):
        demand = demand_of(peak)
        scales = [plant_rate_scale(seed, 0, i, GP) for i in range(n)]
        pop = make_seedling(GP, band, np.array(scales))
        alone = [make_seedling(GP, band, s) for s in scales]
        for dt, irrigate in steps:
            if irrigate:
                now = pop.age_min
                lag = irrigation_lag(seed, now, GP)
                pop = apply_irrigation(pop, now, lag)
                alone = [apply_irrigation(p, now, lag) for p in alone]
            pop = advance(pop, dt, demand, GP)
            alone = [advance(p, dt, demand, GP) for p in alone]
        widths = effective_width(pop, GP)
        for i, single in enumerate(alone):
            assert pop.age_min == single.age_min
            assert pop.turgor == single.turgor
            assert pop.recovery_deadline_min == single.recovery_deadline_min
            assert pop.rate_scale[i] == single.rate_scale
            assert pop.height_cm[i] == pytest.approx(single.height_cm, rel=1e-12, abs=0.0)
            assert pop.turgid_width_cm[i] == pytest.approx(single.turgid_width_cm,
                                                           rel=1e-12, abs=0.0)
            assert widths[i] == pytest.approx(effective_width(single, GP), rel=1e-12, abs=0.0)


def mean_rate(demand, a, b):
    """Mean loss rate over [a, b] clock minutes, from the exact integral."""
    return demand.loss_integral(a, b) / (b - a)


def sine_rate(peak, m, start=480.0, end=1020.0):
    """Reference half-sine loss rate at clock minute ``m`` of the default window."""
    return peak * math.sin(math.pi * (m - start) / (end - start)) if start <= m <= end else 0.0


class TestDemandProfile:
    def test_zero_outside_window_and_peak_at_midpoint(self):
        demand = demand_of(0.01)
        assert demand.loss_integral(0.0, 480.0) == 0.0
        assert demand.loss_integral(1020.0, 1440.0) == 0.0
        assert demand.loss_integral(1200.0, 1400.0) == 0.0
        mid = (demand.window_start_min + demand.window_end_min) / 2.0
        peak = mean_rate(demand, mid - 1e-3, mid + 1e-3)
        assert peak == pytest.approx(0.01)
        for m in (500.0, 700.0, 900.0, 1000.0):
            assert 0.0 <= mean_rate(demand, m - 1e-3, m + 1e-3) <= peak + 1e-12
        for a, b in ((480.0, 1020.0), (480.0, 481.0), (600.0, 900.0), (1019.0, 1020.0)):
            assert 0.0 <= demand.loss_integral(a, b) <= 0.01 * (b - a)

    @given(a=st.floats(0.0, 1440.0), width=st.floats(0.0, 400.0),
           peak=st.floats(0.0, 0.02))
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_quadrature(self, a, width, peak):
        demand = demand_of(peak)
        b = min(a + width, 1440.0)
        if b <= a:
            return
        n = 4000
        h = (b - a) / n
        grid = [a + i * h for i in range(n + 1)]
        rates = [sine_rate(peak, m) for m in grid]
        numeric = h * (sum(rates) - 0.5 * (rates[0] + rates[-1]))
        assert demand.loss_integral(a, b) == pytest.approx(numeric, abs=1e-6)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="demand.shape"):
            parse_config("demand.shape = square\n")

    def test_flat_shape_constant_inside_window(self):
        demand = demand_of(0.005, "flat")
        assert mean_rate(demand, 480.0, 481.0) == pytest.approx(0.005)
        assert mean_rate(demand, 745.0, 755.0) == pytest.approx(0.005)
        assert mean_rate(demand, 1019.0, 1020.0) == pytest.approx(0.005)
        assert demand.loss_integral(1020.0, 1100.0) == 0.0


def test_invalid_plant_states_rejected():
    with pytest.raises(ValueError):
        PlantState(age_min=0, height_cm=0.0, turgid_width_cm=5, turgor=1, band=EcBand.NORMAL)
    with pytest.raises(ValueError):
        PlantState(age_min=0, height_cm=5, turgid_width_cm=-1, turgor=1, band=EcBand.NORMAL)
    with pytest.raises(ValueError):
        PlantState(age_min=0, height_cm=5, turgid_width_cm=5, turgor=1.2, band=EcBand.NORMAL)
    with pytest.raises(ValueError):  # one bad plant rejects the population
        PlantState(age_min=0, height_cm=np.array([5.0, 0.0]), turgid_width_cm=np.array([5.0, 5.0]),
                   turgor=1, band=EcBand.NORMAL)


def test_rate_jitter_bounded():
    params = GP
    scales = [plant_rate_scale(7, g, i, params) for g in range(3) for i in range(20)]
    assert all(0.95 <= s <= 1.05 for s in scales)
    assert len(set(scales)) == len(scales)
