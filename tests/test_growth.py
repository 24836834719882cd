"""Growth and turgor dynamics."""

import math
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.config import ConfigError, default_config, parse_config
from fertisim.growth import (
    EcBand,
    PlantState,
    advance,
    apply_irrigation,
    irrigation_lag,
    irrigation_lags,
    make_seedling,
    plant_rate_scale,
    sizes,
    step_through,
)

CFG = default_config()
GP = CFG.growth_params()
NO_DEMAND = CFG.demand("growth_exp.peak_loss_rate")  # the default window, no loss
SINE_ALL_DAY = replace(NO_DEMAND, window_start_min=0.0, window_end_min=1440.0,
                       peak_loss_rate=0.003)


def demand_of(peak):
    return replace(NO_DEMAND, peak_loss_rate=peak)


def _run(plant, minutes, demand, step=1.0):
    for _ in range(int(minutes / step)):
        plant = advance(plant, step, demand, GP)
    return plant


class TestGrowthLaw:
    def test_band_ordering_after_30_days(self):
        finals = {}
        for band in EcBand:
            plant = _run(make_seedling(GP, band), 30 * 1440, NO_DEMAND, step=1440.0)
            finals[band] = sizes(plant, GP)[0]
        assert finals[EcBand.UNDER] < finals[EcBand.NORMAL] < finals[EcBand.OVER]

    def test_night_step_grows_height_only(self):
        plant = make_seedling(GP)
        plant = advance(plant, 180.0, NO_DEMAND, GP)  # park it at 03:00
        before = plant
        after = advance(plant, 10.0, demand_of(0.01), GP)
        assert after.turgor == before.turgor == 1.0
        assert sizes(after, GP)[0] > sizes(before, GP)[0]

    @given(age=st.floats(0.0, 49 * 1440.0), turgor=st.floats(0.0, 1.0),
           deadline=st.sampled_from(["none", "past", "pending", "straddling"]),
           u=st.floats(0.0, 1.0), peak=st.floats(0.0, 0.02),
           window=st.sampled_from([(480.0, 1020.0), (0.0, 1440.0)]),
           dt=st.floats(1e-3, 3 * 1440.0), split=st.floats(0.0, 1.0))
    @example(age=30 * 1440.0 + 600.0, turgor=1.0, deadline="none", u=0.0, peak=0.002,
             window=(480.0, 1020.0), dt=10.0, split=0.5)  # a grown plant, 10:00, 5 + 5 min
    @settings(max_examples=200, deadline=None)
    def test_split_advance_matches_single_advance(self, age, turgor, deadline, u, peak,
                                                  window, dt, split):
        first = dt * split
        assume(0.0 < first < dt)
        # ``u`` places the recovery deadline: before the step, anywhere up to one
        # step past its end, or with the recovery window over the split point
        at = {"none": None, "past": age - 3 * GP.recovery_duration_min * u,
              "pending": age + 2 * dt * u,
              "straddling": age + first - GP.recovery_duration_min * u}[deadline]
        demand = replace(NO_DEMAND, window_start_min=window[0], window_end_min=window[1],
                         peak_loss_rate=peak)
        base = replace(make_seedling(GP), age_min=age, turgor=turgor, recovery_deadline_min=at)

        one = advance(base, dt, demand, GP)
        two = advance(advance(base, first, demand, GP), dt - first, demand, GP)
        (h1, w1), (h2, w2) = sizes(one, GP), sizes(two, GP)
        assert h1 > sizes(base, GP)[0]
        assert abs(one.turgor - two.turgor) < 1e-12
        assert h2 == pytest.approx(h1, rel=1e-12)
        assert w2 == pytest.approx(w1, rel=1e-12)

    def test_non_positive_dt_rejected(self):
        plant = make_seedling(GP)
        with pytest.raises(ValueError):
            advance(plant, 0.0, NO_DEMAND, GP)
        with pytest.raises(ValueError):
            advance(plant, -5.0, NO_DEMAND, GP)

    def test_daily_increments_non_decreasing(self):
        plant = make_seedling(GP)
        heights = [sizes(plant, GP)[0]]
        for day in range(43):
            plant = advance(plant, 1440.0, NO_DEMAND, GP)
            heights.append(sizes(plant, GP)[0])
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
            means = {band: sum(sizes(p, params)[0] for p in grp) / len(grp)
                     for band, grp in groups.items()}
            assert means[EcBand.OVER] > means[EcBand.NORMAL] > means[EcBand.UNDER], day


class TestIrrigationResponse:
    def test_lag_delays_recovery_under_constant_demand(self):
        plant = make_seedling(GP)
        plant = apply_irrigation(plant, now_min=100.0, lag_min=12.0)
        trajectory = {0: plant.turgor}
        for minute in range(1, 151):
            plant = advance(plant, 1.0, SINE_ALL_DAY, GP)
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
        demand = SINE_ALL_DAY

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


class TestStepThrough:
    _LAG = st.one_of(st.sampled_from([GP.lag_low_min, GP.lag_high_min]),
                     st.floats(GP.lag_low_min, GP.lag_high_min))

    @settings(max_examples=200, deadline=None)
    @given(age=st.floats(0.0, 49 * 1440.0), turgor=st.floats(0.0, 1.0),
           deadline=st.one_of(st.none(), st.floats(-200.0, 200.0)),
           gaps=st.lists(st.one_of(st.floats(1e-3, 60.0), st.floats(60.0, 3 * 1440.0)),
                         max_size=12),
           lags=st.one_of(st.none(), st.lists(_LAG, min_size=13, max_size=13)),
           peak=st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
    @example(age=600.0, turgor=1.0, deadline=None, gaps=[30.0] * 12, lags=[GP.lag_low_min] * 13,
             peak=0.008)  # a timer day's half-hourly instants
    def test_equals_a_chain_of_advance_and_apply_irrigation(self, age, turgor, deadline, gaps,
                                                            lags, peak):
        # The first instant is the state's age, which stepping skips as ``step_to`` does.
        instants = list(accumulate(gaps, initial=age))
        lags = None if lags is None else lags[:len(instants)]
        demand = demand_of(peak)
        state = replace(make_seedling(GP, rate_scale=np.ones(2)), age_min=age, turgor=turgor,
                        recovery_deadline_min=None if deadline is None else age + deadline)

        chain, ages, turgors = state, [], []
        for i, now in enumerate(instants):
            if now > chain.age_min:
                chain = advance(chain, now - chain.age_min, demand, GP)
            ages.append(chain.age_min)
            turgors.append(chain.turgor)
            if lags is not None:
                chain = apply_irrigation(chain, now, lags[i])

        got_ages, got_turgors, last = step_through(state, instants, demand, GP, lags)
        assert list(map(float.hex, got_ages)) == list(map(float.hex, ages))
        assert list(map(float.hex, got_turgors)) == list(map(float.hex, turgors))
        assert last.age_min.hex() == chain.age_min.hex()
        assert last.turgor.hex() == chain.turgor.hex()
        assert last.recovery_deadline_min == chain.recovery_deadline_min
        assert last.rate_per_min is state.rate_per_min

    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 42, 2**64 - 1])),
           instants=st.lists(st.one_of(st.integers(0, 100 * 1440), st.floats(0.0, 1e9)),
                             max_size=20))
    def test_batched_lags_equal_each_lag_alone(self, seed, instants):
        assert irrigation_lags(seed, instants, GP) == [irrigation_lag(seed, now, GP)
                                                       for now in instants]


class TestEffectiveWidth:
    def test_full_turgor_identity(self):
        plant = PlantState(age_min=0, seedling_height_cm=50, seedling_width_cm=40, turgor=1.0,
                           rate_per_min=0.0)
        assert sizes(plant, GP)[1] == 40.0

    def test_zero_turgor_hits_shrink_floor(self):
        plant = PlantState(age_min=0, seedling_height_cm=50, seedling_width_cm=40, turgor=0.0,
                           rate_per_min=0.0)
        assert sizes(plant, GP)[1] == pytest.approx(36.0)

    def test_partial_turgor_formula(self):
        plant = PlantState(age_min=0, seedling_height_cm=50, seedling_width_cm=40, turgor=0.8,
                           rate_per_min=0.0)
        assert sizes(plant, GP)[1] == pytest.approx(40.0 * (1.0 - 0.10 * 0.2))

    @given(turgor=st.floats(0.0, 1.0), width=st.floats(1.0, 100.0))
    def test_bounded_by_shrink_limit(self, turgor, width):
        plant = PlantState(age_min=0, seedling_height_cm=10, seedling_width_cm=width, turgor=turgor,
                           rate_per_min=0.0)
        w = sizes(plant, GP)[1]
        assert w <= width
        assert w >= (1.0 - 0.10) * width - 1e-12
        if turgor == 1.0:
            assert w == width

    @given(lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    def test_strictly_increasing_in_turgor(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        if hi - lo < 1e-9:  # below float resolution of the formula
            return
        make = lambda t: PlantState(age_min=0, seedling_height_cm=10, seedling_width_cm=40,
                                    turgor=t, rate_per_min=0.0)
        assert sizes(make(lo), GP)[1] < sizes(make(hi), GP)[1]


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
            # turgid sizes: the visible width at full turgor
            turgid = [sizes(replace(p, turgor=1.0), GP) for p in (plant, prev)]
            (height, width), (prev_height, prev_width) = turgid
            assert height >= prev_height
            assert width >= prev_width
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
                out.append((*sizes(plant, GP), plant.turgor))
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
        heights, turgid = sizes(replace(pop, turgor=1.0), GP)
        widths = sizes(pop, GP)[1]
        for i, single in enumerate(alone):
            single_height, single_turgid = sizes(replace(single, turgor=1.0), GP)
            assert pop.age_min == single.age_min
            assert pop.turgor == single.turgor
            assert pop.recovery_deadline_min == single.recovery_deadline_min
            assert pop.rate_per_min[i] == single.rate_per_min
            assert heights[i] == pytest.approx(single_height, rel=1e-12, abs=0.0)
            assert turgid[i] == pytest.approx(single_turgid, rel=1e-12, abs=0.0)
            assert widths[i] == pytest.approx(sizes(single, GP)[1], rel=1e-12, abs=0.0)


def mean_rate(demand, a, b):
    """Mean loss rate over [a, b] clock minutes, from the exact integral."""
    return demand.loss_integral(a, b) / (b - a)


def sine_rate(peak, m, start=480.0, end=1020.0):
    """Reference half-sine loss rate at unwrapped minutes ``m`` (an array), default window."""
    clock = np.mod(m, 1440.0)
    inside = (start <= clock) & (clock <= end)
    return np.where(inside, peak * np.sin(math.pi * (clock - start) / (end - start)), 0.0)


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

    @given(a=st.floats(0.0, 1440.0), width=st.floats(0.0, 3 * 1440.0),
           peak=st.floats(0.0, 0.02))
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_quadrature(self, a, width, peak):
        demand = demand_of(peak)
        whole_day = 2.0 * peak * (demand.window_end_min - demand.window_start_min) / math.pi
        assert demand.loss_integral(a, a + 1440.0) == pytest.approx(whole_day, rel=1e-12, abs=1e-15)
        b = a + width
        if b <= a:
            return
        # trapezoid rule on a fine grid: under 1e-7 of error over three days
        rates = sine_rate(peak, np.linspace(a, b, 400_001))
        numeric = (b - a) / 400_000 * (rates.sum() - 0.5 * (rates[0] + rates[-1]))
        assert demand.loss_integral(a, b) == pytest.approx(numeric, abs=1e-6)

    def test_bad_shape_rejected(self):
        # the half sine is the only shape: naming one is an unknown key
        for shape in ("sine", "flat", "square"):
            with pytest.raises(ConfigError, match="unknown key 'demand.shape'"):
                parse_config(f"demand.shape = {shape}\n")


_STEP = st.one_of(
    st.tuples(st.just("advance"), st.floats(1e-3, 3 * 1440.0)),  # minutes
    st.tuples(st.just("irrigate"), st.floats(0.0, 30.0)),  # uptake lag in minutes
)


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_STEP, max_size=25), peak=st.floats(0.0, 0.05),
       band=st.sampled_from(list(EcBand)), seed=st.integers(0, 2**32))
def test_stepping_keeps_sizes_positive_and_turgor_a_fraction(steps, peak, band, seed):
    # What a per-state check once enforced: states stepped from seedlings stay valid.
    scales = np.array([plant_rate_scale(seed, 0, i, GP) for i in range(5)])
    pop = make_seedling(GP, band, scales)
    for kind, minutes in steps:
        if kind == "advance":
            pop = advance(pop, minutes, demand_of(peak), GP)
        else:
            pop = apply_irrigation(pop, pop.age_min, minutes)
        heights, widths = sizes(pop, GP)
        assert np.all(np.isfinite(heights)) and np.all(heights > 0.0)
        assert np.all(np.isfinite(widths)) and np.all(widths > 0.0)
        assert 0.0 <= pop.turgor <= 1.0


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_STEP, max_size=25), peak=st.floats(0.0, 0.05),
       band=st.sampled_from(list(EcBand)), seed=st.integers(0, 2**32), count=st.integers(1, 5))
def test_sizes_equal_the_per_step_product(steps, peak, band, seed, count):
    # Sizes are read from transplant in closed form; stepping them one growth
    # factor at a time, as a per-plant loop would, must give the same sizes.
    scales = np.array([plant_rate_scale(seed, 0, i, GP) for i in range(5)])
    pop = make_seedling(GP, band, scales)
    heights = np.full(5, GP.initial_height_cm)
    widths = np.full(5, GP.initial_width_cm)
    for kind, minutes in steps:
        if kind == "advance":
            pop = advance(pop, minutes, demand_of(peak), GP)
            heights = heights * np.exp(pop.rate_per_min * minutes)
            widths = widths * np.exp(GP.width_exponent * pop.rate_per_min * minutes)
        else:
            pop = apply_irrigation(pop, pop.age_min, minutes)
    first = replace(pop, turgor=1.0, rate_per_min=pop.rate_per_min[:count])  # turgid widths
    got_heights, got_widths = sizes(first, GP)
    assert got_heights == pytest.approx(heights[:count], rel=1e-12, abs=0.0)
    assert got_widths == pytest.approx(widths[:count], rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=20), peak=st.floats(0.0, 0.05),
       seed=st.integers(0, 2**32))
def test_sizes_at_instants_equal_each_instant_alone(steps, peak, seed):
    # The wilt rule evaluates plant 0 at a window of instants in one call; each
    # entry must be bit-identical to that instant's own evaluation.
    scales = np.array([plant_rate_scale(seed, 0, i, GP) for i in range(3)])
    pop = make_seedling(GP, EcBand.NORMAL, scales)
    states = []
    for kind, minutes in steps:
        if kind == "advance":
            pop = advance(pop, minutes, demand_of(peak), GP)
        else:
            pop = apply_irrigation(pop, pop.age_min, minutes)
        states.append(pop)
    track = replace(pop, age_min=np.array([p.age_min for p in states]),
                    turgor=np.array([p.turgor for p in states]), rate_per_min=pop.rate_per_min[:1])
    heights, widths = sizes(track, GP)
    alone = [sizes(replace(p, rate_per_min=p.rate_per_min[:1]), GP) for p in states]
    assert heights.tolist() == [h[0] for h, _ in alone]
    assert widths.tolist() == [w[0] for _, w in alone]


def test_size_overflow_raises_where_it_is_read():
    rates = np.array([1e-3, 1.0])  # the second plant's size overflows by day 1
    pop = PlantState(age_min=0.0, seedling_height_cm=5.0, seedling_width_cm=3.0, turgor=1.0,
                     rate_per_min=rates)
    pop = advance(pop, 1440.0, NO_DEMAND, GP)  # stepping reads no size, so it cannot overflow
    height, width = sizes(replace(pop, rate_per_min=pop.rate_per_min[:1]), GP)
    assert height[0] == pytest.approx(5.0 * math.exp(1.44)) and np.isfinite(width[0])
    with pytest.raises(ValueError, match=r"^plant size overflows at age 1440 min$"):
        sizes(pop, GP)


def test_rate_jitter_bounded():
    params = GP
    scales = [plant_rate_scale(7, g, i, params) for g in range(3) for i in range(20)]
    assert all(0.95 <= s <= 1.05 for s in scales)
    assert len(set(scales)) == len(scales)
