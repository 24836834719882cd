"""Acceptance suite: the headline results the simulator must reproduce.

Each test is one criterion, checked at its stated tolerance, and prints a
PASS line on success (run with ``pytest -v`` or ``-s`` to see them):

 1. water savings from the comparison scenario
 2. timer-regime arithmetic, exact
 3. single monitoring pump event at minute 255
 4. wilt-rule firing logic, exhaustive grid
 5. vision/renderer oracle equivalence over 1000 random captures
 6. growth-curve ordering and shape across 10 seeds
 7. growth maintained under the wilt-triggered regime
 8. byte-identical reruns of every scenario
 9. camera distance schedule, exact
"""

import time

import numpy as np
import pytest

from fertisim.config import default_config, parse_config
from fertisim.control import Action, ControllerState, spa_tick, timer_tick
from fertisim.growth import PlantState, sizes
from fertisim.ledger import WaterLedger
from fertisim.render import capture_distance, project, render
from fertisim.scenarios import (
    run_fertigation_comparison,
    run_growth_experiment,
    run_monitoring_trace,
)
from fertisim.vision import measure, segment
from outputs import csv_rows, summary, tree


def _report(criterion, text):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({text})")


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_compare")
    t0 = time.perf_counter()
    result = run_fertigation_comparison(default_config(), out)
    elapsed = time.perf_counter() - t0
    return result, out, elapsed


@pytest.fixture(scope="module")
def monitor_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_monitor")
    cfg = parse_config("output.dump_frames = true\n")
    result = run_monitoring_trace(cfg, out)
    return result, out


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc_growth")
    result = run_growth_experiment(default_config(), out)
    return result, out


def test_criterion_1_water_savings(compare_run):
    result, out, elapsed = compare_run
    auto_mean = float(summary(out)["auto_mean_l_per_day"])
    assert 0.80 <= result.savings_fraction <= 0.90, \
        f"savings {result.savings_fraction:.4f} outside [0.80, 0.90]"
    assert abs(auto_mean - 17.3) <= 4.0, f"auto usage {auto_mean:.2f} L/day outside 17.3 +/- 4"
    assert elapsed < 30.0, f"comparison took {elapsed:.1f}s"
    _report(1, f"savings {result.savings_fraction:.3f}, auto {auto_mean:.2f} L/day, {elapsed:.1f}s")


def test_criterion_2_timer_arithmetic(cfg, schedule):
    flow = cfg["pump.flow_l_per_min"]
    ledger = WaterLedger()
    ledger.register_day(0, "timer")
    ons = []
    for m in schedule.timer_times(0):
        cmd = timer_tick(schedule)
        ledger.accrue(cmd, float(m), flow, "timer")
        ons.append(cmd)
    row = ledger.rows()[0]
    assert len(ons) == 18 and all(c.action is Action.ON for c in ons)
    assert sum(c.duration_min for c in ons) == 54.0
    assert abs(row.liters - 101.6) <= 0.1
    _report(2, f"18 activations, 54 pump-minutes, {row.liters:.4f} L/day")


def test_criterion_3_monitoring_event(monitor_run):
    _, out = monitor_run
    times = [int(row["timestamp_min"]) for row in csv_rows(out / "trace.csv")]
    assert len(times) == 26
    assert [b - a for a, b in zip(times, times[1:])] == [15] * 25
    assert times[-1] - times[0] == 375
    events = csv_rows(out / "pump_events.csv")
    assert len(events) == 1, f"{len(events)} pump events, expected 1"
    assert events[0]["sample_index"] == "17" and events[0]["offset_min"] == "255"
    _report(3, "one pump event, sample 17, minute 255")


# The highest camera-noise amplitude A such that the event stays at minute 255
# at every amplitude from 0 to A; noisy frames are majority-filtered (README,
# "Camera noise").
NOISE_TOLERANCE = 106


def _monitor_event_offsets(amplitude, out):
    run_monitoring_trace(parse_config(f"camera.noise_amplitude = {amplitude}\n"), out)
    return [int(row["offset_min"]) for row in csv_rows(out / "pump_events.csv")]


def test_criterion_3_event_survives_camera_noise(tmp_path):
    for amplitude in range(NOISE_TOLERANCE + 1):
        assert _monitor_event_offsets(amplitude, tmp_path / str(amplitude)) == [255], amplitude
    _report(3, f"event at minute 255 for every noise amplitude 0..{NOISE_TOLERANCE}")


def test_criterion_3_event_moves_past_the_noise_tolerance(tmp_path):
    assert _monitor_event_offsets(NOISE_TOLERANCE + 1, tmp_path) != [255]


def test_criterion_4_wilt_rule_sweep(cfg, schedule):
    threshold = cfg["control.wilt_threshold"]
    now = 600.0
    checked = 0
    for reference in (40.0, 64.0, 100.0):
        for previous in np.linspace(0.90 * reference, 1.02 * reference, 25):
            for current in np.linspace(0.90 * reference, 1.02 * reference, 25):
                state = ControllerState(reference_width_cm=reference,
                                        previous_width_cm=float(previous),
                                        last_sample_day=0)
                _, cmd = spa_tick(state, float(current), now, schedule, threshold)
                wilt = (reference - current) / reference
                expected = wilt > 0.02 and previous > current
                assert (cmd.action is Action.ON) == expected, \
                    (reference, previous, current)
                checked += 1
    # boundary cases: wilt exactly at threshold (exactly representable pairs),
    # and width not strictly shrinking
    for reference, boundary in ((50.0, 49.0), (100.0, 98.0), (200.0, 196.0)):
        assert (reference - boundary) / reference == 0.02
        state = ControllerState(reference_width_cm=reference,
                                previous_width_cm=reference, last_sample_day=0)
        _, cmd = spa_tick(state, boundary, now, schedule, threshold)
        assert cmd.action is Action.OFF, "wilt exactly 2% must not fire"
        state = ControllerState(reference_width_cm=reference,
                                previous_width_cm=0.95 * reference, last_sample_day=0)
        _, cmd = spa_tick(state, 0.95 * reference, now, schedule, threshold)
        assert cmd.action is Action.OFF, "previous == current must not fire"
        checked += 2
    _report(4, f"{checked} grid points incl. both boundaries")


def test_criterion_5_vision_oracle():
    cfg = default_config()
    gp = cfg.growth_params()
    cam = cfg.camera()
    margin, min_pixels = cfg["vision.red_margin"], cfg["vision.min_plant_pixels"]
    rng = np.random.default_rng(2024)
    rate = gp.normal_rate_per_day
    t0 = time.perf_counter()
    worst_invariance = 0.0
    for _ in range(1000):
        age = float(rng.uniform(8.0, 43.0))
        mult = float(rng.uniform(0.76, 1.2075))  # any band with jitter
        turgor = float(rng.uniform(0.6, 1.0))
        plant = PlantState(age_min=age * 1440.0, turgor=turgor, rate_per_min=rate * mult / 1440.0)
        height, _ = sizes(plant, gp)
        d1 = capture_distance(age)
        d2 = None
        for delta in rng.permutation([-9, -6, -3, 3, 6, 9]):
            if age + delta < 0:
                continue
            cand = capture_distance(age + delta)
            if cand != d1 and height * cam.focal_px / cand <= 480.0 \
                    and sizes(plant, gp)[1] * cam.focal_px / cand <= 640.0:
                d2 = cand
                break

        measured = []
        for d in (d1,) + ((d2,) if d2 else ()):
            runs = project([height], [sizes(plant, gp)[1]], cam, d)
            frame, extents = render(runs[0], cam, (0, 0))
            m = measure(segment(frame, margin), d, cam, min_pixels)
            # pixel extents recovered exactly
            cm_per_px = d / cam.focal_px
            assert (m.height_cm, m.width_cm) == (extents[0] * cm_per_px, extents[1] * cm_per_px)
            assert m.plant_pixel_count == extents[2]
            # physical extents within one rasterization pixel
            assert abs(m.height_cm - height) <= cm_per_px * (1.0 + 1e-9)
            assert abs(m.width_cm - sizes(plant, gp)[1]) <= cm_per_px * (1.0 + 1e-9)
            measured.append(m)
        if len(measured) == 2:
            rel = abs(measured[0].height_cm - measured[1].height_cm) / measured[0].height_cm
            worst_invariance = max(worst_invariance, rel)
            assert rel <= 0.02, f"height changed {rel:.2%} between {d1} and {d2} cm"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"vision oracle sweep took {elapsed:.1f}s"
    _report(5, f"1000 captures exact, worst height invariance "
               f"{worst_invariance:.2%}, {elapsed:.1f}s")


def test_criterion_6_growth_ordering_ten_seeds(growth_run, tmp_path):
    runs = [growth_run]
    for seed in range(9):
        out = tmp_path / str(seed)
        runs.append((run_growth_experiment(parse_config(f"sim.seed = {seed}\n"), out), out))
    for result, out in runs:
        rows = csv_rows(out / "growth_means.csv")
        assert len(rows) == 15
        assert result.failures == []
        for label in ("under", "normal", "over"):
            series = [float(row[f"{label}_mean_cm"]) for row in rows]
            increments = [b - a for a, b in zip(series, series[1:])]
            assert all(later >= earlier
                       for earlier, later in zip(increments, increments[1:])), \
                f"{label} increments not non-decreasing: {increments}"
    _report(6, "ordering and increasing increments hold for 10 seeds x 15 days")


def test_criterion_7_growth_maintained(compare_run):
    _, out, _ = compare_run
    written = summary(out)
    auto = float(written["auto_growth_increment_cm"])
    control = float(written["control_growth_increment_cm"])
    assert control > 0.0
    deviation = abs(auto - control) / control
    assert deviation <= 0.10, f"auto-period growth deviates {deviation:.2%} from control"
    _report(7, f"auto increment {auto:.2f} cm vs control {control:.2f} cm ({deviation:.2%})")


def test_criterion_8_determinism(compare_run, monitor_run, growth_run, tmp_path):
    reruns = [
        ("compare", compare_run[1],
         lambda out: run_fertigation_comparison(default_config(), out)),
        ("monitor", monitor_run[1],
         lambda out: run_monitoring_trace(parse_config("output.dump_frames = true\n"), out)),
        ("growth", growth_run[1],
         lambda out: run_growth_experiment(default_config(), out)),
    ]
    total_files = 0
    for name, first_out, rerun in reruns:
        second_out = tmp_path / name
        rerun(second_out)
        first = tree(first_out)
        second = tree(second_out)
        assert first.keys() == second.keys(), f"{name}: different file sets"
        assert any(k.endswith(".csv") for k in first)
        for key in first:
            assert first[key] == second[key], f"{name}/{key} differs between runs"
        total_files += len(first)
    _report(8, f"{total_files} files byte-identical across scenario reruns")


def test_criterion_9_distance_schedule():
    expected = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
                110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0]
    assert [capture_distance(d) for d in range(0, 43, 3)] == expected
    for inner in range(43):
        assert capture_distance(inner) == expected[inner // 3]
    for later in (43, 45, 60, 100, 365):
        assert capture_distance(later) == 170.0
    _report(9, "schedule table 30..170 exact, clamped thereafter")
