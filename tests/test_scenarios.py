"""End-to-end behavior of the three bundled experiments."""

import importlib.util
import logging
import threading
from pathlib import Path

import numpy as np
import pytest

from fertisim import growth, scenarios
from fertisim.config import Config, ConfigError, default_config, parse_config
from fertisim.growth import (
    MINUTES_PER_DAY,
    EcBand,
    advance,
    apply_irrigation,
    irrigation_lags,
    make_seedling,
    rate_scales,
    sizes,
)
from fertisim.ppm import read_ppm
from fertisim.render import FrameFitError, capture_distance, project, render
from fertisim.scenarios import (
    run_fertigation_comparison,
    run_growth_experiment,
    run_monitoring_trace,
)
from fertisim.vision import measure, segment
from oracle import paint
from outputs import csv_rows, summary, tree


@pytest.fixture(scope="module")
def growth_default(tmp_path_factory):
    out = tmp_path_factory.mktemp("growth")
    return run_growth_experiment(default_config(), out), out


@pytest.fixture(scope="module")
def compare_default(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    return run_fertigation_comparison(default_config(), out), out


def capture_days(out):
    return [int(row["capture_day"]) for row in csv_rows(out / "growth_means.csv")]


def band_means(out):
    """Each band's mean heights in growth_means.csv, in EcBand order."""
    rows = csv_rows(out / "growth_means.csv")
    return {band.value: [float(row[f"{band.value}_mean_cm"]) for row in rows] for band in EcBand}


class TestGrowthExperiment:
    def test_fifteen_capture_days(self, growth_default):
        result, out = growth_default
        assert capture_days(out) == list(range(0, 43, 3))
        assert summary(out)["capture_days"] == "15"
        assert result.failures == []
        assert result.skipped_samples == 0

    def test_overlapping_canopies_stop_individual_capture(self, tmp_path):
        # Past the default 43 days, a canopy first outgrows the 40 cm row spacing on day 45.
        run_growth_experiment(parse_config("growth_exp.days = 56\n"), tmp_path)
        assert capture_days(tmp_path) == list(range(0, 43, 3))
        assert "overlap_stop_day = 45\n" in (tmp_path / "summary.txt").read_text()

    def test_all_canopies_narrower_than_spacing_keep_capturing(self, growth_default):
        _, out = growth_default
        assert len(capture_days(out)) == 15
        assert summary(out)["overlap_stop_day"] == "none"

    def test_one_canopy_wider_than_spacing_stops_capture(self, tmp_path):
        # A spacing between the two widest canopies on day 0 trips the rule on that plant alone.
        cfg = default_config()
        run = scenarios._Run(cfg, cfg.demand("growth_exp.peak_loss_rate"), cfg.schedule())
        widths = np.sort(np.concatenate([
            sizes(run.step_to(run.population(band, gi, cfg["growth_exp.group_size"]), 1440.0),
                  run.gp)[1]
            for gi, band in enumerate(EcBand)]))
        assert widths[-1] > widths[-2]
        spacing = float((widths[-1] + widths[-2]) / 2)
        run_growth_experiment(parse_config(f"growth_exp.spacing_cm = {spacing!r}\n"), tmp_path)
        assert capture_days(tmp_path) == []
        assert summary(tmp_path)["overlap_stop_day"] == "0"

    def test_default_calibration_first_trips_between_day_40_and_50(self, growth_params,
                                                                    no_demand):
        groups = [make_seedling(growth_params, band, rate_scales(42, gi, 20, growth_params))
                  for gi, band in enumerate(EcBand)]
        first = None
        for day in range(56):
            t_cap = (day + 1) * 1440.0
            groups = [advance(g, [t_cap], no_demand, growth_params)[2] for g in groups]
            if any(np.any(sizes(g, growth_params)[1] > 40.0) for g in groups):
                first = day
                break
        assert first is not None and 40 < first < 50, f"overlap first tripped at day {first}"

    def test_csv_written(self, growth_default):
        _, out = growth_default
        lines = (out / "growth_means.csv").read_text().splitlines()
        assert lines[0] == "capture_day,distance_cm,under_mean_cm,normal_mean_cm,over_mean_cm"
        assert len(lines) == 16

    def test_identical_bands_are_statistically_indistinguishable(self, tmp_path):
        # band multipliers of 1 grow all three groups at the normal rate
        same = parse_config("growth.under_multiplier = 1.0\ngrowth.over_multiplier = 1.0\n"
                            "sim.seed = 5\n")
        run_growth_experiment(same, tmp_path)
        days = capture_days(tmp_path)
        assert days == list(range(0, 43, 3))
        for day, values in zip(days, zip(*band_means(tmp_path).values())):
            spread = (max(values) - min(values)) / min(values)
            assert spread < 0.08, f"groups diverged {spread:.2%} on day {day}"

    def test_seed_changes_curves_but_not_ordering(self, growth_default, tmp_path):
        _, base = growth_default
        other = run_growth_experiment(parse_config("sim.seed = 43\n"), tmp_path)
        assert other.failures == []
        assert band_means(tmp_path) != band_means(base)


class TestMonitoringTrace:
    def test_single_event_at_minute_255(self, cfg, tmp_path):
        run_monitoring_trace(cfg, tmp_path)
        assert len(csv_rows(tmp_path / "trace.csv")) == 26
        events = csv_rows(tmp_path / "pump_events.csv")
        assert [(row["sample_index"], row["offset_min"]) for row in events] == [("17", "255")]
        assert summary(tmp_path)["event_offsets_min"] == "255"

    def test_zero_demand_stays_quiet(self, tmp_path):
        quiet = parse_config("monitor.peak_loss_rate = 0\n")
        result = run_monitoring_trace(quiet, tmp_path)
        assert result.events == []
        assert all(float(row["wilt_degree"]) <= 0.0 for row in csv_rows(tmp_path / "trace.csv"))

    def test_doubled_demand_fires_earlier(self, cfg, tmp_path):
        doubled = parse_config(f"monitor.peak_loss_rate = {cfg['monitor.peak_loss_rate'] * 2}\n")
        run_monitoring_trace(doubled, tmp_path)
        events = csv_rows(tmp_path / "pump_events.csv")
        assert events and int(events[0]["offset_min"]) < 255

    def test_event_minute_never_rises_with_demand(self, tmp_path):
        # Seed 42: more demand wilts the plant sooner, so its one event comes no later.
        rates = [0.0025, 0.0028, 0.0029, 0.003, 0.0031, 0.0032, 0.0035]
        offsets = []
        for rate in rates:
            out = tmp_path / str(rate)
            run_monitoring_trace(parse_config(f"monitor.peak_loss_rate = {rate}\n"), out)
            offsets.append([int(row["offset_min"]) for row in csv_rows(out / "pump_events.csv")])
        assert offsets == [[285], [270], [255], [255], [255], [240], [225]]

    def test_trace_wilt_column_tracks_reference(self, cfg, tmp_path):
        run_monitoring_trace(cfg, tmp_path)
        cm_per_px = capture_distance(cfg["monitor.start_day"]) / cfg.camera().focal_px
        rows = csv_rows(tmp_path / "trace.csv")
        # A width is a whole number of pixels: each is recovered exactly from its 6 decimals.
        widths = [round(float(row["width_cm"]) / cm_per_px) * cm_per_px for row in rows]
        reference = widths[0]
        for row, width in zip(rows, widths):
            assert row["wilt_degree"] == f"{(reference - width) / reference:.6f}"

    def test_byte_identical_outputs(self, cfg, tmp_path):
        dump = parse_config("output.dump_frames = true\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_monitoring_trace(dump, a)
        run_monitoring_trace(dump, b)
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_dumped_frames_do_not_depend_on_the_dump_threads(self, tmp_path, monkeypatch):
        # Noisy frames drawn and written on a pool of 1, 2 or 3 threads: the same
        # files, and no more writer threads than the pool has.
        cfg = parse_config("camera.noise_amplitude = 20\noutput.dump_frames = true\n")
        trees, write_ppm = {}, scenarios.write_ppm
        for threads in (1, 2, 3):
            writers = set()

            def recorded(frame, path):
                writers.add(threading.current_thread().name)
                write_ppm(frame, path)

            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "_DUMP_THREADS", threads)
                patch.setattr(scenarios, "write_ppm", recorded)
                run_monitoring_trace(cfg, tmp_path / str(threads))
            assert 1 <= len(writers) <= threads
            trees[threads] = tree(tmp_path / str(threads) / "frames")
        assert len(trees[1]) == cfg["monitor.sample_count"]
        assert trees[2] == trees[1] and trees[3] == trees[1]

    @pytest.mark.parametrize("amplitude", [0, 20, 105])
    def test_dumped_frames_measure_as_their_trace_rows(self, tmp_path, amplitude):
        # Each PPM read back and segmented whole reproduces its trace.csv row,
        # whichever path segment took on the rendered frame (at margin 60 the
        # rendered colours keep their classes up to amplitude 97).
        cfg = parse_config(f"camera.noise_amplitude = {amplitude}\noutput.dump_frames = true\n")
        run_monitoring_trace(cfg, tmp_path)
        cam = cfg.camera()
        distance = capture_distance(cfg["monitor.start_day"])
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg["monitor.sample_count"]
        for k, row in enumerate(rows):
            frame = read_ppm(str(tmp_path / "frames" / f"sample_{k:03d}.ppm"))
            mask = segment(frame, cfg["vision.red_margin"], cleanup=amplitude > 0)
            m = measure(mask, distance, cam, cfg["vision.min_plant_pixels"])
            assert row.split(",")[2:4] == [f"{m.height_cm:.6f}", f"{m.width_cm:.6f}"], k


def increments(out):
    """The wilt-controlled period's growth increments in summary.txt: (auto, control)."""
    written = summary(out)
    return (float(written["auto_growth_increment_cm"]),
            float(written["control_growth_increment_cm"]))


class TestComparison:
    def test_savings_and_usage_bands(self, compare_default):
        result, out = compare_default
        written = summary(out)
        assert float(written["timer_mean_l_per_day"]) == pytest.approx(101.6, abs=0.1)
        assert 0.80 < result.savings_fraction < 0.90
        assert abs(float(written["auto_mean_l_per_day"]) - 17.3) <= 4.0
        assert result.failures == []

    def test_regime_timeline_coverage(self, compare_default):
        _, out = compare_default
        rows = (out / "daily_usage.csv").read_text().splitlines()[1:]
        regimes = [line.split(",")[1] for line in rows]
        assert len(regimes) == 49
        assert regimes[:30] == ["timer"] * 30
        assert regimes[30:44] == ["auto"] * 14
        assert regimes[44:] == ["timer"] * 5

    def test_timer_days_constant_usage(self, compare_default):
        _, out = compare_default
        rows = (out / "daily_usage.csv").read_text().splitlines()[1:]
        timer_liters = {line.split(",")[3] for line in rows if line.split(",")[1] == "timer"}
        assert len(timer_liters) == 1  # deterministic schedule, identical days

    def test_representative_plant_contract(self, compare_default):
        _, out = compare_default
        rows = csv_rows(out / "trace.csv")
        # exactly one trace row per in-window auto sample: 14 days x 18 samples
        assert len(rows) == 14 * 18
        assert {row["plant_id"] for row in rows} == {"0"}

    def test_growth_maintained_vs_control(self, compare_default):
        _, out = compare_default
        auto, control = increments(out)
        assert control > 0
        assert abs(auto - control) <= 0.10 * control

    def test_height_series_covers_49_days(self, compare_default):
        _, out = compare_default
        rows = csv_rows(out / "heights.csv")
        assert [int(row["capture_day"]) for row in rows] == list(range(0, 49, 2))
        heights = [float(row["mean_height_cm"]) for row in rows]
        assert all(b > a for a, b in zip(heights, heights[1:]))

    def test_growth_outside_the_band_fails_its_check(self, monkeypatch, tmp_path):
        # No config reaches this check while growth ignores the water (ROADMAP item 2),
        # so the control run's heights are doubled: its increment is twice the auto run's.
        run_control = scenarios._run_control

        def doubled_control(*args):
            return [(d, 2.0 * h, w) for d, h, w in run_control(*args)]

        monkeypatch.setattr(scenarios, "_run_control", doubled_control)
        cfg = parse_config("compare.plants = 2\ncompare.total_days = 8\n"
                           "compare.auto_start_day = 3\ncompare.auto_end_day = 6\n")
        result = run_fertigation_comparison(cfg, tmp_path)
        auto, control = increments(tmp_path)
        assert control > 1.5 * auto > 0
        assert result.failures == ["growth not maintained within 10% of the timer control"]
        summary = (tmp_path / "summary.txt").read_text().splitlines()
        assert summary[-2:] == ["savings_above_0.80 = true", "growth_within_band = false"]

    def test_zero_demand_auto_period_saves_everything(self, tmp_path):
        cfg = parse_config(
            "demand.peak_loss_rate = 0\n"
            "compare.total_days = 8\n"
            "compare.auto_start_day = 3\n"
            "compare.auto_end_day = 6\n"
        )
        result = run_fertigation_comparison(cfg, tmp_path)
        written = summary(tmp_path)
        assert written["auto_activations_total"] == "0"
        assert float(written["auto_mean_l_per_day"]) == 0.0
        assert result.savings_fraction == 1.0

    def test_skipped_samples_count_both_runs(self, tmp_path, caplog):
        # At 3,000 pixels some of six plants' captures are skipped, in the all-timer control too.
        cfg = parse_config("vision.min_plant_pixels = 3000\ncompare.plants = 6\n")
        with caplog.at_level(logging.INFO, logger=scenarios.__name__):
            result = run_fertigation_comparison(cfg, tmp_path)
        logged = [r for r in caplog.records if "sample skipped" in r.getMessage()]
        assert logged and result.skipped_samples == len(logged)

    def test_timeline_misconfiguration_fails_before_simulation(self):
        with pytest.raises(ConfigError, match="timeline"):
            Config(values={**default_config().values, "compare.auto_end_day": 60})

    @pytest.mark.parametrize("interval", [15, 20, 45])
    def test_timer_usage_does_not_depend_on_sample_interval(self, compare_default, tmp_path,
                                                            interval):
        cfg = parse_config(
            f"compare.sample_interval_min = {interval}\n"
            "compare.plants = 2\n"
            "compare.total_days = 8\n"
            "compare.auto_start_day = 3\n"
            "compare.auto_end_day = 6\n"
        )
        run_fertigation_comparison(cfg, tmp_path)
        default = float(summary(compare_default[1])["timer_mean_l_per_day"])
        assert default == pytest.approx(101.6, abs=1e-9)
        assert float(summary(tmp_path)["timer_mean_l_per_day"]) == pytest.approx(default,
                                                                                 abs=1e-9)

    @pytest.mark.parametrize("config", [
        "control.wilt_threshold = 0.03", "compare.sample_interval_min = 15",
        "compare.sample_interval_min = 45", "compare.auto_start_day = 29",
        "compare.auto_end_day = 40"])
    def test_control_run_does_not_follow_the_wilt_period(self, compare_default, tmp_path,
                                                          config):
        # Each key reaches the main run's wilt rule, and none reaches the all-timer control.
        # Only the period's bounds move which days are timer days.
        _, default = compare_default
        run_fertigation_comparison(parse_config(config + "\n"), tmp_path)
        changed, base = tree(tmp_path), tree(default)
        assert changed["pump_events.csv"] != base["pump_events.csv"]
        assert changed["control_heights.csv"] == base["control_heights.csv"]
        if not config.startswith("compare.auto_"):
            timer_days = [[row for row in csv_rows(out / "daily_usage.csv")
                           if row["regime"] == "timer"] for out in (tmp_path, default)]
            assert timer_days[0] == timer_days[1]


def reference_control_heights(cfg):
    """control_heights.csv's rows for an all-timer control run alone from day 0: stepped
    by one-instant ``advance`` calls and ``apply_irrigation``, and each plant captured with
    ``project``, ``render``, ``segment`` and ``measure``."""
    gp, cam, seed = cfg.growth_params(), cfg.camera(), cfg["sim.seed"]
    demand = cfg.demand("demand.peak_loss_rate")
    schedule = cfg.schedule(cfg["compare.sample_interval_min"])
    pop = make_seedling(gp, EcBand.NORMAL, rate_scales(seed, scenarios._COMPARE_GROUP_INDEX,
                                                       cfg["compare.plants"], gp))

    rows = []
    for day in range(cfg["compare.total_days"]):
        for now in schedule.timer_times(day):
            pop = advance(pop, [now], demand, gp)[2]
            pop = apply_irrigation(pop, now, irrigation_lags(seed, [now], gp)[0])
        if day % cfg["compare.capture_every_days"] == 0:
            minute, distance = (day + 1) * MINUTES_PER_DAY, capture_distance(day)
            pop = advance(pop, [minute], demand, gp)[2]
            measured = []
            for i, runs in enumerate(project(*sizes(pop, gp), cam, distance)):
                frame, _ = render(runs, cam, (scenarios._COMPARE_GROUP_INDEX, minute, i))
                mask = segment(frame, cfg["vision.red_margin"], cleanup=cam.noise_amplitude > 0)
                measured.append(measure(mask, distance, cam, cfg["vision.min_plant_pixels"]))
            height = sum(m.height_cm for m in measured) / len(measured)
            width = sum(m.width_cm for m in measured) / len(measured)
            rows.append({"capture_day": str(day), "mean_height_cm": f"{height:.6f}",
                         "mean_width_cm": f"{width:.6f}"})
    return rows


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("auto_start", [1, 2, 5])
@pytest.mark.parametrize("seed", [7, 42])
def test_forked_control_equals_a_control_run_alone(tmp_path, seed, auto_start, every):
    # The control starts from the main run at the wilt period's first day; before it, it
    # measures the main run's captures again. Day 0 is shared unless the period starts there.
    cfg = parse_config(f"sim.seed = {seed}\ncompare.plants = 3\ncompare.total_days = 9\n"
                       f"compare.auto_start_day = {auto_start}\ncompare.auto_end_day = 7\n"
                       f"compare.capture_every_days = {every}\n")
    run_fertigation_comparison(cfg, tmp_path)
    assert csv_rows(tmp_path / "control_heights.csv") == reference_control_heights(cfg)


# A lag of 40 to 60 minutes makes 45-minute samples re-irrigate while the
# previous irrigation's lag is still pending.
LONG_LAG = "growth.lag_low_min = 40\ngrowth.lag_high_min = 60\n"


@pytest.mark.parametrize("interval", [5, 45])
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_wilt_window_matches_one_sample_at_a_time(tmp_path, monkeypatch, interval, seed):
    cfg = parse_config(f"sim.seed = {seed}\ncompare.sample_interval_min = {interval}\n"
                       f"compare.plants = 2\n{LONG_LAG}")
    run_fertigation_comparison(cfg, tmp_path / "windowed")
    monkeypatch.setattr(scenarios, "_WINDOW", 1)
    run_fertigation_comparison(cfg, tmp_path / "single")
    assert tree(tmp_path / "windowed") == tree(tmp_path / "single")
    # ONs land inside windows, and at 45 minutes some re-irrigate within the lag
    events = csv_rows(tmp_path / "windowed" / "pump_events.csv")
    times = [int(row["timestamp_min"]) for row in events]
    assert len(times) > 1
    assert interval == 5 or min(b - a for a, b in zip(times, times[1:])) < 60


def test_wilt_window_renders_and_writes_each_noisy_frame_once(tmp_path, monkeypatch):
    # One-minute samples from noon: the pump fires at sample 9, inside the first window.
    cfg = parse_config("control.window_start_min = 720\nmonitor.sample_interval_min = 1\n"
                       "monitor.sample_count = 40\ncamera.noise_amplitude = 20\n"
                       "output.dump_frames = true\n")
    renders, render = [], scenarios.render

    def counted(*args):
        renders.append(args[2])
        return render(*args)

    trees = {}
    for window in (scenarios._WINDOW, 1):
        renders.clear()
        with monkeypatch.context() as patch:
            patch.setattr(scenarios, "_WINDOW", window)
            patch.setattr(scenarios, "render", counted)
            run_monitoring_trace(cfg, tmp_path / str(window))
        events = csv_rows(tmp_path / str(window) / "pump_events.csv")
        assert [row["sample_index"] for row in events] == ["9"]
        assert sorted(renders) == [(scenarios._MONITOR_STREAM, 720 + 30 * 1440 + k, 0)
                                   for k in range(40)]
        trees[window] = tree(tmp_path / str(window))
    assert len(trees[1]) == 40 + 3
    assert trees[scenarios._WINDOW] == trees[1]


def rendered_frames(monkeypatch, run, cfg, out):
    """Every frame a scenario run renders, in order, with its noise key's (minute, plant)."""
    frames, render = [], scenarios.render

    def recorded(runs, cam, key):
        frame, extents = render(runs, cam, key)
        frames.append((key[-2:], frame))
        return frame, extents

    monkeypatch.setattr(scenarios, "render", recorded)
    run(cfg, out)
    return frames


def background(*frames):
    """Each frame's pixels outside every one of their silhouettes."""
    outside = ~np.logical_or.reduce([paint(frame.runs) for frame in frames])
    return [frame.pixels[outside] for frame in frames]


def test_growth_bands_draw_independent_camera_noise(tmp_path, monkeypatch):
    # One capture day of three 2-plant bands, rendered band by band in EcBand order.
    cfg = parse_config("camera.noise_amplitude = 100\ngrowth_exp.group_size = 2\n"
                       "growth_exp.days = 1\n")
    frames = rendered_frames(monkeypatch, run_growth_experiment, cfg, tmp_path)
    assert len(frames) == 6
    for i in range(2):
        (under_key, under), (normal_key, normal) = frames[i], frames[2 + i]
        assert under_key == normal_key  # plant i at one capture minute
        under_bg, normal_bg = background(under, normal)
        assert (under_bg != normal_bg).any(), i


def test_compare_main_and_control_share_camera_noise(tmp_path, monkeypatch):
    # Plant i's main and control frames at one capture minute, shared days and own days alike.
    cfg = parse_config("camera.noise_amplitude = 100\ncompare.plants = 2\n"
                       "compare.total_days = 6\ncompare.auto_start_day = 3\n"
                       "compare.auto_end_day = 4\n")
    by_key = {}
    for key, frame in rendered_frames(monkeypatch, run_fertigation_comparison, cfg, tmp_path):
        by_key.setdefault(key, []).append(frame)
    pairs = [frames for key, frames in by_key.items() if key[0] % MINUTES_PER_DAY == 0]
    assert len(pairs) == 3 * 2 and all(len(frames) == 2 for frames in pairs)  # days 0, 2, 4
    for main, control in pairs:
        main_bg, control_bg = background(main, control)
        assert (main_bg == control_bg).all()


def test_a_failure_on_the_control_loop_writes_every_earlier_frame(tmp_path, monkeypatch):
    # The third projection, and every one after it, fails: the first failing
    # sample is the third window's first, sample 32. Frames 30 and 31 are
    # still with the writer threads when the error is raised.
    cfg = parse_config("monitor.sample_interval_min = 1\nmonitor.sample_count = 48\n"
                       "camera.noise_amplitude = 20\noutput.dump_frames = true\n")
    calls, project = [], scenarios.project

    def failing(*args):
        calls.append(len(args[0]))
        if len(calls) >= 3:
            raise FrameFitError("the third window does not fit")
        return project(*args)

    monkeypatch.setattr(scenarios, "project", failing)
    with pytest.raises(FrameFitError, match="the third window does not fit"):
        run_monitoring_trace(cfg, tmp_path)
    assert calls == [16, 16, 16, 1]  # the failing window, then its first sample alone
    frames = sorted((tmp_path / "frames").iterdir())
    assert [p.name for p in frames] == [f"sample_{k:03d}.ppm" for k in range(32)]
    assert all(p.stat().st_size == 921615 for p in frames)
    assert not (tmp_path / "trace.csv").exists()
    assert not [t for t in threading.enumerate() if t.name.startswith("fertisim-dump")]


def test_every_traced_name_is_bound_in_scenarios():
    # perfbench wraps these names as bound in fertisim.scenarios; a renamed or
    # dropped import would silently remove a layer from the traced pass.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SCENARIO_FUNCTIONS
    for name in spans.SCENARIO_FUNCTIONS:
        assert callable(getattr(scenarios, name, None)), name


@pytest.mark.parametrize("scenario, key", [
    (run_growth_experiment, "growth_exp.peak_loss_rate"),
    (run_monitoring_trace, "monitor.peak_loss_rate"),
    (run_fertigation_comparison, "demand.peak_loss_rate")])
def test_an_infinite_peak_runs_as_a_finite_huge_one(tmp_path, scenario, key):
    # Any daytime loss at either peak drains turgor to 0; a span with none loses nothing.
    for peak in ("inf", "1e300"):
        scenario(parse_config(f"{key} = {peak}\n"), tmp_path / peak)
    assert tree(tmp_path / "inf") == tree(tmp_path / "1e300")


def test_every_turgor_step_is_inside_advance(tmp_path, monkeypatch):
    # perfbench times the growth layer as the calls to ``advance`` bound in scenarios;
    # a turgor step taken outside one would be growth time that no traced pass shows.
    depth, steps, outside = [0], [], []
    integrate, advance = growth._integrate_turgor, scenarios.advance

    def counted(*args):
        (steps if depth[0] else outside).append(args)
        return integrate(*args)

    def traced(*args, **kwargs):
        depth[0] += 1
        try:
            return advance(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(growth, "_integrate_turgor", counted)
    monkeypatch.setattr(scenarios, "advance", traced)
    run_fertigation_comparison(parse_config("compare.plants = 2\ncompare.total_days = 8\n"
                                            "compare.auto_start_day = 3\n"
                                            "compare.auto_end_day = 6\n"), tmp_path / "compare")
    run_monitoring_trace(default_config(), tmp_path / "monitor")
    assert steps and not outside
