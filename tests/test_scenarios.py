"""End-to-end behavior of the three bundled experiments."""

import importlib.util
from pathlib import Path

import pytest

from fertisim import scenarios
from fertisim.config import Config, ConfigError, default_config, parse_config
from fertisim.scenarios import (
    run_fertigation_comparison,
    run_growth_experiment,
    run_monitoring_trace,
)


@pytest.fixture(scope="module")
def growth_default(tmp_path_factory):
    out = tmp_path_factory.mktemp("growth")
    return run_growth_experiment(default_config(), out, seed=42), out


@pytest.fixture(scope="module")
def compare_default(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    return run_fertigation_comparison(default_config(), out, seed=42), out


class TestGrowthExperiment:
    def test_fifteen_capture_days(self, growth_default):
        result, _ = growth_default
        assert result.capture_days == list(range(0, 43, 3))
        assert result.ordering_ok
        assert result.skipped_samples == 0

    def test_csv_written(self, growth_default):
        _, out = growth_default
        lines = (out / "growth_means.csv").read_text().splitlines()
        assert lines[0] == "capture_day,distance_cm,under_mean_cm,normal_mean_cm,over_mean_cm"
        assert len(lines) == 16

    def test_identical_bands_are_statistically_indistinguishable(self, tmp_path):
        # band multipliers of 1 grow all three groups at the normal rate
        same = parse_config("growth.under_multiplier = 1.0\ngrowth.over_multiplier = 1.0\n")
        result = run_growth_experiment(same, tmp_path, seed=5)
        assert result.capture_days == list(range(0, 43, 3))
        for i in range(len(result.capture_days)):
            values = [result.means[g][i] for g in result.group_labels]
            spread = (max(values) - min(values)) / min(values)
            assert spread < 0.08, f"groups diverged {spread:.2%} on day {result.capture_days[i]}"

    def test_seed_changes_curves_but_not_ordering(self, growth_default, tmp_path):
        base, _ = growth_default
        other = run_growth_experiment(default_config(), tmp_path, seed=43)
        assert other.ordering_ok
        assert other.means != base.means


class TestMonitoringTrace:
    def test_single_event_at_minute_255(self, cfg, tmp_path):
        result = run_monitoring_trace(cfg, tmp_path, seed=42)
        assert len(result.rows) == 26
        assert [e.offset_min for e in result.events] == [255.0]
        assert [e.sample_index for e in result.events] == [17]
        events_csv = (tmp_path / "pump_events.csv").read_text().splitlines()
        assert events_csv[1].split(",")[2] == "255"

    def test_zero_demand_stays_quiet(self, tmp_path):
        quiet = parse_config("monitor.peak_loss_rate = 0\n")
        result = run_monitoring_trace(quiet, tmp_path, seed=42)
        assert result.events == []
        assert all(row.wilt_degree <= 0.0 for row in result.rows)

    def test_doubled_demand_fires_earlier(self, cfg, tmp_path):
        doubled = parse_config(f"monitor.peak_loss_rate = {cfg['monitor.peak_loss_rate'] * 2}\n")
        result = run_monitoring_trace(doubled, tmp_path, seed=42)
        assert result.events and result.events[0].offset_min < 255.0

    def test_trace_wilt_column_tracks_reference(self, cfg, tmp_path):
        result = run_monitoring_trace(cfg, tmp_path, seed=42)
        reference = result.rows[0].width_cm
        for row in result.rows:
            assert row.wilt_degree == pytest.approx(
                (reference - row.width_cm) / reference)

    def test_byte_identical_outputs(self, cfg, tmp_path):
        dump = parse_config("output.dump_frames = true\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_monitoring_trace(dump, a, seed=42)
        run_monitoring_trace(dump, b, seed=42)
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestComparison:
    def test_savings_and_usage_bands(self, compare_default):
        result, _ = compare_default
        assert result.timer_mean_l_per_day == pytest.approx(101.6, abs=0.1)
        assert 0.80 < result.savings_fraction < 0.90
        assert abs(result.auto_mean_l_per_day - 17.3) <= 4.0
        assert result.savings_ok and result.growth_ok

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
        result, _ = compare_default
        # exactly one trace row per in-window auto sample: 14 days x 18 samples
        assert len(result.rows) == 14 * 18
        assert {row.plant_id for row in result.rows} == {0}

    def test_growth_maintained_vs_control(self, compare_default):
        result, _ = compare_default
        assert result.control_increment_cm > 0
        assert abs(result.auto_increment_cm - result.control_increment_cm) \
            <= 0.10 * result.control_increment_cm

    def test_height_series_covers_49_days(self, compare_default):
        result, _ = compare_default
        days = [d for d, _, _ in result.heights]
        assert days == list(range(0, 49, 2))
        heights = [h for _, h, _ in result.heights]
        assert all(b > a for a, b in zip(heights, heights[1:]))

    def test_zero_demand_auto_period_saves_everything(self, tmp_path):
        cfg = parse_config(
            "demand.peak_loss_rate = 0\n"
            "compare.total_days = 8\n"
            "compare.auto_start_day = 3\n"
            "compare.auto_end_day = 6\n"
        )
        result = run_fertigation_comparison(cfg, tmp_path, seed=42)
        assert result.auto_activations == 0
        assert result.auto_mean_l_per_day == 0.0
        assert result.savings_fraction == 1.0

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
        result = run_fertigation_comparison(cfg, tmp_path, seed=42)
        default, _ = compare_default
        assert default.timer_mean_l_per_day == pytest.approx(101.6, abs=1e-9)
        assert result.timer_mean_l_per_day == pytest.approx(default.timer_mean_l_per_day,
                                                            abs=1e-9)


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
