"""Config parsing, validation, and the defaults document."""

import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fertisim.config import Config, ConfigError, default_config, dump_defaults, parse_config
from fertisim.control import Schedule
from fertisim.growth import DemandProfile, GrowthParams
from fertisim.render import CameraConfig
from fertisim.scenarios import run_fertigation_comparison
from outputs import csv_rows


def test_empty_document_gives_defaults():
    assert parse_config("") == default_config()


def test_defaults_match_design_values(cfg):
    v = cfg.values
    assert v["control.wilt_threshold"] == 0.02
    assert v["growth.s_max"] == 0.10
    assert v["camera.focal_px"] == 480.0
    assert v["pump.flow_l_per_min"] == pytest.approx(101.6 / 54.0)
    assert v["control.timer_period_min"] == 30
    assert v["control.pump_on_min"] == 3.0
    assert v["growth_exp.group_size"] == 20
    assert v["compare.plants"] == 60
    assert (v["compare.auto_start_day"], v["compare.auto_end_day"]) == (31, 44)
    assert v["monitor.sample_count"] == 26
    assert v["monitor.sample_interval_min"] == 15


def test_parameter_objects_have_no_defaults():
    # the config table is the one home of every default
    for cls in (GrowthParams, CameraConfig, Schedule, DemandProfile):
        with pytest.raises(TypeError):
            cls()
    assert [f.name for f in fields(CameraConfig)] == [
        "focal_px", "canopy_fraction", "stem_fraction", "noise_amplitude", "noise_seed"]


# Each range rule the parameter objects once repeated, with a value that only
# its _KEYS or _cross_check rule rejects.
PARAMETER_RANGES = [
    # CameraConfig
    ("camera.focal_px = 0", "camera.focal_px"),
    ("camera.noise_amplitude = 300", "camera.noise_amplitude"),
    ("camera.noise_amplitude = -1", "camera.noise_amplitude"),
    ("camera.canopy_fraction = 0", "camera.canopy_fraction"),
    ("camera.canopy_fraction = 1", "camera.canopy_fraction"),
    ("camera.stem_fraction = 0", "camera.stem_fraction"),
    ("camera.stem_fraction = 1.5", "camera.stem_fraction"),
    # Schedule
    ("monitor.sample_interval_min = 0", "monitor.sample_interval_min"),
    ("compare.sample_interval_min = 0", "compare.sample_interval_min"),
    ("control.timer_period_min = 0", "control.timer_period_min"),
    ("control.window_start_min = -1", "control.window_start_min"),
    ("control.window_end_min = 1441", "control.window_end_min"),
    ("control.window_start_min = 900\ncontrol.window_end_min = 600", "control.window_end_min"),
    # DemandProfile
    ("demand.window_start_min = -1", "demand.window_start_min"),
    ("demand.window_end_min = 1441", "demand.window_end_min"),
    ("demand.window_start_min = 900\ndemand.window_end_min = 600", "demand.window_end_min"),
    ("demand.peak_loss_rate = -0.001", "demand.peak_loss_rate"),
    ("monitor.peak_loss_rate = -0.001", "monitor.peak_loss_rate"),
    ("growth_exp.peak_loss_rate = -0.001", "growth_exp.peak_loss_rate"),
    # the growth experiment's row spacing, which its overlap rule compares widths with
    ("growth_exp.spacing_cm = 0", "growth_exp.spacing_cm"),
    # the pump's flow rate
    ("pump.flow_l_per_min = 0", "pump.flow_l_per_min"),
]


@pytest.mark.parametrize("document, key", PARAMETER_RANGES,
                         ids=[doc.replace("\n", "; ") for doc, _ in PARAMETER_RANGES])
def test_parameter_ranges_are_config_rules(document, key):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        parse_config(document + "\n")


def test_threshold_override():
    cfg = parse_config("control.wilt_threshold = 0.02\n")
    assert cfg["control.wilt_threshold"] == 0.02
    cfg = parse_config("control.wilt_threshold = 0.05\n")
    assert cfg["control.wilt_threshold"] == 0.05


def test_range_error_names_the_key():
    with pytest.raises(ConfigError, match="pump.flow_l_per_min"):
        parse_config("pump.flow_l_per_min = -1\n")


def test_hand_built_config_is_validated_and_read_only():
    with pytest.raises(ConfigError, match=r"compare\.plants.*out of range"):
        Config(values={**default_config().values, "compare.plants": 0})
    with pytest.raises(ConfigError, match="no.such_key"):
        Config(values={**default_config().values, "no.such_key": 1})
    # A key the caller does not give takes its default.
    assert Config(values={}) == default_config()
    assert Config(values={"sim.seed": 7}) == parse_config("sim.seed = 7\n")

    source = {**default_config().values, "compare.plants": 7}
    cfg = Config(values=source)
    source["compare.plants"] = 0  # the caller's dict is not the config's
    assert cfg["compare.plants"] == 7
    with pytest.raises(TypeError):
        cfg.values["compare.plants"] = 0
    assert Config(values={**cfg.values, "compare.plants": 8})["compare.plants"] == 8


DEFAULTS = default_config().values


# Strings come from a small alphabet: a first draw from all of unicode builds a cache slowly
# enough to fail hypothesis's health check on a fresh checkout.
@given(values=st.dictionaries(
    st.sampled_from(sorted(DEFAULTS)),
    st.one_of(st.integers(), st.floats(), st.booleans(), st.text("0123456789.e-+aflnrstu"),
              st.none())))
@example(values={"output.dump_frames": "false"})  # a truthy string would dump every frame
@example(values={"compare.plants": 7.5})
@example(values={"compare.plants": True})
@example(values={"sim.seed": 4.2})
@example(values={"camera.focal_px": "x"})
@example(values={"camera.focal_px": None})
@example(values={"camera.focal_px": 480})  # an int for a float key is that float
@example(values={"camera.focal_px": 10**400})  # an int too large for a float
# A cross-field error names each key it reads.
@example(values={"compare.total_days": 5})
@example(values={"monitor.sample_interval_min": 100})
def test_hand_built_config_checks_each_value_type(values):
    # A Config built in Python either holds a value of its default's type for every key, or
    # is one ConfigError that names a key it was given.
    try:
        cfg = Config(values=values)
    except ConfigError as exc:
        assert any(key in str(exc) for key in values), (str(exc), values)
        return
    for key, default in DEFAULTS.items():
        assert type(cfg[key]) is type(default), (key, cfg[key])
        assert cfg[key] == values.get(key, default), key


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="no.such_key"):
        parse_config("no.such_key = 1\n")


def test_syntax_error_names_the_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("# fine\ncontrol.wilt_threshold = 0.02\nbogus line without equals\n")


def test_unparseable_value_names_key_and_line():
    with pytest.raises(ConfigError, match="line 1.*sim.seed"):
        parse_config("sim.seed = pony\n")
    with pytest.raises(ConfigError, match="line 1: key 'output.dump_frames': cannot parse 'maybe'"):
        parse_config("output.dump_frames = maybe\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("sim.seed = 1\nsim.seed = 2\n")


def test_order_independent():
    a = parse_config("sim.seed = 9\ncamera.focal_px = 500\n")
    b = parse_config("camera.focal_px = 500\nsim.seed = 9\n")
    assert a == b


def test_comments_and_blanks_ignored():
    cfg = parse_config("\n# a comment\n  sim.seed = 5  # trailing comment\n\n")
    assert cfg["sim.seed"] == 5


def test_cross_field_window_check():
    with pytest.raises(ConfigError, match="demand.window_end_min"):
        parse_config("demand.window_start_min = 900\ndemand.window_end_min = 600\n")
    with pytest.raises(ConfigError, match="'growth.lag_high_min': must be >= growth.lag_low_min"):
        parse_config("growth.lag_low_min = 20\ngrowth.lag_high_min = 15\n")


def test_cross_field_timeline_check():
    with pytest.raises(ConfigError, match="auto_start_day"):
        parse_config("compare.auto_start_day = 40\ncompare.auto_end_day = 20\n")
    with pytest.raises(ConfigError, match="auto_start_day"):
        parse_config("compare.auto_end_day = 60\n")


def test_cross_field_compare_needs_a_timer_day():
    no_timer_day = "compare.auto_start_day = 1\ncompare.auto_end_day = 3\ncompare.total_days = 3\n"
    with pytest.raises(ConfigError, match="compare.auto_start_day"):
        parse_config(no_timer_day)
    assert parse_config(no_timer_day.replace("= 1", "= 2"))["compare.auto_start_day"] == 2
    assert parse_config(no_timer_day.replace("auto_end_day = 3", "auto_end_day = 2"))[
        "compare.auto_end_day"] == 2


_DAYS = st.lists(st.integers(0, 13), min_size=3, max_size=3)


@settings(deadline=None, max_examples=60)
@given(days=st.one_of(_DAYS.map(sorted), _DAYS))
@example(days=[1, 1, 2])  # one wilt-controlled day, then one timer day
@example(days=[2, 2, 2])  # one timer day, then one wilt-controlled day
@example(days=[1, 3, 3])  # no timer day: rejected
def test_every_accepted_compare_timeline_gives_both_regimes_a_day(days):
    # The ledger's regime means divide by each regime's day count; the
    # timeline rules are what keep both counts above zero.
    start, end, total = days
    try:
        cfg = parse_config(f"compare.plants = 1\ncompare.total_days = {total}\n"
                           f"compare.auto_start_day = {start}\ncompare.auto_end_day = {end}\n")
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        run_fertigation_comparison(cfg, tmp)
        regimes = [row["regime"] for row in csv_rows(Path(tmp) / "daily_usage.csv")]
    assert sorted(set(regimes)) == ["auto", "timer"]
    assert len(regimes) == total


def test_cross_field_monitor_session_check():
    with pytest.raises(ConfigError, match="monitor.sample_count"):
        parse_config("monitor.sample_count = 40\n")  # 480 + 39 * 15 = 1065 >= 1020
    with pytest.raises(ConfigError, match="monitor.sample_count"):
        parse_config("monitor.sample_interval_min = 1\nmonitor.sample_count = 541\n")
    last_in_window = parse_config("monitor.sample_interval_min = 1\nmonitor.sample_count = 540\n")
    assert last_in_window["monitor.sample_count"] == 540


def test_dump_defaults_round_trips():
    assert parse_config(dump_defaults()) == default_config()


def test_builders_reflect_overrides():
    cfg = parse_config(
        "growth.s_max = 0.2\ncamera.focal_px = 600\n"
        "demand.peak_loss_rate = 0.001\ncontrol.timer_period_min = 60\n"
    )
    assert cfg.growth_params().s_max == 0.2
    assert cfg.camera().focal_px == 600.0
    assert cfg.demand().peak_loss_rate == 0.001
    assert cfg.schedule().timer_period_min == 60
