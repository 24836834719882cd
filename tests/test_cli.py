"""Command-line interface: subcommands, exit codes, file outputs."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from fertisim.cli import main
from fertisim.config import _KEYS, default_config, parse_config
from fertisim.render import BACKGROUND
from oracle import rasterize


def test_dump_defaults_round_trips(capsys):
    assert main(["--dump-defaults"]) == 0
    printed = capsys.readouterr().out
    assert parse_config(printed) == default_config()


def test_unknown_subcommand_prints_usage(capsys):
    assert main(["prune"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_no_subcommand_prints_usage(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["monitor", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_config_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pump.flow_l_per_min = -1\n")
    assert main(["monitor", "--config", str(cfg)]) == 1
    assert "pump.flow_l_per_min" in capsys.readouterr().err


def test_monitor_past_control_window_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("monitor.sample_count = 40\n")
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "monitor.sample_count" in err
    assert not (tmp_path / "out").exists()


def test_compare_without_timer_days_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "all_auto.cfg"
    cfg.write_text("compare.auto_start_day = 1\ncompare.auto_end_day = 3\ncompare.total_days = 3\n")
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "compare.auto_start_day" in err
    assert not (tmp_path / "out").exists()


def test_render_then_measure_round_trip(tmp_path, capsys):
    frame = tmp_path / "frame.ppm"
    assert main(["render-frame", "--height-cm", "50", "--width-cm", "25",
                 "--distance", "100", "--file", str(frame)]) == 0
    truth_line = capsys.readouterr().out.strip()
    assert "height_px=240" in truth_line

    assert main(["measure-image", str(frame), "--distance", "100"]) == 0
    out = capsys.readouterr().out
    values = dict(part.split("=") for part in out.split())
    assert float(values["height_cm"]) == pytest.approx(50.0, abs=100.0 / 480.0)
    assert float(values["width_cm"]) == pytest.approx(25.0, abs=100.0 / 480.0)


def test_measure_image_on_plantless_frame(tmp_path, capsys):
    frame = tmp_path / "red.ppm"
    header = b"P6\n640 480\n255\n"
    red = bytes([255, 0, 0]) * (640 * 480)
    frame.write_bytes(header + red)
    assert main(["measure-image", str(frame), "--distance", "100"]) == 1
    assert "error" in capsys.readouterr().err


def test_measure_image_on_a_red_dominant_plant(tmp_path, capsys, camera):
    # A whole frame is tested pixel by pixel: (200, 50, 50) is red-dominant by
    # 150 on both channels, so at margin 60 the plant is background.
    pixels = np.empty((480, 640, 3), np.uint8)
    pixels[:] = BACKGROUND
    pixels[rasterize(camera, 240.0, 120.0)] = (200, 50, 50)
    frame = tmp_path / "reddish.ppm"
    frame.write_bytes(b"P6\n640 480\n255\n" + pixels.tobytes())
    assert main(["measure-image", str(frame), "--distance", "100"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["fertisim: error: 0 plant pixels, need at least 25"]


@pytest.mark.parametrize("distance", ["0", "-5", "nan", "inf"])
@pytest.mark.parametrize("command", ["render-frame", "measure-image"])
def test_bad_distance_rejected(tmp_path, capsys, command, distance):
    frame = tmp_path / "frame.ppm"
    assert main(["render-frame", "--file", str(frame)]) == 0
    capsys.readouterr()
    args = ["render-frame", "--file", str(frame)] if command == "render-frame" \
        else ["measure-image", str(frame)]
    assert main(args + ["--distance", distance]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --distance: must be a finite distance > 0 cm, got '{distance}'" \
        in captured.err


def test_measure_image_rejects_bad_ppm(tmp_path, capsys):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P3\n640 480\n255\n")
    assert main(["measure-image", str(bad), "--distance", "100"]) == 1


def test_monitor_reports_the_pump_event(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["monitor", "--out", str(out_dir)]) == 0
    assert "255" in capsys.readouterr().out
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "pump_events.csv").exists()
    assert (out_dir / "summary.txt").exists()


def test_monitor_runs_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["monitor", "--seed", "7", "--out", str(a)]) == 0
    assert main(["monitor", "--seed", "7", "--out", str(b)]) == 0
    for name in ("trace.csv", "pump_events.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_compare_runs_are_reproducible(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        "compare.total_days = 8\ncompare.auto_start_day = 3\ncompare.auto_end_day = 6\n")
    a, b = tmp_path / "run1", tmp_path / "run2"
    assert main(["compare", "--config", str(cfg), "--seed", "7", "--out", str(a)]) == 0
    assert main(["compare", "--config", str(cfg), "--seed", "7", "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir()) and names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_compare_savings_failure_exits_2(tmp_path, capsys):
    # against a lean 2-hour timer baseline the wilt regime cannot save 80%
    cfg = tmp_path / "lean_timer.cfg"
    cfg.write_text(
        "control.timer_period_min = 120\n"
        "compare.total_days = 12\ncompare.auto_start_day = 3\ncompare.auto_end_day = 10\n")
    code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "savings" in capsys.readouterr().err


def test_growth_assertion_failure_exits_2(tmp_path, capsys):
    # inverting the band multipliers breaks the ordering assertion
    cfg = tmp_path / "inverted.cfg"
    cfg.write_text("growth.under_multiplier = 1.3\ngrowth.over_multiplier = 0.7\n")
    code = main(["growth", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "over > normal > under" in capsys.readouterr().err


NO_PLANT_COMPARE = (
    "vision.min_plant_pixels = 1000000000\ncompare.plants = 2\ncompare.total_days = 4\n"
    "compare.auto_start_day = 2\ncompare.auto_end_day = 3\n")


def test_compare_with_every_capture_skipped_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "no_plant.cfg"
    cfg.write_text(NO_PLANT_COMPARE)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("fertisim: error: ") and "vision.min_plant_pixels" in last


# The keys that set how much a run simulates, and their caps: a config that
# does not draw one of them sets it to its cap, so every example stays small.
# Every other key keeps its default or ranges over all its check accepts.
SIZE_CAPS = {"compare.plants": 2, "compare.total_days": 49, "growth_exp.group_size": 2,
             "growth_exp.days": 43, "monitor.sample_count": 26}


def _key_values(key):
    entry = _KEYS[key]
    if isinstance(entry.default, bool):
        values = st.booleans()
    elif isinstance(entry.default, int):
        values = st.integers(max_value=SIZE_CAPS.get(key))
    elif isinstance(entry.default, float):
        values = st.floats()
    else:  # a string key lists its choices in its range text: "one of a, b"
        values = st.sampled_from(entry.why.removeprefix("one of ").split(", "))
    return values.filter(entry.check)


def _render(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


CONFIGS = st.sets(st.sampled_from(list(_KEYS))).flatmap(
    lambda keys: st.fixed_dictionaries({key: _key_values(key) for key in keys})
).map(lambda drawn: {**SIZE_CAPS, **drawn})


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(values=CONFIGS)
@example(values=dict(parse_config(NO_PLANT_COMPARE).values))
@example(values={**SIZE_CAPS, "monitor.start_day": 10**8})  # a months-long zero-demand step
def test_every_parsed_config_runs_or_exits_with_one_message(values):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(f"{k} = {_render(v)}\n" for k, v in values.items()))
        for command in ("growth", "monitor", "compare"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / command)])
            event(f"{command} exit {code}")  # --hypothesis-show-statistics tallies these
            assert code in (0, 1, 2), (command, code)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("fertisim:"), (command, lines)
