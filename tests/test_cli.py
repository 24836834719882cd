"""Command-line interface: subcommands, exit codes, file outputs."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from fertisim.cli import main
from fertisim.config import _KEYS, _in_range, default_config, parse_config
from fertisim.render import BACKGROUND
from oracle import rasterize
from outputs import tree

SRC = Path(__file__).resolve().parents[1] / "src"


def test_dump_defaults_round_trips(capsys):
    assert main(["--dump-defaults"]) == 0
    printed = capsys.readouterr().out
    assert parse_config(printed) == default_config()


def test_help_lists_dump_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "--dump-defaults" in capsys.readouterr().out


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


def test_undecodable_config_file_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"sim.seed = 4\xff2\n")  # not UTF-8
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("fertisim: config error: ")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("distance", ["0", "-5", "nan", "inf", "abc"])
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


def test_render_frame_rejects_invalid_plant_states(tmp_path, capsys):
    # A plant's size and turgor are checked where they enter, as arguments.
    frame = tmp_path / "frame.ppm"
    for flag, value, why in (("--height-cm", "0", "a finite size > 0 cm"),
                             ("--width-cm", "-1", "a finite size > 0 cm"),
                             ("--turgor", "1.2", "a turgor fraction in [0, 1]")):
        assert main(["render-frame", "--file", str(frame), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("fertisim:")]
        assert errors == [f"fertisim: error: argument {flag}: must be {why}, got '{value}'"]
    assert not frame.exists()


def test_measure_image_rejects_bad_ppm(tmp_path, capsys):
    bad = tmp_path / "bad.ppm"
    for header, why in ((b"P3\n640 480\n255\n", "expected P6 magic, got b'P3'"),
                        (b"P6\n640 x\n255\n", "bad header token b'x'"),
                        (b"P6\n640 480\n", "truncated header")):
        bad.write_bytes(header)
        assert main(["measure-image", str(bad), "--distance", "100"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"fertisim: error: {why}\n"), header


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


def test_frame_write_error_is_one_line_and_stops_the_session(tmp_path, capsys):
    # Frames are drawn and written on worker threads; a failed write must
    # still end the run as a serial one would: no trace, no later frame.
    cfg = tmp_path / "dump.cfg"
    cfg.write_text("camera.noise_amplitude = 20\noutput.dump_frames = true\n")
    blocked = tmp_path / "run" / "frames" / "sample_005.ppm"
    blocked.mkdir(parents=True)
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fertisim: error: [Errno 21] Is a directory: '{blocked}'"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["frames"]
    frames = sorted((tmp_path / "run" / "frames").iterdir())
    assert [p.name for p in frames] == [f"sample_{k:03d}.ppm" for k in range(6)]
    assert all(p.stat().st_size == 921615 for p in frames[:5])


def test_a_reused_out_holds_only_the_last_runs_frames(tmp_path):
    run = tmp_path / "run"
    for count, dump, frames in ((30, "true", 30), (5, "true", 5), (4, "false", 0)):
        cfg = tmp_path / f"dump_{count}.cfg"
        cfg.write_text(f"monitor.sample_count = {count}\noutput.dump_frames = {dump}\n")
        assert main(["monitor", "--config", str(cfg), "--out", str(run)]) == 0
        assert f"samples = {count}\n" in (run / "summary.txt").read_text()
        names = sorted(p.name for p in (run / "frames").iterdir())
        assert names == [f"sample_{k:03d}.ppm" for k in range(frames)]


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


SCENARIOS = ["growth", "monitor", "compare"]
SHORT_COMPARE = "compare.total_days = 8\ncompare.auto_start_day = 3\ncompare.auto_end_day = 6\n"


@pytest.mark.parametrize("command", SCENARIOS)
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fertisim: config error: key 'sim.seed': value -1 out of range (must be in [0, 2**64))"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["sim.seed", "camera.noise_seed"])
def test_seeds_stop_below_two_to_the_64(tmp_path, capsys, key):
    # Seeds are hash keys taken modulo 2**64, so 2**64 + 42 would run as 42.
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(f"camera.noise_amplitude = 20\n{key} = {2**64}\n")
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"fertisim: config error: key {key!r}: value {2**64} out of range "
        "(must be in [0, 2**64))"]
    assert not (tmp_path / "out").exists()
    cfg.write_text(f"camera.noise_amplitude = 20\n{key} = {2**64 - 1}\n")
    assert main(["monitor", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", SCENARIOS)
def test_seed_flag_is_the_config_key(tmp_path, command):
    body = SHORT_COMPARE if command == "compare" else ""
    plain, keyed = tmp_path / "plain.cfg", tmp_path / "keyed.cfg"
    plain.write_text(body)
    keyed.write_text(body + "sim.seed = 7\n")
    flag, key, default = tmp_path / "flag", tmp_path / "key", tmp_path / "default"
    assert main([command, "--config", str(plain), "--seed", "7", "--out", str(flag)]) == 0
    assert main([command, "--config", str(keyed), "--out", str(key)]) == 0
    assert main([command, "--config", str(plain), "--out", str(default)]) == 0
    assert tree(flag) == tree(key)
    assert tree(flag) != tree(default)  # seed 7 is not the default 42


# Against a lean 2-hour timer baseline the wilt regime cannot save 80%.
LEAN_TIMER = ("control.timer_period_min = 120\n"
              "compare.total_days = 12\ncompare.auto_start_day = 3\ncompare.auto_end_day = 10\n")
# Inverting the band multipliers breaks the ordering check.
INVERTED_BANDS = "growth.under_multiplier = 1.3\ngrowth.over_multiplier = 0.7\n"
# A window opening at midnight puts the first sample, or timer instant, on the plants' own age.
MIDNIGHT = "control.window_start_min = 0\n"
SHORT_COMPARE = ("compare.plants = 2\ncompare.total_days = 8\n"
                 "compare.auto_start_day = 3\ncompare.auto_end_day = 6\n")


@pytest.mark.parametrize("command, config, out_line, err_lines, code", [
    ("growth", "", "growth experiment: 15 capture days, outputs in {out}", [], 0),
    ("monitor", "", "monitoring session: 26 samples, 1 pump event(s) at minute(s): 255", [], 0),
    ("compare", "", "comparison: timer 101.6 L/day, auto 17.3 L/day, savings 82.9%", [], 0),
    ("growth", INVERTED_BANDS, "growth experiment: 13 capture days, outputs in {out}",
     ["fertisim: group mean heights violate over > normal > under"], 2),
    ("compare", LEAN_TIMER, "comparison: timer 28.2 L/day, auto 16.2 L/day, savings 42.5%",
     ["fertisim: savings did not exceed 80%"], 2),
    ("monitor", MIDNIGHT, "monitoring session: 26 samples, 0 pump event(s) at minute(s): none",
     [], 0),
    ("compare", MIDNIGHT + SHORT_COMPARE,
     "comparison: timer 191.9 L/day, auto 12.7 L/day, savings 93.4%", [], 0),
], ids=["growth", "monitor", "compare", "growth-inverted-bands", "compare-lean-timer",
        "monitor-midnight-window", "compare-midnight-window"])
def test_scenario_report(tmp_path, capsys, command, config, out_line, err_lines, code):
    # The whole report: one stdout line, then each failed check on stderr and exit 2.
    # The growth line repeats --out as given, so its trailing slash must stay.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = f"{tmp_path / 'run'}/"
    assert main([command, "--config", str(cfg), "--out", out]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [out_line.format(out=out)]
    assert captured.err.splitlines() == err_lines


NO_PLANT_COMPARE = (
    "vision.min_plant_pixels = 1000000000\ncompare.plants = 2\ncompare.total_days = 4\n"
    "compare.auto_start_day = 2\ncompare.auto_end_day = 3\n")


def test_compare_with_every_capture_skipped_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "no_plant.cfg"
    cfg.write_text(NO_PLANT_COMPARE)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("fertisim: error: ") and "vision.min_plant_pixels" in last


NO_PLANT = "vision.min_plant_pixels = 1000000000\n"


@pytest.mark.parametrize("command, config, code, first_words", [
    ("compare", NO_PLANT_COMPARE, 1, "fertisim: error: capture day 0 measured no plant"),
    # Growth used to write nan means and exit 2 blaming the band ordering.
    ("growth", NO_PLANT, 1, "fertisim: error: capture day 0 measured no plant"),
    ("monitor", NO_PLANT, 0, "fertisim: warning: 26 sample(s) skipped"),
], ids=["compare", "growth", "monitor"])
def test_skipped_samples_give_one_stderr_line_in_a_real_process(tmp_path, command, config,
                                                               code, first_words):
    # In a fresh interpreter nothing captures the log, so every line it prints shows here.
    cfg = tmp_path / "no_plant.cfg"
    cfg.write_text(config)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "fertisim.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "run")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_words), lines
    assert "vision.min_plant_pixels = 1000000000" in lines[0]


@pytest.mark.parametrize("command, age_min, rate", [
    ("compare", 1440, "1000000"), ("growth", 1440, "1000000"), ("monitor", 43680, "1000000"),
    # The rate itself overflows when make_seedling multiplies in a plant's jitter.
    ("compare", 1440, "1.75e308"), ("growth", 1440, "1.75e308"),
], ids=["compare-1440", "growth-1440", "monitor-43680", "compare-rate-overflow",
        "growth-rate-overflow"])
def test_size_overflow_is_one_error_line_in_a_real_process(tmp_path, command, age_min, rate):
    # Sizes are read in closed form where the camera looks; the first read names its age.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(f"growth.normal_rate_per_day = {rate}\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "fertisim.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "run")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"fertisim: error: plant size overflows at age {age_min} min"]
    assert "Traceback" not in done.stderr + done.stdout


@pytest.mark.parametrize("focal_px, line", [
    (1000, "fertisim: error: plant projects to 480.3x165.9 px at 160 cm; frame is 480x640"),
    (1500, "fertisim: error: plant projects to 480.3x215.1 px at 130 cm; frame is 480x640"),
], ids=["focal-1000", "focal-1500"])
def test_frame_fit_error_names_the_first_failing_sample_in_a_real_process(tmp_path, focal_px,
                                                                          line):
    # The wilt rule projects samples ahead as if the pump stays off; the error
    # must still be the one the first failing sample raises, in its real state.
    cfg = tmp_path / "focal.cfg"
    cfg.write_text(f"camera.focal_px = {focal_px}\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "fertisim.cli", "compare", "--config", str(cfg),
         "--out", str(tmp_path / "run")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [line]


# The keys that set how much a run simulates, and their caps: a config that
# does not draw one of them sets it to its cap, so every example stays small.
# Every other key keeps its default or ranges over all its range admits.
SIZE_CAPS = {"compare.plants": 2, "compare.total_days": 49, "growth_exp.group_size": 2,
             "growth_exp.days": 43, "monitor.sample_count": 26}


def _key_values(key):
    default, rng = _KEYS[key]
    if isinstance(default, bool):
        values = st.booleans()
    elif isinstance(default, int):
        values = st.integers(max_value=SIZE_CAPS.get(key))
    else:
        values = st.floats()
    return values.filter(lambda value: _in_range(value, rng))


def _render(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


CONFIGS = st.sets(st.sampled_from(list(_KEYS))).flatmap(
    lambda keys: st.fixed_dictionaries({key: _key_values(key) for key in keys})
).map(lambda drawn: {**SIZE_CAPS, **drawn})


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(values=CONFIGS)
@example(values=dict(parse_config(NO_PLANT_COMPARE).values))
@example(values={**SIZE_CAPS, "vision.min_plant_pixels": 10**9})  # NO_PLANT: growth exits 1
@example(values={**SIZE_CAPS, "monitor.start_day": 10**8})  # a plant built 10**8 days old
@example(values={**SIZE_CAPS, "growth.normal_rate_per_day": 1.75e308})  # a rate overflows
# A pump volume that overflows to inf liters.
@example(values={**SIZE_CAPS, "pump.flow_l_per_min": 1e308})
@example(values={**SIZE_CAPS, "control.pump_on_min": 1e308})
@example(values={**SIZE_CAPS, "pump.flow_l_per_min": math.inf})
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
                # A run writes its CSVs and summary.txt in one step after it succeeds; frames a
                # monitor dumped before its error may remain.
                written = sorted(p.name for p in (Path(tmp) / command).glob("*")
                                 if p.suffix == ".csv" or p.name == "summary.txt")
                assert written == [], (command, written)
            assert _non_finite_fields(Path(tmp) / command) == [], command


def _non_finite_fields(out):
    """(file, field) of each inf or nan field of a run's .csv and .txt outputs."""
    return [(path.name, cell) for pattern in ("*.csv", "*.txt") for path in out.glob(pattern)
            for cell in re.split(r"[\s,;=]+", path.read_text())
            if re.fullmatch(r"[+-]?(inf|infinity|nan)", cell, re.IGNORECASE)]


@pytest.mark.parametrize("command", ["monitor", "compare"])
@pytest.mark.parametrize("setting", ["pump.flow_l_per_min = 1e308", "control.pump_on_min = 1e308",
                                     "pump.flow_l_per_min = inf"])
def test_pumped_volume_overflow_is_one_error_line(tmp_path, capsys, command, setting):
    # Every accrual is >= 0, so the run checks its total once, before writing its outputs.
    cfg = tmp_path / "pump.cfg"
    cfg.write_text(setting + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "fertisim: error: pumped volume overflows to inf liters: lower pump.flow_l_per_min "
        "or control.pump_on_min"]
    assert list((tmp_path / "run").iterdir()) == []
