"""Pinned output bytes: the default seed-42 runs of every scenario, one noiseless and one
noisy monitor that dump their frames, one noisy comparison, a 300-plant comparison at
seed 7, a comparison whose control window opens at 09:00, the default ``render-frame``
PPM and the ``--dump-defaults`` document.

Each run goes through the CLI into a fresh directory, and the whole
output tree is hashed: SHA-256 over each file's relative path and bytes, in
sorted path order. A change that moves any default output byte on purpose
updates the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from fertisim import scenarios
from fertisim.cli import main
from fertisim.growth import sizes

PINNED = {
    "growth": "1ae1b5486789ce03b7a0dc501ff805cb92506536e21bbd79c84d234bfe8fff26",
    "monitor": "8fb9969ad78178ee6d1f958e6e46472e19bb64055b528a8d85a3cce1682c4224",
    "compare": "44426c20395274beedd1cb26b7522c39299e1d9ae58385f0b1eff6631caa95ff",
}


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_default_outputs_match_pinned_digest(scenario, tmp_path, capsys):
    out = tmp_path / scenario
    assert main([scenario, "--seed", "42", "--out", str(out)]) == 0
    assert tree_digest(out) == PINNED[scenario]


# The default monitor dumping every frame: its 26 PPMs pin the noiseless frame build.
FRAMES_MONITOR_DIGEST = "1792c2b72823c1c921e9ec3bd23ff7c49ffd4218e9d001ffebfc538d2e1a01cb"


def test_noiseless_monitor_frames_match_pinned_digest(tmp_path, capsys):
    cfg = tmp_path / "frames.cfg"
    cfg.write_text("output.dump_frames = true\n")
    out = tmp_path / "monitor"
    assert main(["monitor", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
    assert len(list((out / "frames").iterdir())) == 26
    assert tree_digest(out) == FRAMES_MONITOR_DIGEST


# ``render-frame`` with its default arguments: one noiseless PPM.
RENDER_FRAME_DIGEST = "6ba68508ea641ab7b11fd317cef7b46d748c9303113b434df1d15f45b035fd44"


def test_default_render_frame_matches_pinned_digest(tmp_path, capsys):
    path = tmp_path / "frame.ppm"
    assert main(["render-frame", "--file", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RENDER_FRAME_DIGEST


# The default monitor with camera noise, dumping every frame: its PPMs pin
# the per-frame noise keying and the noisy frame build.
NOISY_MONITOR = "camera.noise_amplitude = 20\noutput.dump_frames = true\n"
NOISY_MONITOR_DIGEST = "a91388a112fedd97820b1ba7b2c77ef95a159e7402f56c3574846d4a89bd29a6"


def test_noisy_monitor_outputs_match_pinned_digest(tmp_path, capsys):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(NOISY_MONITOR)
    out = tmp_path / "monitor"
    assert main(["monitor", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
    assert tree_digest(out) == NOISY_MONITOR_DIGEST


# The default comparison with camera noise: every one of its 3,252 frames is
# majority-filtered on its runs.
NOISY_COMPARE = "camera.noise_amplitude = 20\n"
NOISY_COMPARE_DIGEST = "3b23a1ad167223064e4f64b30ebd8cb48c57749a290ce2e2418d3a5a6a917633"


def test_noisy_compare_outputs_match_pinned_digest(tmp_path, capsys):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(NOISY_COMPARE)
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
    assert tree_digest(out) == NOISY_COMPARE_DIGEST


# The benchmark's population_stepping config at a seed no other pin covers: one
# capture of 300 plants projects in 19 passes of 16.
POPULATION = "compare.plants = 300\ncompare.capture_every_days = 49\n"
POPULATION_DIGEST = "3ca35721becb6dba2675dfa16cea04b43a74ca0043f85f75e3bedca329d89c2f"


def test_population_compare_outputs_match_pinned_digest(tmp_path, capsys):
    cfg = tmp_path / "population.cfg"
    cfg.write_text(POPULATION)
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert tree_digest(out) == POPULATION_DIGEST


# A control window opening at 09:00, an hour after the demand window: the overnight
# steps to the 09:00 samples cross the 17:00 end of one demand window and the 08:00
# start of the next, integrated without a cut at either.
WINDOW_540 = "control.window_start_min = 540\n"
WINDOW_540_DIGEST = "faf5edae9dfb838d2438a563e5fe4dfd8d25e43a7be445a99b4bcee177431e44"


def test_late_window_compare_outputs_match_pinned_digest(tmp_path, capsys):
    cfg = tmp_path / "window.cfg"
    cfg.write_text(WINDOW_540)
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--seed", "42", "--out", str(out)]) == 0
    assert "savings 86.2%" in capsys.readouterr().out
    assert tree_digest(out) == WINDOW_540_DIGEST


# Every plant size off by a relative 1e-9, millions of times a last-bit
# difference in ``exp``, moves no default output byte, so a libm that rounds
# differently reproduces the pins. (At 1e-5 the compare bytes move.)
@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_default_outputs_survive_a_relative_size_error(factor, monkeypatch, tmp_path, capsys):
    def scaled(*args, **kwargs):
        height, width = sizes(*args, **kwargs)
        return height * factor, width * factor

    monkeypatch.setattr(scenarios, "sizes", scaled)
    for scenario in sorted(PINNED):
        out = tmp_path / scenario
        assert main([scenario, "--seed", "42", "--out", str(out)]) == 0
        assert tree_digest(out) == PINNED[scenario], scenario


DUMP_DEFAULTS_DIGEST = "da93b70fc0cb1a26e6f41fbb91098867b90133f6edbe58a95c47c11fd4fd4cf2"


def test_dump_defaults_match_pinned_digest(capsys):
    assert main(["--dump-defaults"]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == DUMP_DEFAULTS_DIGEST
