"""Print one ``variant seed digest`` line per output tree of a fixed run matrix.

The matrix: seeds 0-19 and 42 on the default compare, the benchmark's
300-plant ``population_stepping`` compare, a compare whose control window
opens at 09:00, growth with ``growth_exp.peak_loss_rate = 0.004`` and the
default monitor; and the benchmark's noisy 540-frame monitor at seeds 3, 7
and 42. Each run goes through the CLI into a fresh temporary directory
(``TMPDIR``), is hashed with ``tree_digest`` and deleted at once: a noisy
monitor writes about 500 MB of frames.

The ``fertisim`` package is imported from ``PYTHONPATH`` when set, else from
this checkout's ``src``, so one copy of this script hashes any checkout::

    python3 tests/digest_sweep.py > new.txt
    PYTHONPATH=../parent/src python3 tests/digest_sweep.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from test_pinned_outputs import POPULATION, WINDOW_540, tree_digest  # noqa: E402

from fertisim.cli import main  # noqa: E402

SEEDS = [*range(20), 42]
NOISY_SEEDS = [3, 7, 42]

# variant: (scenario, config text, seed keys)
VARIANTS = {
    "compare": ("compare", "", ("sim.seed",)),
    "population_stepping": ("compare", POPULATION, ("sim.seed",)),
    "compare_window_540": ("compare", WINDOW_540, ("sim.seed",)),
    "growth_peak_0.004": ("growth", "growth_exp.peak_loss_rate = 0.004\n", ("sim.seed",)),
    "monitor": ("monitor", "", ("sim.seed",)),
    "monitor_noisy_frames": ("monitor", "monitor.sample_interval_min = 1\nmonitor.sample_count = 540\n"
                             "camera.noise_amplitude = 20\noutput.dump_frames = true\n",
                             ("sim.seed", "camera.noise_seed")),
}


def run_digest(scenario: str, text: str, seed_keys: tuple[str, ...], seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + "".join(f"{key} = {seed}\n" for key in seed_keys))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([scenario, "--config", str(cfg), "--out", str(out)])
        return tree_digest(out) if code == 0 else f"exit-{code}"


def main_sweep() -> None:
    for variant, (scenario, text, seed_keys) in VARIANTS.items():
        for seed in NOISY_SEEDS if variant == "monitor_noisy_frames" else SEEDS:
            print(variant, seed, run_digest(scenario, text, seed_keys, seed), flush=True)


if __name__ == "__main__":
    main_sweep()
