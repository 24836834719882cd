"""Print one ``variant seed digest`` line per output tree of a fixed run matrix.

The matrix: seeds 0-19 and 42 on the default compare, the same compare with
``camera.noise_amplitude = 20``, the benchmark's 300-plant
``population_stepping`` compare, a compare whose control window opens at
09:00, growth with ``growth_exp.peak_loss_rate = 0.004`` and the default
monitor dumping its noiseless frames; and the benchmark's noisy 540-frame
monitor at seeds 3, 7 and 42.
Each run goes through the CLI into a fresh temporary directory (``TMPDIR``),
is hashed with ``tree_digest`` and deleted at once: a noisy monitor writes
about 500 MB of frames.

The ``fertisim`` package is imported from ``PYTHONPATH`` when set, else from
this checkout's ``src``. With ``--parent`` the same matrix also runs in a
subprocess that imports ``fertisim`` from the given ``src`` directory, and
only the ``variant seed`` lines whose digests differ are printed; the exit
status is 1 if any differ::

    python3 tests/digest_sweep.py --parent ../parent/src
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from test_pinned_outputs import NOISY_COMPARE, POPULATION, WINDOW_540, tree_digest  # noqa: E402

from fertisim.cli import main  # noqa: E402

SEEDS = [*range(20), 42]
NOISY_SEEDS = [3, 7, 42]

# variant: (scenario, config text, seed keys)
VARIANTS = {
    "compare": ("compare", "", ("sim.seed",)),
    "compare_noisy": ("compare", NOISY_COMPARE, ("sim.seed",)),
    "population_stepping": ("compare", POPULATION, ("sim.seed",)),
    "compare_window_540": ("compare", WINDOW_540, ("sim.seed",)),
    "growth_peak_0.004": ("growth", "growth_exp.peak_loss_rate = 0.004\n", ("sim.seed",)),
    "monitor": ("monitor", "output.dump_frames = true\n", ("sim.seed",)),
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


def sweep():
    """Yield each ``variant seed digest`` line of the matrix."""
    for variant, (scenario, text, seed_keys) in VARIANTS.items():
        for seed in NOISY_SEEDS if variant == "monitor_noisy_frames" else SEEDS:
            yield f"{variant} {seed} {run_digest(scenario, text, seed_keys, seed)}"


def compare_with_parent(parent_src: str) -> int:
    """Run the matrix here and, alongside, under ``parent_src``; print the differing runs."""
    env = {**os.environ, "PYTHONPATH": str(Path(parent_src).resolve())}
    parent = subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.PIPE,
                              text=True)
    ours = list(sweep())
    theirs = parent.communicate()[0].splitlines()
    if parent.returncode:
        sys.exit(f"digest_sweep: parent run exited {parent.returncode}")
    differing = [line.rsplit(" ", 1)[0] for line, old in zip(ours, theirs) if line != old]
    for run in differing:
        print(run)
    return 1 if differing else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="SRC",
                        help="a parent checkout's src directory; print only the differing runs")
    args = parser.parse_args()
    if args.parent:
        sys.exit(compare_with_parent(args.parent))
    for line in sweep():
        print(line, flush=True)
