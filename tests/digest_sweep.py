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

``--explain`` then runs each differing run again on both sides and reports,
file by file, what changed: the ``summary.txt`` keys (old → new); for each
CSV both row counts, the first differing row and the largest change in each
numeric column; and how many frames differ, with the largest per-channel
difference. The report goes to stdout after the list, or to the file given
(``--explain report.txt``). It never changes the exit status. Both trees of
a run are kept only while they are compared.
"""

import argparse
import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from test_pinned_outputs import NOISY_COMPARE, POPULATION, WINDOW_540, tree_digest  # noqa: E402

from fertisim.cli import main  # noqa: E402
from fertisim.ppm import read_ppm  # noqa: E402

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


def run_into(variant: str, seed: int, tmp: Path) -> int:
    """Run one matrix entry through the CLI, its outputs into ``tmp / "out"``; its exit status."""
    scenario, text, seed_keys = VARIANTS[variant]
    cfg = tmp / "run.cfg"
    cfg.write_text(text + "".join(f"{key} = {seed}\n" for key in seed_keys))
    with contextlib.redirect_stdout(io.StringIO()):
        return main([scenario, "--config", str(cfg), "--out", str(tmp / "out")])


def run_digest(variant: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        code = run_into(variant, seed, Path(tmp))
        return tree_digest(Path(tmp) / "out") if code == 0 else f"exit-{code}"


def sweep():
    """Yield each ``variant seed digest`` line of the matrix."""
    for variant in VARIANTS:
        for seed in NOISY_SEEDS if variant == "monitor_noisy_frames" else SEEDS:
            yield f"{variant} {seed} {run_digest(variant, seed)}"


def compare_with_parent(parent_src: str, explain_to: str | None = None) -> int:
    """Run the matrix here and, alongside, under ``parent_src``; print the differing runs,
    then, if ``explain_to`` is given, what differs in each (to stdout for ``-``)."""
    env = {**os.environ, "PYTHONPATH": str(Path(parent_src).resolve())}
    parent = subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.PIPE,
                              text=True)
    ours = list(sweep())
    theirs = parent.communicate()[0].splitlines()
    if parent.returncode:
        sys.exit(f"digest_sweep: parent run exited {parent.returncode}")
    differing = [line.rsplit(" ", 1)[0] for line, old in zip(ours, theirs) if line != old]
    for run in differing:
        print(run, flush=True)
    if explain_to is not None:
        with contextlib.ExitStack() as stack:
            report = (sys.stdout if explain_to == "-" else
                      stack.enter_context(open(explain_to, "w", encoding="utf-8")))
            try:
                for run in differing:
                    print(f"{run}:", file=report)
                    for line in explain(env, *run.split()):
                        print(f"  {line}", file=report, flush=True)
            except Exception:  # the report is advisory: a run it cannot explain sets no status
                traceback.print_exc(file=report)
    return 1 if differing else 0


def explain(parent_env: dict[str, str], variant: str, seed: str):
    """Yield the report lines of one run, made again here and, alongside, under the parent."""
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp, "parent"), Path(tmp, "here")
        old.mkdir()
        new.mkdir()
        parent = subprocess.Popen([sys.executable, __file__, "--run", variant, seed, str(old)],
                                  env=parent_env)
        new_code = run_into(variant, int(seed), new)
        old_code = parent.wait()
        if old_code != new_code:
            yield f"exit status {old_code} → {new_code}"
        yield from diff_trees(old / "out", new / "out")


def diff_trees(old: Path, new: Path):
    """Yield what differs between two output trees, file by file; frames are taken together."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old), files(new)
    frames = []
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            yield f"{name}: only {'in the parent' if name in old_files else 'here'}"
        elif (old / name).read_bytes() == (new / name).read_bytes():
            continue
        elif name.endswith(".ppm"):
            frames.append(name)
        elif name.endswith("summary.txt"):
            yield from diff_summary(name, old / name, new / name)
        elif name.endswith(".csv"):
            yield from diff_csv(name, old / name, new / name)
        else:
            yield f"{name}: differs"
    if frames:
        largest = np.zeros(3, dtype=np.int16)
        for name in frames:
            a, b = (read_ppm(str(root / name)).pixels for root in (old, new))
            change = np.abs(a.astype(np.int16) - b).reshape(-1, 3).max(axis=0)
            np.maximum(largest, change, out=largest)
        r, g, b = largest.tolist()
        yield (f"frames: {len(frames)} of {sum(n.endswith('.ppm') for n in new_files)} PPMs "
               f"differ; largest per-channel difference R {r}, G {g}, B {b}")


def diff_summary(name: str, old: Path, new: Path):
    def keys(path):
        return dict(line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)

    before, after = keys(old), keys(new)
    for key in [*before, *(k for k in after if k not in before)]:
        if before.get(key) != after.get(key):
            yield f"{name}: {key} = {before.get(key, '(none)')} → {after.get(key, '(none)')}"


def diff_csv(name: str, old: Path, new: Path):
    (header, *before), (new_header, *after) = (p.read_text().splitlines() for p in (old, new))
    yield f"{name}: {len(before)} → {len(after)} rows"
    if header != new_header:
        yield f"{name}: header {header} → {new_header}"
        return
    rows = enumerate(itertools.zip_longest(before, after, fillvalue="(none)"))
    first = next(((i, a, b) for i, (a, b) in rows if a != b), None)
    if first is not None:  # else only the line endings differ
        yield f"{name}: first differing row {first[0]}: {first[1]} → {first[2]}"
    changes = {}
    for a, b in zip(before, after):
        for column, x, y in zip(header.split(","), a.split(","), b.split(",")):
            try:
                change = abs(float(y) - float(x))
            except ValueError:
                continue
            changes[column] = max(changes.get(column, 0.0), change)
    moved = [f"{column} {change:g}" for column, change in changes.items() if change]
    if moved:
        yield f"{name}: largest change per numeric column: {', '.join(moved)}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="SRC",
                        help="a parent checkout's src directory; print only the differing runs")
    parser.add_argument("--explain", metavar="REPORT", nargs="?", const="-",
                        help="with --parent: report what differs in each differing run, "
                             "to stdout or to the file REPORT")
    parser.add_argument("--run", nargs=3, metavar=("VARIANT", "SEED", "DIR"),
                        help="make one run of the matrix into DIR/out, keep it and exit with "
                             "its status (what --explain runs under the parent)")
    args = parser.parse_args()
    if args.run:
        variant, seed, tmp = args.run
        sys.exit(run_into(variant, int(seed), Path(tmp)))
    if args.explain and not args.parent:
        parser.error("--explain needs --parent")
    if args.parent:
        sys.exit(compare_with_parent(args.parent, args.explain))
    for line in sweep():
        print(line, flush=True)
