"""fertisim benchmark: scenario run time, set-up time, throughput and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_default --seed 42 --seconds 42 --trace 0

Each scenario run is a fresh interpreter (``worker.py``), one at a time.  A
timed pass (``--trace 0``) reports the end-to-end metrics; a traced pass
(``--trace 1``) makes untraced and traced runs and reports the per-layer
metrics.  Every run's outputs are checked; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().with_name("worker.py")

SETUP_SAMPLES = 7  # set-up-only interpreters per invocation, after one warm-up
HARD_LIMIT_S = 170.0  # no child of one workload's pass runs past this many seconds


@dataclass(frozen=True)
class Workload:
    scenario: str  # "compare" or "monitor"
    overrides: dict[str, object]
    seed_keys: tuple[str, ...]  # config keys set from --seed


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    # Headline 49-day timer-vs-wilt comparison plus control: noiseless imaging
    # and per-plant stepping both matter.
    "compare_default": Workload("compare", {}, ("sim.seed",)),
    # 5x population, one capture day: stepping dominates, imaging barely runs.
    "population_stepping": Workload(
        "compare", {"compare.plants": 300, "compare.capture_every_days": 49}, ("sim.seed",)),
    # Full-frame path (noise, majority filter, PPM writes), almost no stepping.
    # 540 one-minute samples end at 16:59, inside the control window.
    "monitor_noisy_frames": Workload(
        "monitor", {"monitor.sample_interval_min": 1, "monitor.sample_count": 540,
                    "camera.noise_amplitude": 20, "output.dump_frames": "true"},
        ("sim.seed", "camera.noise_seed")),
}


def config_text(wl: Workload, seed: int) -> str:
    values = {**wl.overrides, **{key: seed for key in wl.seed_keys}}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def plant_days(scenario: str, cfg) -> float:
    """Simulated plant-days, summed over every population the run simulates."""
    if scenario == "compare":  # main run and all-timer control
        return 2 * cfg["compare.plants"] * cfg["compare.total_days"]
    last_sample_min = (cfg["monitor.start_day"] * 1440 + cfg["control.window_start_min"]
                       + (cfg["monitor.sample_count"] - 1) * cfg["monitor.sample_interval_min"])
    return last_sample_min / 1440.0


class RunFailed(Exception):
    pass


def spawn(scenario: str, config: Path, kill_at: float, out: Path | None = None,
          spans: Path | None = None) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--scenario", scenario, "--config", str(config)]
    if out is not None:
        cmd += ["--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, kill_at - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"no result within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        raise RunFailed(f"exit {proc.returncode}: {tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


@dataclass
class Pass:
    """Everything one invocation measured on one workload."""

    name: str
    seed: int
    wl: Workload
    cfg: object
    config: Path
    kill_at: float
    setup_s: list[float] = field(default_factory=list)
    parse_s: list[float] = field(default_factory=list)
    runs: dict[str, list[dict]] = field(default_factory=lambda: {"plain": [], "traced": []})
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    stats: dict = field(default_factory=dict)

    def run_once(self, traced: bool) -> None:
        """One scenario run, its output checks and its digest; failures are counted."""
        self.attempted += 1
        out = WORK / self.name / "run"
        shutil.rmtree(out, ignore_errors=True)
        spans = WORK / self.name / "spans.npz" if traced else None
        try:
            rec = spawn(self.wl.scenario, self.config, self.kill_at, out, spans)
            problems = self._check(out, rec)
        except RunFailed as exc:
            rec, problems = None, [str(exc)]
        except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed outputs
            rec, problems = None, [f"output check: {exc!r}"]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.errors += [f"run {self.attempted}: {p}" for p in problems]
            return
        self.runs["traced" if traced else "plain"].append(rec)
        self.setup_s.append(rec["setup_s"])
        self.parse_s.append(rec["parse_s"])

    def _check(self, out: Path, rec: dict) -> list[str]:
        scenario = self.wl.scenario
        plants = self.cfg["compare.plants"]
        if scenario == "compare":
            problems = checks.check_compare(out)
        elif self.digest is None:
            # Re-measuring 540 frames is slow; a later tree that hashes the
            # same holds the same bytes, so it passes the same check.
            problems = checks.check_monitor(out, self.cfg)
        else:
            problems = []
        digest = checks.tree_digest(out)
        if self.digest is None:
            if not problems:
                self.digest = digest
        elif digest != self.digest:
            problems.append(f"output tree digest {digest[:16]} differs from {self.digest[:16]}")
        frames = checks.frames_implied(out, scenario, plants, rec["skipped"])
        if "layers" in rec and rec["layers"]["render.calls"] != frames:
            problems.append(f"traced render calls {rec['layers']['render.calls']} "
                            f"!= {frames} frames implied by the outputs")
        if not problems:
            self.stats = {"digest": digest, "frames": frames, "pump_events": rec["pump_events"],
                          "skipped": rec["skipped"]}
            if "savings_fraction" in rec:
                self.stats["savings_fraction"] = rec["savings_fraction"]
        return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> Pass:
    start = time.monotonic()
    deadline = start + seconds
    wl = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.cfg"
    config.write_text(config_text(wl, seed))
    from fertisim.config import load_config
    p = Pass(name, seed, wl, load_config(str(config)), config, start + HARD_LIMIT_S)

    spawn(wl.scenario, config, p.kill_at)  # warm-up: byte-compiles src/, fills the file cache
    for _ in range(SETUP_SAMPLES):
        rec = spawn(wl.scenario, config, p.kill_at)
        p.setup_s.append(rec["setup_s"])
        p.parse_s.append(rec["parse_s"])

    # Untraced and traced runs alternate in a traced pass.  A run starts only
    # if its kind's last run, checks included, would still end by the deadline.
    kinds = [False, True] if trace else [False]
    cost: dict[bool, float] = {}
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        t = time.monotonic()
        p.run_once(traced)
        cost[traced] = time.monotonic() - t
        k += 1
        following = kinds[k % len(kinds)]
        if k >= len(kinds) and time.monotonic() + cost[following] > deadline:
            break
    shutil.rmtree(work / "run", ignore_errors=True)
    return p


def median_of(recs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in recs)


def end_to_end(p: Pass) -> dict[str, tuple[float, str]]:
    plain = p.runs["plain"]
    days = plant_days(p.wl.scenario, p.cfg)
    return {
        "run_s": (median_of(plain, "run_s"), "s"),
        "setup_s": (statistics.median(p.setup_s), "s"),
        "plant_days_per_s": (statistics.median(days / r["run_s"] for r in plain), "plant-day/s"),
        "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "bytes_out": "B", "bytes": "B",
               "pixels_in": "count", "useful_pixel_frac": "ratio", "skipped": "count",
               "pump_on": "count", "parse_s": "s", "overhead_s": "s"}


def per_layer(p: Pass) -> dict[str, tuple[float, str]]:
    traced = p.runs["traced"]
    # median_low picks a measured value, so counts stay whole numbers.
    layers = {key: statistics.median_low(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    layers["config.parse_s"] = statistics.median(p.parse_s)
    layers["trace.overhead_s"] = median_of(traced, "run_s") - median_of(p.runs["plain"], "run_s")
    return {key: (value, LAYER_UNITS[key.split(".", 1)[1]]) for key, value in layers.items()}


def report(p: Pass, trace: bool) -> dict:
    n_plain, n_traced = len(p.runs["plain"]), len(p.runs["traced"])
    print(f"# workload {p.name}, seed {p.seed}: {n_plain} untraced and {n_traced} traced "
          f"runs, {len(p.setup_s)} set-up samples")
    for kind, recs in p.runs.items():
        if recs:
            print(f"# {kind} run_s: " + " ".join(f"{r['run_s']:.3f}" for r in recs))
    for err in p.errors:
        print(f"# FAILED {err}")
    metrics = {}
    if n_plain and (n_traced or not trace):
        metrics = per_layer(p) if trace else end_to_end(p)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"failed_frac = {p.failed / p.attempted:.6g} ratio ({p.failed} of {p.attempted} runs)")
    for key, value in p.stats.items():
        print(f"# {key} = {value}")
    return {
        "correct": p.failed == 0 and bool(metrics),
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default 42; 7 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=42.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fertisim" / "__init__.py").is_file():
        print(f"perfbench: no fertisim sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = report(measure(name, args.seed, args.seconds, bool(args.trace)),
                            bool(args.trace))
        except RunFailed as exc:
            print(f"perfbench: {name}: set-up run failed: {exc}", file=sys.stderr)
            return 1
        if not result["metrics"]:
            print(f"perfbench: {name}: no complete set of runs succeeded", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
