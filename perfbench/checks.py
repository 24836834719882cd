"""Output checks and output-tree digests, done from outside the program."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def read_summary(out: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_compare(out: Path) -> list[str]:
    """The comparison's headline claims, as written to summary.txt."""
    summary = read_summary(out)
    return [f"summary.txt: {key} = {summary.get(key)}, want true"
            for key in ("savings_above_0.80", "growth_within_band")
            if summary.get(key) != "true"]


def check_monitor(out: Path, cfg) -> list[str]:
    """Re-measure every dumped frame and require it to match its trace.csv row.

    A frame with no trace row must be one the vision pipeline rejects.
    """
    from fertisim.ppm import read_ppm
    from fertisim.render import capture_distance
    from fertisim.vision import NoPlantDetected, measure, segment

    cam = cfg.camera()
    interval = cfg["monitor.sample_interval_min"]
    start_day = cfg["monitor.start_day"]
    start_min = start_day * 1440 + cfg["control.window_start_min"]
    distance = capture_distance(start_day)
    rows = {int(r["timestamp_min"]): r for r in csv_rows(out / "trace.csv")}
    errors = []
    for k in range(cfg["monitor.sample_count"]):
        path = out / "frames" / f"sample_{k:03d}.ppm"
        if not path.is_file():
            errors.append(f"{path.name}: missing")
            continue
        mask = segment(read_ppm(str(path), distance), cfg["vision.red_margin"],
                       cleanup=cam.noise_amplitude > 0)
        row = rows.get(start_min + k * interval)
        try:
            m = measure(mask, distance, cam, cfg["vision.min_plant_pixels"])
        except NoPlantDetected:
            if row is not None:
                errors.append(f"{path.name}: no plant, but trace.csv has a row")
            continue
        got = (f"{m.height_cm:.6f}", f"{m.width_cm:.6f}")
        want = (row["height_cm"], row["width_cm"]) if row else None
        if got != want:
            errors.append(f"{path.name}: measured {got}, trace.csv has {want}")
    return errors


def frames_implied(out: Path, scenario: str, plants: int, skipped: int) -> int:
    """Frames the run must have rendered, from its output files.

    Comparison: capture rows x plants (main and control) plus auto-sample
    trace rows plus skipped auto samples.  Monitor: trace rows plus skipped
    samples.  Assumes no capture sample was skipped.
    """
    frames = len(csv_rows(out / "trace.csv")) + skipped
    if scenario == "compare":
        captures = sum(len(csv_rows(out / name)) for name in ("heights.csv", "control_heights.csv"))
        frames += captures * plants
    return frames
