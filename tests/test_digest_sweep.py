"""The byte-change report of ``digest_sweep.py --explain``, on two small output trees."""

import numpy as np
from digest_sweep import diff_trees

from fertisim.ppm import write_ppm
from fertisim.render import Frame


def test_report_names_each_changed_file(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    trees = ((old, "0.829365", ["1,2.5,x", "2,3.0,y"], 0),
             (new, "0.944444", ["1,2.5,x", "2,3.25,y", "3,1.0,z"], 7))
    for root, saved, rows, shade in trees:
        (root / "frames").mkdir(parents=True)
        (root / "summary.txt").write_text(f"savings_fraction = {saved}\nsamples = 26\n")
        (root / "heights.csv").write_text("day,height_cm,tag\n" + "\n".join(rows) + "\n")
        pixels = np.zeros((480, 640, 3), np.uint8)
        write_ppm(Frame(pixels=pixels), str(root / "frames" / "sample_000.ppm"))
        pixels[5, 5, 1] = shade
        write_ppm(Frame(pixels=pixels), str(root / "frames" / "sample_001.ppm"))
    (new / "pump_events.csv").write_text("sample_index\n")
    assert list(diff_trees(old, new)) == [
        "heights.csv: 2 → 3 rows",
        "heights.csv: first differing row 1: 2,3.0,y → 2,3.25,y",
        "heights.csv: largest change per numeric column: height_cm 0.25",
        "pump_events.csv: only here",
        "summary.txt: savings_fraction = 0.829365 → 0.944444",
        "frames: 1 of 2 PPMs differ; largest per-channel difference R 0, G 7, B 0",
    ]
