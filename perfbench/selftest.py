"""Self-test of the benchmark harness, on small configs.

Run from the repository root:

    python3 perfbench/selftest.py

* A traced run writes byte-identical outputs to an untraced run.
* The traced ``render`` span count equals the frames implied by the output
  files, so the wrappers see every call.  No call count is hard-coded.
* Without fertisim sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import checks
import run

SMALL = {
    "compare": "compare.plants = 3\ncompare.total_days = 6\ncompare.auto_start_day = 2\n"
               "compare.auto_end_day = 4\ncompare.capture_every_days = 2\n",
    "monitor": "monitor.sample_interval_min = 5\nmonitor.sample_count = 12\n"
               "camera.noise_amplitude = 20\noutput.dump_frames = true\n",
}
WORK = run.WORK / "selftest"


class TracedRunTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def _pair(self, scenario: str) -> tuple[dict, dict]:
        config = WORK / f"{scenario}.cfg"
        config.write_text(SMALL[scenario])
        kill_at = time.monotonic() + 120.0
        plain = run.spawn(scenario, config, kill_at, WORK / "plain")
        traced = run.spawn(scenario, config, kill_at, WORK / "traced", WORK / "spans.npz")
        return plain, traced

    def test_traced_outputs_are_byte_identical(self):
        for scenario in SMALL:
            with self.subTest(scenario=scenario):
                self._pair(scenario)
                self.assertEqual(checks.tree_digest(WORK / "plain"),
                                 checks.tree_digest(WORK / "traced"))

    def test_render_spans_match_frames_in_outputs(self):
        for scenario, plants in (("compare", 3), ("monitor", 1)):
            with self.subTest(scenario=scenario):
                _, traced = self._pair(scenario)
                frames = checks.frames_implied(WORK / "traced", scenario, plants,
                                               traced["skipped"])
                self.assertGreater(frames, 0)
                self.assertEqual(traced["layers"]["render.calls"], frames)
                # Every frame is segmented once and measured once.
                self.assertEqual(traced["layers"]["vision.calls"], 2 * frames)

    def test_monitor_frames_check_out(self):
        self._pair("monitor")
        sys.path.insert(0, str(run.SRC))
        from fertisim.config import parse_config
        self.assertEqual(checks.check_monitor(WORK / "traced", parse_config(SMALL["monitor"])), [])

    def test_exits_nonzero_without_sources(self):
        bare = WORK / "bare"
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compare_default",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
