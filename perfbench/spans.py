"""In-memory span tracer that wraps fertisim's layer functions from outside.

``fertisim.scenarios`` binds its collaborators at import time
(``from .render import render``), so the wrappers replace the names as bound
in that module; wrapping only the defining module would miss every call.
``WaterLedger.accrue`` is a method, so it is wrapped on the class.

Each wrapped call records one span (name, start, end, parent) in flat arrays.
The arrays live in an anonymous memory map, not on the malloc heap: growing
heap arrays pin the top of the heap, which stops glibc from trimming and
re-faulting the freed frame buffers, and made traced compare runs about 25%
faster than untraced ones.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children.  The wrappers themselves cost time that
lands in the enclosing span, so traced self times are upper bounds.
"""

from __future__ import annotations

import mmap
import os
import time
from collections import Counter

import numpy as np

# Name bound in fertisim.scenarios -> layer (a src/fertisim module name).
SCENARIO_FUNCTIONS = {
    "advance": "growth",
    "apply_irrigation": "growth",
    "render": "render",
    "segment": "vision",
    "measure": "vision",
    "write_ppm": "ppm",
    "spa_tick": "control",
    "timer_tick": "control",
}
LAYERS = ("growth", "render", "vision", "ppm", "control", "ledger")
RUN_SPAN = "scenarios.run"
# Address space only: pages are touched as spans are recorded.  One span more
# raises IndexError, which fails the run.
MAX_SPANS = 1 << 24
_FIELDS = (("name_id", "B"), ("parent", "q"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self, no_plant: type[Exception]) -> None:
        self._no_plant = no_plant  # raised by measure() for an empty mask
        self.names: list[str] = []
        self._maps = {name: mmap.mmap(-1, MAX_SPANS * np.dtype(code).itemsize,
                                      flags=mmap.MAP_PRIVATE)
                      for name, code in _FIELDS}
        self._views = {name: memoryview(self._maps[name]).cast(code) for name, code in _FIELDS}
        self._count = [0]
        self.counters: Counter[str] = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(result, args)`` updates counters."""
        nid = len(self.names)
        self.names.append(name)
        v = self._views
        name_id, parent, start, end = v["name_id"], v["parent"], v["start"], v["end"]
        count_box, stack = self._count, self._stack
        clock = time.perf_counter
        skipped = self._no_plant

        def traced(*args, **kwargs):
            i = count_box[0]
            count_box[0] = i + 1
            name_id[i] = nid
            parent[i] = stack[-1]
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except skipped:
                self.counters["vision.skipped"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(result, args)
            return result

        return traced

    def install(self, scenarios, ledger_cls, action_on) -> None:
        """Patch the layer functions bound in ``scenarios`` and ``ledger_cls.accrue``."""
        c = self.counters

        def frame_bytes(result, args):
            c["render.bytes_out"] += result[0].pixels.nbytes

        def mask_pixels(result, args):
            c["vision.pixels_in"] += result.size

        def plant_pixels(result, args):
            c["vision.useful_pixels"] += result.plant_pixel_count

        def ppm_bytes(result, args):
            c["ppm.bytes"] += os.path.getsize(args[1])

        def spa_on(result, args):
            c["control.pump_on"] += result[1].action is action_on

        def timer_on(result, args):
            c["control.pump_on"] += result.action is action_on

        counts = {"render": frame_bytes, "segment": mask_pixels, "measure": plant_pixels,
                  "write_ppm": ppm_bytes, "spa_tick": spa_on, "timer_tick": timer_on}
        for fname, layer in SCENARIO_FUNCTIONS.items():
            self._patch(scenarios, fname, f"{layer}.{fname}", counts.get(fname))
        self._patch(ledger_cls, "accrue", "ledger.accrue")

    def _patch(self, owner, attr: str, span_name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(span_name, getattr(owner, attr), count))

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays, plus the span names they index."""
        n = self._count[0]
        out = {name: np.frombuffer(self._maps[name], dtype=code, count=n).copy()
               for name, code in _FIELDS}
        out["names"] = np.array(self.names)
        return out


def summarize(spans: dict[str, np.ndarray], counters: Counter) -> dict[str, float]:
    """Per-layer calls, self seconds and counters, plus the run span's self time."""
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    n_names = len(spans["names"])
    calls_by_name = np.bincount(name_id, minlength=n_names)
    self_by_name = np.bincount(name_id, weights=self_time, minlength=n_names)

    out: dict[str, float] = {"scenarios.self_s": 0.0}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for i, name in enumerate(spans["names"]):
        layer = "scenarios" if name == RUN_SPAN else name.split(".", 1)[0]
        if layer != "scenarios":
            out[f"{layer}.calls"] += int(calls_by_name[i])
        out[f"{layer}.self_s"] += float(self_by_name[i])
    pixels_in = counters["vision.pixels_in"]
    out.update({
        "render.bytes_out": counters["render.bytes_out"],
        "vision.pixels_in": pixels_in,
        "vision.useful_pixel_frac": counters["vision.useful_pixels"] / pixels_in if pixels_in else 0.0,
        "vision.skipped": counters["vision.skipped"],
        "ppm.bytes": counters["ppm.bytes"],
        "control.pump_on": counters["control.pump_on"],
    })
    return out
