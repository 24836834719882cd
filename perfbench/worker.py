"""One scenario run of the fertisim benchmark, in a fresh interpreter.

Started by ``run.py`` from the root of a checkout; imports ``fertisim`` from
``src/`` there.  ``--t0`` is the parent's ``time.monotonic()`` just before the
spawn (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, importing fertisim and numpy, reading and parsing the
config and building the params/camera/schedule objects.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scenario", choices=("compare", "monitor"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="output directory; omit to time set-up only")
    parser.add_argument("--spans", help="trace the run and save its spans to this .npz path")
    args = parser.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import fertisim
    if not os.path.abspath(fertisim.__file__).startswith(src + os.sep):
        print(f"fertisim imported from {fertisim.__file__}, not from {src}", file=sys.stderr)
        return 1
    from fertisim import scenarios
    from fertisim.config import load_config

    t = time.monotonic()
    cfg = load_config(args.config)
    parse_s = time.monotonic() - t
    cfg.growth_params()
    cfg.camera()
    cfg.schedule()
    cfg.demand()
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s, "parse_s": parse_s}
    if args.out is None:
        print(json.dumps(record))
        return 0

    run = (scenarios.run_fertigation_comparison if args.scenario == "compare"
           else scenarios.run_monitoring_trace)
    tracer = None
    if args.spans:
        import numpy as np
        from spans import RUN_SPAN, Tracer, summarize

        from fertisim.control import Action
        from fertisim.ledger import WaterLedger
        from fertisim.vision import NoPlantDetected
        tracer = Tracer(NoPlantDetected)
        tracer.install(scenarios, WaterLedger, Action.ON)
        run = tracer.wrap(RUN_SPAN, run)

    t = time.monotonic()
    result = run(cfg, args.out)
    record["run_s"] = time.monotonic() - t
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record["pump_events"] = len(result.events)
    record["skipped"] = result.skipped_samples
    if args.scenario == "compare":
        record["savings_fraction"] = result.savings_fraction

    if tracer is not None:
        spans = tracer.arrays()
        record["layers"] = summarize(spans, tracer.counters)
        np.savez(args.spans, **spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
