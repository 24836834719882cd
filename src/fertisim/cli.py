"""Command-line entry point.

Subcommands: the three scenarios (``growth``, ``monitor``, ``compare``),
plus ``render-frame`` and ``measure-image`` for working with single frames.
Exit codes: 0 success, 1 operational/config error, 2 scenario ran but one
of its built-in checks failed (each scenario in ``scenarios`` builds its own).
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import Config, default_config, dump_defaults, load_config
from .growth import PlantState, sizes
from .ppm import read_ppm, write_ppm
from .render import project, render
from .scenarios import run_fertigation_comparison, run_growth_experiment, run_monitoring_trace
from .vision import NoPlantDetected, measure, segment

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ASSERTION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(ok, what: str):
    """An argparse type: a number for which ``ok`` holds, else an error that it must be ``what``."""
    def parse(raw: str) -> float:
        try:
            if ok(value := float(raw)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {raw!r}")
    return parse


_distance_cm = _number(lambda x: math.isfinite(x) and x > 0.0, "a finite distance > 0 cm")
_size_cm = _number(lambda x: math.isfinite(x) and x > 0.0, "a finite size > 0 cm")
_turgor = _number(lambda x: 0.0 <= x <= 1.0, "a turgor fraction in [0, 1]")


# Scenario subcommand: (help text, run function)
_SCENARIOS = {
    "growth": ("three-band growth experiment", run_growth_experiment),
    "monitor": ("real-time monitoring session with the wilt rule", run_monitoring_trace),
    "compare": ("timer vs wilt-triggered water-usage comparison", run_fertigation_comparison),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="fertisim", description=__doc__)
    parser.add_argument("--dump-defaults", action="store_true",
                        help="print the default config file and exit")
    sub = parser.add_subparsers(dest="command")

    for name, (help_text, _) in _SCENARIOS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a config file")
        sp.add_argument("--seed", type=int, help="set sim.seed, checked like any config key")
        sp.add_argument("--out", default="out", help="output directory")

    rf = sub.add_parser("render-frame", help="render one synthetic frame to a PPM file")
    rf.add_argument("--config", help="path to a config file")
    rf.add_argument("--height-cm", type=_size_cm, default=50.0)
    rf.add_argument("--width-cm", type=_size_cm, default=25.0)
    rf.add_argument("--turgor", type=_turgor, default=1.0)
    rf.add_argument("--distance", type=_distance_cm, default=100.0)
    rf.add_argument("--file", default="frame.ppm", help="output PPM path")

    mi = sub.add_parser("measure-image", help="measure a plant in a PPM frame")
    mi.add_argument("image", help="path to a P6 PPM file")
    mi.add_argument("--config", help="path to a config file")
    mi.add_argument("--distance", type=_distance_cm, required=True, help="capture distance in cm")

    return parser


def main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"fertisim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.dump_defaults:
        print(dump_defaults(), end="")
        return EXIT_OK
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_ERROR

    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else default_config()
        if getattr(args, "seed", None) is not None:
            cfg = Config(values={**cfg.values, "sim.seed": args.seed})
    except (ValueError, OSError) as exc:  # ConfigError and UnicodeDecodeError are ValueErrors
        print(f"fertisim: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if args.command in _SCENARIOS:
            result = _SCENARIOS[args.command][1](cfg, args.out)
            if result.skipped_samples:  # one stderr line; the log has each at INFO
                print(f"fertisim: warning: {result.skipped_samples} sample(s) skipped, each with "
                      f"fewer than vision.min_plant_pixels = {cfg['vision.min_plant_pixels']} "
                      "plant pixels", file=sys.stderr)
            print(result.report)
            for failure in result.failures:
                print(f"fertisim: {failure}", file=sys.stderr)
            return EXIT_ASSERTION if result.failures else EXIT_OK

        if args.command == "render-frame":
            plant = PlantState(age_min=0.0, seedling_height_cm=args.height_cm,
                               seedling_width_cm=args.width_cm, turgor=args.turgor, rate_per_min=0)
            width, cam = sizes(plant, cfg.growth_params())[1], cfg.camera()
            runs = project([args.height_cm], [width], cam, args.distance)
            frame, (height_px, width_px, count) = render(runs[0], cam, (plant.age_min, 0))
            write_ppm(frame, args.file)
            print(f"height_px={height_px} width_px={width_px} plant_pixel_count={count}")
            return EXIT_OK

        if args.command == "measure-image":
            frame = read_ppm(args.image)
            cam = cfg.camera()
            mask = segment(frame, cfg["vision.red_margin"], cleanup=cam.noise_amplitude > 0)
            morpho = measure(mask, args.distance, cam, cfg["vision.min_plant_pixels"])
            print(f"height_cm={morpho.height_cm:.6f} width_cm={morpho.width_cm:.6f}")
            return EXIT_OK

    except (NoPlantDetected, OSError, ValueError) as exc:  # FrameFitError, PpmFormatError too
        print(f"fertisim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    return EXIT_ERROR


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
