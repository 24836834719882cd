"""Command-line entry point.

Subcommands: the three scenarios (``growth``, ``monitor``, ``compare``),
plus ``render-frame`` and ``measure-image`` for working with single frames.
Exit codes: 0 success, 1 operational/config error, 2 scenario ran but one
of its built-in result assertions failed.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

from .config import ConfigError, default_config, dump_defaults, load_config
from .growth import EcBand, PlantState, effective_width
from .ppm import PpmFormatError, read_ppm, write_ppm
from .render import FrameFitError, render
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


def _distance_cm(raw: str) -> float:
    """A ``--distance`` value: a finite number of centimetres above 0."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite distance > 0 cm, got {raw!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="fertisim", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    for name, help_text in (
        ("growth", "three-band growth experiment"),
        ("monitor", "real-time monitoring session with the wilt rule"),
        ("compare", "timer vs wilt-triggered water-usage comparison"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="path to a config file")
        sp.add_argument("--seed", type=int, help="override sim.seed")
        sp.add_argument("--out", default="out", help="output directory")

    rf = sub.add_parser("render-frame", help="render one synthetic frame to a PPM file")
    rf.add_argument("--config", help="path to a config file")
    rf.add_argument("--height-cm", type=float, default=50.0)
    rf.add_argument("--width-cm", type=float, default=25.0)
    rf.add_argument("--turgor", type=float, default=1.0)
    rf.add_argument("--distance", type=_distance_cm, default=100.0)
    rf.add_argument("--file", default="frame.ppm", help="output PPM path")

    mi = sub.add_parser("measure-image", help="measure a plant in a PPM frame")
    mi.add_argument("image", help="path to a P6 PPM file")
    mi.add_argument("--config", help="path to a config file")
    mi.add_argument("--distance", type=_distance_cm, required=True, help="capture distance in cm")

    return parser


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--dump-defaults":
        print(dump_defaults(), end="")
        return EXIT_OK

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"fertisim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.command is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_ERROR

    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else default_config()
    except (ConfigError, OSError) as exc:
        print(f"fertisim: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if args.command == "growth":
            result = run_growth_experiment(cfg, args.out, seed=args.seed)
            print(f"growth experiment: {len(result.capture_days)} capture days, "
                  f"outputs in {args.out}")
            if not result.ordering_ok:
                print("fertisim: group mean heights violate over > normal > under",
                      file=sys.stderr)
                return EXIT_ASSERTION
            return EXIT_OK

        if args.command == "monitor":
            result = run_monitoring_trace(cfg, args.out, seed=args.seed)
            offsets = ", ".join(str(int(e.offset_min)) for e in result.events) or "none"
            print(f"monitoring session: {len(result.rows)} samples, "
                  f"{len(result.events)} pump event(s) at minute(s): {offsets}")
            return EXIT_OK

        if args.command == "compare":
            result = run_fertigation_comparison(cfg, args.out, seed=args.seed)
            print(f"comparison: timer {result.timer_mean_l_per_day:.1f} L/day, "
                  f"auto {result.auto_mean_l_per_day:.1f} L/day, "
                  f"savings {result.savings_fraction * 100.0:.1f}%")
            if not (result.savings_ok and result.growth_ok):
                if not result.savings_ok:
                    print("fertisim: savings did not exceed 80%", file=sys.stderr)
                if not result.growth_ok:
                    print("fertisim: growth not maintained within 10% of the timer control",
                          file=sys.stderr)
                return EXIT_ASSERTION
            return EXIT_OK

        if args.command == "render-frame":
            plant = PlantState(age_min=0.0, height_cm=args.height_cm,
                               turgid_width_cm=args.width_cm, turgor=args.turgor,
                               band=EcBand.NORMAL)
            frame, truth = render(plant.height_cm, effective_width(plant, cfg.growth_params()),
                                  cfg.camera(), args.distance)
            write_ppm(frame, args.file)
            print(f"height_px={truth.height_px} width_px={truth.width_px} "
                  f"plant_pixel_count={truth.plant_pixel_count}")
            return EXIT_OK

        if args.command == "measure-image":
            frame = read_ppm(args.image, distance_cm=args.distance)
            cam = cfg.camera()
            mask = segment(frame, cfg["vision.red_margin"], cleanup=cam.noise_amplitude > 0)
            morpho = measure(mask, args.distance, cam, cfg["vision.min_plant_pixels"])
            print(f"height_cm={morpho.height_cm:.6f} width_cm={morpho.width_cm:.6f}")
            return EXIT_OK

    except ConfigError as exc:
        print(f"fertisim: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (FrameFitError, PpmFormatError, NoPlantDetected, OSError, ValueError) as exc:
        print(f"fertisim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    return EXIT_ERROR


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
