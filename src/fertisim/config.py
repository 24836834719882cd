"""Flat ``section.key = value`` configuration with validated defaults.

Every calibration constant in the simulator lives here under a dotted key,
and only here: each key's default and range are in ``_KEYS`` (plus the
cross-field rules of ``_cross_check``), and the module parameter objects
have neither, so they are built from a ``Config``. A key's type is its default's.
An empty document yields the defaults; unknown keys, bad values, wrong types
and out-of-range values are errors that name the offending key (and line).
Parsing is order-independent; duplicate keys are rejected.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import groupby
from types import MappingProxyType
from typing import Any, Mapping

from .control import Schedule
from .growth import DemandProfile, GrowthParams
from .render import CameraConfig


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _in_range(value, rng: str | None) -> bool:
    """Whether ``value`` is in ``rng``: ``"> b"``, ``">= b"`` or ``"in [lo, hi)"`` with either end
    open or closed, each bound an integer or ``2**64``. ``None`` admits every value."""
    if rng is None:
        return True
    if rng[0] == ">":
        op, bound = rng.split()
        return value >= _bound(bound) if op == ">=" else value > _bound(bound)
    lo, hi = map(_bound, rng[4:-1].split(", "))
    return (lo <= value if rng[3] == "[" else lo < value) and (
        value <= hi if rng[-1] == "]" else value < hi)


def _bound(text: str) -> int:
    return 2**64 if text == "2**64" else int(text)


# Each key's default and range (see _in_range); the key's type is its default's.
_KEYS: dict[str, tuple[Any, str | None]] = {
    # Seeds are hash keys, taken modulo 2**64: larger ones would alias smaller ones.
    "sim.seed": (42, "in [0, 2**64)"),

    "growth.initial_height_cm": (5.0, "> 0"),
    "growth.initial_width_cm": (6.0, "> 0"),
    # ~80 cm at day 43 from a 5 cm seedling.
    "growth.normal_rate_per_day": (0.0645, "> 0"),
    "growth.under_multiplier": (0.80, "> 0"),
    "growth.over_multiplier": (1.15, "> 0"),
    "growth.width_exponent": (0.55, "in (0, 1]"),
    "growth.jitter": (0.05, "in [0, 1)"),
    "growth.s_max": (0.10, "in (0, 1)"),
    "growth.recovery_tau_min": (20.0, "> 0"),
    "growth.recovery_duration_min": (90.0, "> 0"),
    "growth.lag_low_min": (10.0, "> 0"),
    "growth.lag_high_min": (15.0, "> 0"),

    "demand.window_start_min": (480, "in [0, 1440)"),
    "demand.window_end_min": (1020, "in (0, 1440]"),
    # Comparison-scenario daytime demand; calibrated so the wilt controller
    # lands near 17 L/day for the population.
    "demand.peak_loss_rate": (0.008, ">= 0"),

    # Bundled real-time monitoring session preset.
    "monitor.peak_loss_rate": (0.0030, ">= 0"),
    "monitor.start_day": (30, ">= 0"),
    "monitor.sample_interval_min": (15, "> 0"),
    "monitor.sample_count": (26, "> 0"),

    "camera.focal_px": (480.0, "> 0"),
    "camera.noise_amplitude": (0, "in [0, 255]"),
    "camera.noise_seed": (0, "in [0, 2**64)"),
    "camera.canopy_fraction": (0.7, "in (0, 1)"),
    "camera.stem_fraction": (0.15, "in (0, 1]"),

    "vision.red_margin": (60, "in [0, 255]"),
    "vision.min_plant_pixels": (25, "> 0"),

    "control.wilt_threshold": (0.02, ">= 0"),
    "control.window_start_min": (480, "in [0, 1440)"),
    "control.window_end_min": (1020, "in (0, 1440]"),
    "control.timer_period_min": (30, "> 0"),
    "control.pump_on_min": (3.0, "> 0"),

    # 101.6 L/day over 18 timer activations of 3 minutes.
    "pump.flow_l_per_min": (101.6 / 54.0, "> 0"),

    "growth_exp.group_size": (20, "> 0"),
    "growth_exp.capture_every_days": (3, "> 0"),
    "growth_exp.days": (43, "> 0"),
    "growth_exp.spacing_cm": (40.0, "> 0"),
    "growth_exp.peak_loss_rate": (0.0, ">= 0"),

    "compare.plants": (60, "> 0"),
    "compare.total_days": (49, "> 0"),
    "compare.auto_start_day": (31, "> 0"),
    "compare.auto_end_day": (44, "> 0"),
    "compare.capture_every_days": (2, "> 0"),
    "compare.sample_interval_min": (30, "> 0"),

    "output.dump_frames": (False, None),
}

@dataclass(frozen=True)
class Config:
    """A complete, validated set of config values.

    Construction rejects unknown keys, takes each key it is not given from its
    default (so ``Config(values={})`` is the defaults), and checks that each
    value has its default's type (an int is taken as that float for a float
    key) and is in its key's range, and that the cross-field rules hold.
    ``values`` is stored read-only, so no later write can get past those
    checks; build a changed config with ``Config(values={**cfg.values, key: value})``.
    """

    values: Mapping[str, Any]

    def __post_init__(self):
        unknown = self.values.keys() - _KEYS.keys()
        if unknown:
            raise ConfigError(f"unknown key {min(unknown)!r}")
        values = {key: self.values.get(key, default) for key, (default, _) in _KEYS.items()}
        for key, (default, rng) in _KEYS.items():
            value, kind = values[key], type(default)
            if type(value) is int and kind is float and abs(value) <= sys.float_info.max:
                value = values[key] = float(value)
            if type(value) is not kind:
                raise ConfigError(f"key {key!r}: value {value!r} is not of type {kind.__name__}")
            if not _in_range(value, rng):
                raise ConfigError(f"key {key!r}: value {value!r} out of range (must be {rng})")
        _cross_check(values)
        object.__setattr__(self, "values", MappingProxyType(values))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    # Builders for the module parameter objects.

    def _section(self, section: str) -> dict[str, Any]:
        """The keys of one section, by their names within it."""
        prefix = section + "."
        return {k[len(prefix):]: v for k, v in self.values.items() if k.startswith(prefix)}

    def growth_params(self) -> GrowthParams:
        """Every ``growth.*`` key is the ``GrowthParams`` field of the same name."""
        return GrowthParams(**self._section("growth"))

    def camera(self) -> CameraConfig:
        """Every ``camera.*`` key is the ``CameraConfig`` field of the same name."""
        return CameraConfig(**self._section("camera"))

    def demand(self, peak_key: str = "demand.peak_loss_rate") -> DemandProfile:
        """The ``demand.*`` window keys, with the peak loss rate read from ``peak_key``."""
        return DemandProfile(**{**self._section("demand"), "peak_loss_rate": self.values[peak_key]})

    def schedule(self, sample_interval_min: int | None = None) -> Schedule:
        """Every ``control.*`` key but the wilt threshold (``spa_tick``'s argument) is the
        ``Schedule`` field of the same name; samples default to the monitor's interval."""
        control = self._section("control")
        del control["wilt_threshold"]
        interval = sample_interval_min or self.values["monitor.sample_interval_min"]
        return Schedule(sample_interval_min=interval, **control)


def default_config() -> Config:
    return parse_config("")


def parse_config(text: str) -> Config:
    """Parse a config document into a validated ``Config``.

    Syntax, unknown and duplicate keys, and values that do not parse as their key's
    type are reported with their line here; the ``Config`` takes each key the
    document does not set from its default, and runs the range and cross-field checks.
    """
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parse = {bool: _parse_bool, int: int, float: float}[type(_KEYS[key][0])]
        try:
            values[key] = parse(raw_value)
        except ValueError:
            raise ConfigError(f"line {lineno}: key {key!r}: cannot parse {raw_value!r}") from None
    return Config(values=values)


def _cross_check(v: dict[str, Any]) -> None:
    if v["demand.window_start_min"] >= v["demand.window_end_min"]:
        raise ConfigError("key 'demand.window_end_min': must exceed demand.window_start_min")
    if v["control.window_start_min"] >= v["control.window_end_min"]:
        raise ConfigError("key 'control.window_end_min': must exceed control.window_start_min")
    if v["growth.lag_high_min"] < v["growth.lag_low_min"]:
        raise ConfigError("key 'growth.lag_high_min': must be >= growth.lag_low_min")
    if not (1 <= v["compare.auto_start_day"] <= v["compare.auto_end_day"]
            <= v["compare.total_days"]):
        raise ConfigError("key 'compare.auto_start_day': regime timeline must satisfy 1 <= "
                          "compare.auto_start_day <= compare.auto_end_day <= compare.total_days")
    if v["compare.auto_start_day"] == 1 and v["compare.auto_end_day"] == v["compare.total_days"]:
        raise ConfigError(
            "key 'compare.auto_start_day': the wilt-controlled period covers all "
            f"{v['compare.total_days']} compare days, leaving no timer day to compare against"
        )
    last_sample = (v["control.window_start_min"]
                   + (v["monitor.sample_count"] - 1) * v["monitor.sample_interval_min"])
    if last_sample >= v["control.window_end_min"]:
        raise ConfigError(
            f"key 'monitor.sample_count': last sample at minute {last_sample} of the day "
            "(control.window_start_min + (sample_count - 1) * monitor.sample_interval_min) "
            f"is past the control window ending at {v['control.window_end_min']} "
            "(control.window_end_min)")


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_defaults() -> str:
    """Default config document; re-parsing it reproduces ``default_config()``."""
    lines: list[str] = []
    for section, entries in groupby(_KEYS.items(), key=lambda item: item[0].split(".", 1)[0]):
        lines.append(f"# {section}")
        # A float's str is its repr; a bool lowers to true/false.
        lines.extend(f"{key} = {str(default).lower()}" for key, (default, _) in entries)
        lines.append("")
    return "\n".join(lines)
