"""Flat ``section.key = value`` configuration with validated defaults.

Every calibration constant in the simulator lives here under a dotted key,
and only here: each key's default and range are in ``_KEYS`` (plus the
cross-field rules of ``_cross_check``), and the module parameter objects
have neither, so they are built from a ``Config``.
An empty document yields the defaults; unknown keys, bad values, and
out-of-range values are errors that name the offending key (and line).
Parsing is order-independent; duplicate keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from types import MappingProxyType
from typing import Any, Callable, Mapping

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


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], bool]
    why: str  # range description used in error messages


def _pos(x) -> bool:
    return x > 0


def _nonneg(x) -> bool:
    return x >= 0


def _seed(x) -> bool:
    return 0 <= x < 2**64


_KEYS: dict[str, _Key] = {
    # Seeds are hash keys, taken modulo 2**64: larger ones would alias smaller ones.
    "sim.seed": _Key(int, 42, _seed, "in [0, 2**64)"),

    "growth.initial_height_cm": _Key(float, 5.0, _pos, "> 0"),
    "growth.initial_width_cm": _Key(float, 6.0, _pos, "> 0"),
    # ~80 cm at day 43 from a 5 cm seedling.
    "growth.normal_rate_per_day": _Key(float, 0.0645, _pos, "> 0"),
    "growth.under_multiplier": _Key(float, 0.80, _pos, "> 0"),
    "growth.over_multiplier": _Key(float, 1.15, _pos, "> 0"),
    "growth.width_exponent": _Key(float, 0.55, lambda x: 0 < x <= 1, "in (0, 1]"),
    "growth.jitter": _Key(float, 0.05, lambda x: 0 <= x < 1, "in [0, 1)"),
    "growth.s_max": _Key(float, 0.10, lambda x: 0 < x < 1, "in (0, 1)"),
    "growth.recovery_tau_min": _Key(float, 20.0, _pos, "> 0"),
    "growth.recovery_duration_min": _Key(float, 90.0, _pos, "> 0"),
    "growth.lag_low_min": _Key(float, 10.0, _pos, "> 0"),
    "growth.lag_high_min": _Key(float, 15.0, _pos, "> 0"),

    "demand.window_start_min": _Key(int, 480, lambda x: 0 <= x < 1440, "in [0, 1440)"),
    "demand.window_end_min": _Key(int, 1020, lambda x: 0 < x <= 1440, "in (0, 1440]"),
    # Comparison-scenario daytime demand; calibrated so the wilt controller
    # lands near 17 L/day for the population.
    "demand.peak_loss_rate": _Key(float, 0.008, _nonneg, ">= 0"),

    # Bundled real-time monitoring session preset.
    "monitor.peak_loss_rate": _Key(float, 0.0030, _nonneg, ">= 0"),
    "monitor.start_day": _Key(int, 30, _nonneg, ">= 0"),
    "monitor.sample_interval_min": _Key(int, 15, _pos, "> 0"),
    "monitor.sample_count": _Key(int, 26, _pos, "> 0"),

    "camera.focal_px": _Key(float, 480.0, _pos, "> 0"),
    "camera.noise_amplitude": _Key(int, 0, lambda x: 0 <= x <= 255, "in [0, 255]"),
    "camera.noise_seed": _Key(int, 0, _seed, "in [0, 2**64)"),
    "camera.canopy_fraction": _Key(float, 0.7, lambda x: 0 < x < 1, "in (0, 1)"),
    "camera.stem_fraction": _Key(float, 0.15, lambda x: 0 < x <= 1, "in (0, 1]"),

    "vision.red_margin": _Key(int, 60, lambda x: 0 <= x <= 255, "in [0, 255]"),
    "vision.min_plant_pixels": _Key(int, 25, _pos, "> 0"),

    "control.wilt_threshold": _Key(float, 0.02, _nonneg, ">= 0"),
    "control.window_start_min": _Key(int, 480, lambda x: 0 <= x < 1440, "in [0, 1440)"),
    "control.window_end_min": _Key(int, 1020, lambda x: 0 < x <= 1440, "in (0, 1440]"),
    "control.timer_period_min": _Key(int, 30, _pos, "> 0"),
    "control.pump_on_min": _Key(float, 3.0, _pos, "> 0"),

    # 101.6 L/day over 18 timer activations of 3 minutes.
    "pump.flow_l_per_min": _Key(float, 101.6 / 54.0, _pos, "> 0"),

    "growth_exp.group_size": _Key(int, 20, _pos, "> 0"),
    "growth_exp.capture_every_days": _Key(int, 3, _pos, "> 0"),
    "growth_exp.days": _Key(int, 43, _pos, "> 0"),
    "growth_exp.spacing_cm": _Key(float, 40.0, _pos, "> 0"),
    "growth_exp.peak_loss_rate": _Key(float, 0.0, _nonneg, ">= 0"),

    "compare.plants": _Key(int, 60, _pos, "> 0"),
    "compare.total_days": _Key(int, 49, _pos, "> 0"),
    "compare.auto_start_day": _Key(int, 31, _pos, "> 0"),
    "compare.auto_end_day": _Key(int, 44, _pos, "> 0"),
    "compare.capture_every_days": _Key(int, 2, _pos, "> 0"),
    "compare.sample_interval_min": _Key(int, 30, _pos, "> 0"),

    "output.dump_frames": _Key(_parse_bool, False, lambda x: True, "true or false"),
}

@dataclass(frozen=True)
class Config:
    """A complete, validated set of config values.

    Construction checks that every key of the table is present, each value is
    in its key's range, and the cross-field rules hold. ``values`` is stored
    read-only, so no later write can get past those checks; build a changed
    config with ``Config(values={**cfg.values, key: value})``.
    """

    values: Mapping[str, Any]

    def __post_init__(self):
        values = dict(self.values)
        unknown = values.keys() - _KEYS.keys()
        if unknown:
            raise ConfigError(f"unknown key {min(unknown)!r}")
        for key, entry in _KEYS.items():
            if key not in values:
                raise ConfigError(f"key {key!r}: missing")
            if not entry.check(values[key]):
                raise ConfigError(
                    f"key {key!r}: value {values[key]!r} out of range (must be {entry.why})")
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
        v = self.values
        return DemandProfile(
            window_start_min=float(v["demand.window_start_min"]),
            window_end_min=float(v["demand.window_end_min"]),
            peak_loss_rate=v[peak_key],
        )

    def schedule(self, sample_interval_min: int | None = None) -> Schedule:
        v = self.values
        return Schedule(
            sample_interval_min=sample_interval_min or v["monitor.sample_interval_min"],
            window_start_min=v["control.window_start_min"],
            window_end_min=v["control.window_end_min"],
            timer_period_min=v["control.timer_period_min"],
            timer_on_min=v["control.pump_on_min"],
        )


def default_config() -> Config:
    return parse_config("")


def parse_config(text: str) -> Config:
    """Parse a config document, apply defaults, and validate every key.

    Syntax, unknown and duplicate keys are reported with their line here;
    range and cross-field checks run when the ``Config`` is built.
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
        entry = _KEYS[key]
        try:
            value = entry.parse(raw_value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key {key!r}: cannot parse {raw_value!r}"
            ) from None
        values[key] = value

    for key, entry in _KEYS.items():
        values.setdefault(key, entry.default)
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
        raise ConfigError(
            "key 'compare.auto_start_day': regime timeline must satisfy "
            "1 <= auto_start_day <= auto_end_day <= total_days"
        )
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
            f"is past the control window ending at {v['control.window_end_min']}"
        )


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_defaults() -> str:
    """Default config document; re-parsing it reproduces ``default_config()``."""
    lines: list[str] = []
    for section, entries in groupby(_KEYS.items(), key=lambda item: item[0].split(".", 1)[0]):
        lines.append(f"# {section}")
        # A float's str is its repr; a bool lowers to true/false.
        lines.extend(f"{key} = {str(entry.default).lower()}" for key, entry in entries)
        lines.append("")
    return "\n".join(lines)
