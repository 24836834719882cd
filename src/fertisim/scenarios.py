"""The three bundled experiments, wiring model -> camera -> vision -> control -> ledger.

* growth experiment: three 20-plant groups under different nutrient bands,
  captured every 3 days until individual capture stops making sense
  (day limit or overlapping canopies), producing per-group mean-height
  curves that must stay strictly ordered over > normal > under.
* monitoring trace: one representative plant sampled every 15 minutes for
  a 375-minute session under the bundled hot-day demand preset; the wilt
  rule should fire exactly once, at the minute-255 sample.
* fertigation comparison: 60 plants driven by the timer regime, then the
  wilt-triggered regime for 14 days, then the timer again; the ledger
  yields daily liters per regime and the savings fraction, and a parallel
  all-timer control run shows growth is maintained.

Captures are logged at the end of each capture day. All randomness is
hash-derived from the seed, so identical config plus seed reproduces
byte-identical output files.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .config import Config, ConfigError
from .control import Action, ControllerState, Schedule, spa_tick, timer_tick
from .growth import (
    MINUTES_PER_DAY,
    DemandProfile,
    EcBand,
    GrowthParams,
    PlantState,
    advance,
    apply_irrigation,
    irrigation_lag,
    make_seedling,
    plant_rate_scale,
)
from .ledger import PumpModel, WaterLedger, savings
from .ppm import write_ppm
from .render import CameraConfig, capture_distance, overlap_flag, render
from .vision import Morphometry, NoPlantDetected, measure, segment

log = logging.getLogger(__name__)

# Group-index streams for the per-plant jitter hash.
_GROWTH_GROUPS = [("under", EcBand.UNDER), ("normal", EcBand.NORMAL), ("over", EcBand.OVER)]
_COMPARE_GROUP_INDEX = 3


@dataclass(frozen=True)
class TraceRow:
    timestamp_min: float
    plant_id: int
    height_cm: float
    width_cm: float
    wilt_degree: float
    gradient_sign: int
    command: str
    liters_to_date: float


@dataclass(frozen=True)
class PumpEvent:
    sample_index: int
    timestamp_min: float
    offset_min: float  # minutes since session start


@dataclass
class GrowthResult:
    capture_days: list[int]
    group_labels: list[str]
    means: dict[str, list[float]]
    ordering_checked: bool
    ordering_ok: bool
    overlap_stop_day: int | None
    skipped_samples: int


@dataclass
class MonitorResult:
    rows: list[TraceRow]
    events: list[PumpEvent]
    sample_interval_min: int
    skipped_samples: int


@dataclass
class CompareResult:
    savings_fraction: float
    timer_mean_l_per_day: float
    auto_mean_l_per_day: float
    heights: list[tuple[int, float, float]]  # (capture_day, mean_height_cm, mean_width_cm)
    control_heights: list[tuple[int, float, float]]
    auto_increment_cm: float
    control_increment_cm: float
    events: list[PumpEvent]
    rows: list[TraceRow]
    savings_ok: bool
    growth_ok: bool
    auto_activations: int
    skipped_samples: int


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _measure_plant(plant: PlantState, cam: CameraConfig, distance_cm: float,
                   timestamp_min: float, cfg: Config,
                   growth_params: GrowthParams) -> Morphometry:
    frame, _ = render(plant, cam, distance_cm, timestamp_min, growth_params)
    mask = segment(frame, cfg["vision.red_margin"], cleanup=cam.noise_amplitude > 0)
    return measure(mask, distance_cm, cam, cfg["vision.min_plant_pixels"])


def _gradient_sign(previous: float | None, width: float) -> int:
    if previous is None or previous == width:
        return 0
    return 1 if previous > width else -1


# ---------------------------------------------------------------------------
# Growth experiment
# ---------------------------------------------------------------------------

def run_growth_experiment(cfg: Config, out_dir: str | Path, seed: int | None = None,
                          groups: list[tuple[str, EcBand]] | None = None) -> GrowthResult:
    """Grow three treatment groups and record per-group mean measured heights."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = cfg["sim.seed"]
    gp = cfg.growth_params()
    cam = cfg.camera()
    demand = cfg.demand("growth_exp.peak_loss_rate")
    group_size = cfg["growth_exp.group_size"]
    every = cfg["growth_exp.capture_every_days"]
    total_days = cfg["growth_exp.days"]
    spacing = cfg["growth_exp.spacing_cm"]
    if groups is None:
        groups = _GROWTH_GROUPS
    canonical = [band for _, band in groups] == [b for _, b in _GROWTH_GROUPS]

    plants: list[list[PlantState]] = [
        [make_seedling(gp, band, plant_rate_scale(seed, gi, i, gp)) for i in range(group_size)]
        for gi, (_, band) in enumerate(groups)
    ]

    labels = [label for label, _ in groups]
    means: dict[str, list[float]] = {label: [] for label in labels}
    capture_days: list[int] = []
    ordering_ok = True
    overlap_stop_day = None
    skipped = 0
    rows: list[list[str]] = []

    t = 0.0
    for day in range(0, total_days, every):
        t_cap = (day + 1) * MINUTES_PER_DAY
        clock = t % MINUTES_PER_DAY
        plants = [[advance(p, t_cap - t, demand, clock, gp) for p in grp] for grp in plants]
        t = t_cap
        distance = capture_distance(day)

        everyone = [p for grp in plants for p in grp]
        if overlap_flag(everyone, spacing, gp):
            overlap_stop_day = day
            log.info("individual capture stopped at day %d: canopies wider than %.0f cm spacing",
                     day, spacing)
            break

        day_means: list[float] = []
        for grp in plants:
            heights = []
            for p in grp:
                try:
                    m = _measure_plant(p, cam, distance, t_cap, cfg, gp)
                    heights.append(m.height_cm)
                except NoPlantDetected as exc:
                    skipped += 1
                    log.warning("day %d: sample skipped (%s)", day, exc)
            day_means.append(sum(heights) / len(heights) if heights else math.nan)

        capture_days.append(day)
        for label, value in zip(labels, day_means):
            means[label].append(value)
        if canonical:
            under, normal, over = day_means
            if not (over > normal > under):
                ordering_ok = False
        rows.append([str(day), _fmt(distance)] + [_fmt(v) for v in day_means])

    _write_csv(out / "growth_means.csv",
               ["capture_day", "distance_cm"] + [f"{label}_mean_cm" for label in labels],
               rows)
    summary = [
        f"capture_days = {len(capture_days)}",
        f"overlap_stop_day = {overlap_stop_day if overlap_stop_day is not None else 'none'}",
        f"skipped_samples = {skipped}",
        f"ordering_ok = {str(ordering_ok).lower() if canonical else 'not_checked'}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    return GrowthResult(
        capture_days=capture_days,
        group_labels=labels,
        means=means,
        ordering_checked=canonical,
        ordering_ok=ordering_ok,
        overlap_stop_day=overlap_stop_day,
        skipped_samples=skipped,
    )


# ---------------------------------------------------------------------------
# Real-time monitoring trace
# ---------------------------------------------------------------------------

def run_monitoring_trace(cfg: Config, out_dir: str | Path, seed: int | None = None) -> MonitorResult:
    """Sample one plant through a monitoring session and drive the wilt rule."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = cfg["sim.seed"]
    gp = cfg.growth_params()
    cam = cfg.camera()
    demand = cfg.demand("monitor.peak_loss_rate")
    interval = cfg["monitor.sample_interval_min"]
    count = cfg["monitor.sample_count"]
    start_day = cfg["monitor.start_day"]
    schedule = cfg.schedule(interval)
    pump = PumpModel(cfg["pump.flow_l_per_min"])
    threshold = cfg["control.wilt_threshold"]
    dump_frames = cfg["output.dump_frames"]

    # Grow the representative plant to session age under no demand.
    plant = make_seedling(gp, EcBand.NORMAL)
    if start_day > 0:
        plant = advance(plant, start_day * MINUTES_PER_DAY, DemandProfile(), 0.0, gp)
    distance = capture_distance(start_day)

    state = ControllerState()
    ledger = WaterLedger()
    rows: list[TraceRow] = []
    events: list[PumpEvent] = []
    skipped = 0
    frames_dir = out / "frames"
    if dump_frames:
        frames_dir.mkdir(exist_ok=True)

    start_min = start_day * MINUTES_PER_DAY + schedule.window_start_min
    t = plant.age_min
    for k in range(count):
        now = start_min + k * interval
        if now > t:
            plant = advance(plant, now - t, demand, t % MINUTES_PER_DAY, gp)
            t = now
        try:
            frame, _ = render(plant, cam, distance, now, gp)
            if dump_frames:
                write_ppm(frame, str(frames_dir / f"sample_{k:03d}.ppm"))
            mask = segment(frame, cfg["vision.red_margin"], cleanup=cam.noise_amplitude > 0)
            morpho = measure(mask, distance, cam, cfg["vision.min_plant_pixels"])
        except NoPlantDetected as exc:
            skipped += 1
            log.warning("sample %d skipped (%s)", k, exc)
            continue

        previous = state.previous_width_cm if state.last_sample_day == int(now // MINUTES_PER_DAY) else None
        state, cmd = spa_tick(state, morpho.width_cm, now, schedule, threshold)
        ledger.accrue(cmd, now, pump, regime="auto")
        if cmd.action is Action.ON:
            events.append(PumpEvent(k, now, float(k * interval)))
            plant = apply_irrigation(plant, now, irrigation_lag(seed, now, gp))
        rows.append(TraceRow(
            timestamp_min=now,
            plant_id=0,
            height_cm=morpho.height_cm,
            width_cm=morpho.width_cm,
            wilt_degree=(state.reference_width_cm - morpho.width_cm) / state.reference_width_cm,
            gradient_sign=_gradient_sign(previous, morpho.width_cm),
            command=cmd.action.value,
            liters_to_date=ledger.total_liters(),
        ))

    _write_trace_csv(out / "trace.csv", rows)
    _write_events_csv(out / "pump_events.csv", events)
    summary = [
        f"samples = {len(rows)}",
        f"pump_events = {len(events)}",
        "event_offsets_min = " + (";".join(str(int(e.offset_min)) for e in events) or "none"),
        f"liters_total = {_fmt(ledger.total_liters())}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return MonitorResult(rows=rows, events=events, sample_interval_min=interval,
                         skipped_samples=skipped)


def _write_trace_csv(path: Path, rows: list[TraceRow]) -> None:
    _write_csv(path,
               ["timestamp_min", "plant_id", "height_cm", "width_cm", "wilt_degree",
                "gradient_sign", "command", "liters_to_date"],
               [[str(int(r.timestamp_min)), str(r.plant_id), _fmt(r.height_cm),
                 _fmt(r.width_cm), _fmt(r.wilt_degree), str(r.gradient_sign),
                 r.command, _fmt(r.liters_to_date)] for r in rows])


def _write_events_csv(path: Path, events: list[PumpEvent]) -> None:
    _write_csv(path,
               ["sample_index", "timestamp_min", "offset_min"],
               [[str(e.sample_index), str(int(e.timestamp_min)), str(int(e.offset_min))]
                for e in events])


# ---------------------------------------------------------------------------
# Fertigation comparison
# ---------------------------------------------------------------------------

def run_fertigation_comparison(cfg: Config, out_dir: str | Path,
                               seed: int | None = None) -> CompareResult:
    """Timer vs wilt-triggered regimes over one 60-plant population, plus an all-timer control."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = cfg["sim.seed"]
    _check_timeline(cfg)

    main = _simulate_population(cfg, seed, all_timer=False)
    control = _simulate_population(cfg, seed, all_timer=True)

    ledger: WaterLedger = main["ledger"]
    timer_mean = ledger.mean_liters_per_day("timer")
    auto_mean = ledger.mean_liters_per_day("auto")
    saved = savings(timer_mean, auto_mean)

    auto_inc, ctrl_inc = _auto_period_increments(cfg, main["heights"], control["heights"])
    growth_ok = abs(auto_inc - ctrl_inc) <= 0.10 * abs(ctrl_inc) if ctrl_inc else auto_inc == 0.0
    savings_ok = saved > 0.80

    _write_csv(out / "heights.csv",
               ["capture_day", "mean_height_cm", "mean_width_cm"],
               [[str(d), _fmt(h), _fmt(w)] for d, h, w in main["heights"]])
    _write_csv(out / "control_heights.csv",
               ["capture_day", "mean_height_cm", "mean_width_cm"],
               [[str(d), _fmt(h), _fmt(w)] for d, h, w in control["heights"]])
    _write_csv(out / "daily_usage.csv",
               ["day", "regime", "activations", "liters"],
               [[str(r.day), r.regime, str(r.activations), _fmt(r.liters)]
                for r in ledger.rows()])
    _write_trace_csv(out / "trace.csv", main["rows"])
    _write_events_csv(out / "pump_events.csv", main["events"])

    auto_activations = sum(r.activations for r in ledger.rows() if r.regime == "auto")
    summary = [
        f"timer_mean_l_per_day = {_fmt(timer_mean)}",
        f"auto_mean_l_per_day = {_fmt(auto_mean)}",
        f"savings_fraction = {_fmt(saved)}",
        f"savings_percent = {saved * 100.0:.1f}",
        f"auto_activations_total = {auto_activations}",
        f"auto_growth_increment_cm = {_fmt(auto_inc)}",
        f"control_growth_increment_cm = {_fmt(ctrl_inc)}",
        f"savings_above_0.80 = {str(savings_ok).lower()}",
        f"growth_within_band = {str(growth_ok).lower()}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    return CompareResult(
        savings_fraction=saved,
        timer_mean_l_per_day=timer_mean,
        auto_mean_l_per_day=auto_mean,
        heights=main["heights"],
        control_heights=control["heights"],
        auto_increment_cm=auto_inc,
        control_increment_cm=ctrl_inc,
        events=main["events"],
        rows=main["rows"],
        savings_ok=savings_ok,
        growth_ok=growth_ok,
        auto_activations=auto_activations,
        skipped_samples=main["skipped"],
    )


def _check_timeline(cfg: Config) -> None:
    # Contiguity of the regime timeline; parse_config already bounds the keys,
    # but a config assembled by hand must fail before simulation starts.
    if not (1 <= cfg["compare.auto_start_day"] <= cfg["compare.auto_end_day"]
            <= cfg["compare.total_days"]):
        raise ConfigError("comparison regime timeline has gaps or overlaps")


def _simulate_population(cfg: Config, seed: int, all_timer: bool) -> dict:
    gp = cfg.growth_params()
    cam = cfg.camera()
    demand = cfg.demand("demand.peak_loss_rate")
    n_plants = cfg["compare.plants"]
    total_days = cfg["compare.total_days"]
    auto_start = cfg["compare.auto_start_day"]
    auto_end = cfg["compare.auto_end_day"]
    capture_every = cfg["compare.capture_every_days"]
    schedule = cfg.schedule(cfg["compare.sample_interval_min"])
    pump = PumpModel(cfg["pump.flow_l_per_min"])
    threshold = cfg["control.wilt_threshold"]

    plants = [make_seedling(gp, EcBand.NORMAL, plant_rate_scale(seed, _COMPARE_GROUP_INDEX, i, gp))
              for i in range(n_plants)]
    state = ControllerState()
    ledger = WaterLedger()
    rows: list[TraceRow] = []
    events: list[PumpEvent] = []
    heights: list[tuple[int, float, float]] = []
    skipped = 0
    auto_start_min = (auto_start - 1) * MINUTES_PER_DAY

    t = 0.0

    def advance_all(to_min: float) -> None:
        nonlocal plants, t
        if to_min > t:
            clock = t % MINUTES_PER_DAY
            dt = to_min - t
            plants = [advance(p, dt, demand, clock, gp) for p in plants]
            t = to_min

    def irrigate_all(now: float) -> None:
        nonlocal plants
        lag = irrigation_lag(seed, now, gp)
        plants = [apply_irrigation(p, now, lag) for p in plants]

    for day in range(total_days):
        auto = (not all_timer) and auto_start <= day + 1 <= auto_end
        regime = "auto" if auto else "timer"
        ledger.register_day(day, regime)

        for now in schedule.sample_times(day):
            advance_all(now)
            if not auto:
                cmd = timer_tick(schedule, now)
                ledger.accrue(cmd, now, pump, regime)
                if cmd.action is Action.ON:
                    irrigate_all(now)
                continue

            distance = capture_distance(day)
            try:
                morpho = _measure_plant(plants[0], cam, distance, now, cfg, gp)
            except NoPlantDetected as exc:
                skipped += 1
                log.warning("day %d minute %d: representative sample skipped (%s)",
                            day, int(now), exc)
                continue
            previous = (state.previous_width_cm
                        if state.last_sample_day == int(now // MINUTES_PER_DAY) else None)
            state, cmd = spa_tick(state, morpho.width_cm, now, schedule, threshold)
            ledger.accrue(cmd, now, pump, regime)
            if cmd.action is Action.ON:
                events.append(PumpEvent(len(rows), now, now - auto_start_min))
                irrigate_all(now)
            rows.append(TraceRow(
                timestamp_min=now,
                plant_id=0,
                height_cm=morpho.height_cm,
                width_cm=morpho.width_cm,
                wilt_degree=(state.reference_width_cm - morpho.width_cm) / state.reference_width_cm,
                gradient_sign=_gradient_sign(previous, morpho.width_cm),
                command=cmd.action.value,
                liters_to_date=ledger.total_liters(),
            ))

        if day % capture_every == 0:
            t_cap = (day + 1) * MINUTES_PER_DAY
            advance_all(t_cap)
            distance = capture_distance(day)
            hs, ws = [], []
            for p in plants:
                try:
                    m = _measure_plant(p, cam, distance, t_cap, cfg, gp)
                    hs.append(m.height_cm)
                    ws.append(m.width_cm)
                except NoPlantDetected as exc:
                    skipped += 1
                    log.warning("capture day %d: sample skipped (%s)", day, exc)
            if hs:
                heights.append((day, sum(hs) / len(hs), sum(ws) / len(ws)))

    ledger.mark_complete_through(total_days * MINUTES_PER_DAY)
    return {"ledger": ledger, "rows": rows, "events": events, "heights": heights,
            "skipped": skipped}


def _auto_period_increments(cfg: Config, heights: list[tuple[int, float, float]],
                            control_heights: list[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean-height increment across the wilt-controlled period, in both runs.

    Uses the captures closest to the period boundaries (capture ages are
    day + 1; the period spans ages [auto_start - 1, auto_end]).
    """
    auto_start = cfg["compare.auto_start_day"]
    auto_end = cfg["compare.auto_end_day"]
    start_age = auto_start - 1
    end_age = auto_end

    def increment(series: list[tuple[int, float, float]]) -> float:
        ages = [d + 1 for d, _, _ in series]
        lo = max((i for i, a in enumerate(ages) if a <= start_age), default=0)
        hi = max((i for i, a in enumerate(ages) if a <= end_age), default=len(series) - 1)
        return series[hi][1] - series[lo][1]

    return increment(heights), increment(control_heights)
