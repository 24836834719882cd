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

Each group, and each comparison run, is one population ``PlantState``: one
pump waters the whole population, so its plants share turgor and differ only
in height, width and growth rate. The timer regime runs on its own clock
(one tick per timer period); the camera samples only on wilt-controlled
days. Captures are logged at the end of each capture day. All randomness is
hash-derived from the seed, so identical config plus seed reproduces
byte-identical output files.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import Config
from .control import Action, ControllerState, Schedule, spa_tick, timer_tick, wilt_degree
from .growth import (
    MINUTES_PER_DAY,
    DemandProfile,
    EcBand,
    GrowthParams,
    PlantState,
    advance,
    apply_irrigation,
    effective_width,
    irrigation_lag,
    make_seedling,
    plant_rate_scale,
)
from .ledger import WaterLedger, savings
from .ppm import write_ppm
from .render import capture_distance, overlap_flag, render
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


def _gradient_sign(previous: float | None, width: float) -> int:
    if previous is None or previous == width:
        return 0
    return 1 if previous > width else -1


def _population(gp: GrowthParams, band: EcBand, seed: int, group_index: int,
                n_plants: int) -> PlantState:
    """Seedling population of one treatment group, with each plant's seeded rate jitter."""
    scales = np.array([plant_rate_scale(seed, group_index, i, gp) for i in range(n_plants)])
    return make_seedling(gp, band, scales)


@dataclass
class _Run:
    """One scenario run: its settings plus the controller state, ledger and trace it builds.

    Every scenario is made of three steps on a population: ``step_to`` a
    later instant, ``wilt_sample`` (one camera sample under the wilt rule)
    and ``capture`` (measure every plant at the end of a day).
    """

    cfg: Config
    seed: int
    demand: DemandProfile
    schedule: Schedule
    state: ControllerState = field(default_factory=ControllerState)
    ledger: WaterLedger = field(default_factory=WaterLedger)
    rows: list[TraceRow] = field(default_factory=list)
    events: list[PumpEvent] = field(default_factory=list)
    skipped: int = 0

    def __post_init__(self):
        self.gp = self.cfg.growth_params()
        self.cam = self.cfg.camera()
        self.flow_l_per_min = self.cfg["pump.flow_l_per_min"]

    def step_to(self, pop: PlantState, to_min: float) -> PlantState:
        """``pop`` advanced to absolute minute ``to_min``; unchanged if it is already there."""
        if to_min <= pop.age_min:
            return pop
        return advance(pop, to_min - pop.age_min, self.demand, params=self.gp)

    def irrigate(self, pop: PlantState, now: float) -> PlantState:
        return apply_irrigation(pop, now, irrigation_lag(self.seed, now, self.gp))

    def measure_plant(self, height_cm: float, width_cm: float, day: int,
                      ppm_path: Path | None = None) -> Morphometry:
        """Render one plant at the day's camera distance, save the frame if asked, measure it.

        ``width_cm`` is the plant's visible canopy width.
        """
        distance = capture_distance(day)
        frame, _ = render(height_cm, width_cm, self.cam, distance)
        if ppm_path is not None:
            write_ppm(frame, str(ppm_path))
        mask = segment(frame, self.cfg["vision.red_margin"], cleanup=self.cam.noise_amplitude > 0)
        return measure(mask, distance, self.cam, self.cfg["vision.min_plant_pixels"])

    def wilt_sample(self, pop: PlantState, now: float, sample_index: int, start_min: float,
                    ppm_path: Path | None = None) -> PlantState:
        """Measure plant 0, tick the wilt rule, account the water and log a trace row.

        On ON the whole population is irrigated and a pump event is logged at
        ``now - start_min`` minutes into the session. Returns the population.
        """
        day = int(now // MINUTES_PER_DAY)
        try:
            morpho = self.measure_plant(pop.height_cm[0], effective_width(pop, self.gp)[0], day,
                                        ppm_path)
        except NoPlantDetected as exc:
            self.skipped += 1
            log.warning("day %d minute %d: representative sample skipped (%s)",
                        day, int(now), exc)
            return pop
        previous = self.state.previous_width_cm if self.state.last_sample_day == day else None
        self.state, cmd = spa_tick(self.state, morpho.width_cm, now, self.schedule,
                                   self.cfg["control.wilt_threshold"])
        self.ledger.accrue(cmd, now, self.flow_l_per_min, regime="auto")
        if cmd.action is Action.ON:
            self.events.append(PumpEvent(sample_index, now, now - start_min))
            pop = self.irrigate(pop, now)
        self.rows.append(TraceRow(
            timestamp_min=now,
            plant_id=0,
            height_cm=morpho.height_cm,
            width_cm=morpho.width_cm,
            wilt_degree=wilt_degree(self.state.reference_width_cm, morpho.width_cm),
            gradient_sign=_gradient_sign(previous, morpho.width_cm),
            command=cmd.action.value,
            liters_to_date=self.ledger.total_liters(),
        ))
        return pop

    def capture(self, pop: PlantState, day: int) -> tuple[float, float]:
        """Mean measured height and width over every plant of ``pop``; NaN if none was measured."""
        hs, ws = [], []
        for height, width in zip(pop.height_cm, effective_width(pop, self.gp)):
            try:
                m = self.measure_plant(height, width, day)
            except NoPlantDetected as exc:
                self.skipped += 1
                log.warning("capture day %d: sample skipped (%s)", day, exc)
                continue
            hs.append(m.height_cm)
            ws.append(m.width_cm)
        if not hs:
            return math.nan, math.nan
        return sum(hs) / len(hs), sum(ws) / len(ws)


# ---------------------------------------------------------------------------
# Growth experiment
# ---------------------------------------------------------------------------

def run_growth_experiment(cfg: Config, out_dir: str | Path,
                          seed: int | None = None) -> GrowthResult:
    """Grow three treatment groups and record per-group mean measured heights."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = cfg["sim.seed"]
    group_size = cfg["growth_exp.group_size"]
    every = cfg["growth_exp.capture_every_days"]
    total_days = cfg["growth_exp.days"]
    spacing = cfg["growth_exp.spacing_cm"]

    run = _Run(cfg, seed, cfg.demand("growth_exp.peak_loss_rate"), cfg.schedule())
    pops = [_population(run.gp, band, seed, gi, group_size)
            for gi, (_, band) in enumerate(_GROWTH_GROUPS)]

    labels = [label for label, _ in _GROWTH_GROUPS]
    means: dict[str, list[float]] = {label: [] for label in labels}
    capture_days: list[int] = []
    ordering_ok = True
    overlap_stop_day = None
    rows: list[list[str]] = []

    for day in range(0, total_days, every):
        pops = [run.step_to(pop, (day + 1) * MINUTES_PER_DAY) for pop in pops]
        if any(overlap_flag(effective_width(pop, run.gp), spacing) for pop in pops):
            overlap_stop_day = day
            log.info("individual capture stopped at day %d: canopies wider than %.0f cm spacing",
                     day, spacing)
            break

        day_means = [run.capture(pop, day)[0] for pop in pops]
        capture_days.append(day)
        for label, value in zip(labels, day_means):
            means[label].append(value)
        under, normal, over = day_means
        if not (over > normal > under):
            ordering_ok = False
        rows.append([str(day), _fmt(capture_distance(day))] + [_fmt(v) for v in day_means])

    _write_csv(out / "growth_means.csv",
               ["capture_day", "distance_cm"] + [f"{label}_mean_cm" for label in labels],
               rows)
    summary = [
        f"capture_days = {len(capture_days)}",
        f"overlap_stop_day = {overlap_stop_day if overlap_stop_day is not None else 'none'}",
        f"skipped_samples = {run.skipped}",
        f"ordering_ok = {str(ordering_ok).lower()}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")

    return GrowthResult(
        capture_days=capture_days,
        group_labels=labels,
        means=means,
        ordering_ok=ordering_ok,
        overlap_stop_day=overlap_stop_day,
        skipped_samples=run.skipped,
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
    interval = cfg["monitor.sample_interval_min"]
    count = cfg["monitor.sample_count"]
    start_day = cfg["monitor.start_day"]
    dump_frames = cfg["output.dump_frames"]
    run = _Run(cfg, seed, cfg.demand("monitor.peak_loss_rate"), cfg.schedule(interval))

    # Grow the representative plant (a population of one) to session age under no demand.
    plant = make_seedling(run.gp, EcBand.NORMAL, np.ones(1))
    if start_day > 0:
        no_demand = replace(run.demand, peak_loss_rate=0.0)
        plant = advance(plant, start_day * MINUTES_PER_DAY, no_demand, params=run.gp)

    frames_dir = out / "frames"
    if dump_frames:
        frames_dir.mkdir(exist_ok=True)

    start_min = start_day * MINUTES_PER_DAY + run.schedule.window_start_min
    for k in range(count):
        now = start_min + k * interval
        ppm_path = frames_dir / f"sample_{k:03d}.ppm" if dump_frames else None
        plant = run.wilt_sample(run.step_to(plant, now), now, k, start_min, ppm_path)

    _write_trace_csv(out / "trace.csv", run.rows)
    _write_events_csv(out / "pump_events.csv", run.events)
    summary = [
        f"samples = {len(run.rows)}",
        f"pump_events = {len(run.events)}",
        "event_offsets_min = " + (";".join(str(int(e.offset_min)) for e in run.events) or "none"),
        f"liters_total = {_fmt(run.ledger.total_liters())}",
    ]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return MonitorResult(rows=run.rows, events=run.events, sample_interval_min=interval,
                         skipped_samples=run.skipped)


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

    main, heights = _simulate_population(cfg, seed, all_timer=False)
    _, control_heights = _simulate_population(cfg, seed, all_timer=True)

    ledger = main.ledger
    timer_mean = ledger.mean_liters_per_day("timer")
    auto_mean = ledger.mean_liters_per_day("auto")
    saved = savings(timer_mean, auto_mean)

    auto_inc, ctrl_inc = _auto_period_increments(cfg, heights, control_heights)
    growth_ok = abs(auto_inc - ctrl_inc) <= 0.10 * abs(ctrl_inc) if ctrl_inc else auto_inc == 0.0
    savings_ok = saved > 0.80

    _write_csv(out / "heights.csv",
               ["capture_day", "mean_height_cm", "mean_width_cm"],
               [[str(d), _fmt(h), _fmt(w)] for d, h, w in heights])
    _write_csv(out / "control_heights.csv",
               ["capture_day", "mean_height_cm", "mean_width_cm"],
               [[str(d), _fmt(h), _fmt(w)] for d, h, w in control_heights])
    _write_csv(out / "daily_usage.csv",
               ["day", "regime", "activations", "liters"],
               [[str(r.day), r.regime, str(r.activations), _fmt(r.liters)]
                for r in ledger.rows()])
    _write_trace_csv(out / "trace.csv", main.rows)
    _write_events_csv(out / "pump_events.csv", main.events)

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
        heights=heights,
        control_heights=control_heights,
        auto_increment_cm=auto_inc,
        control_increment_cm=ctrl_inc,
        events=main.events,
        rows=main.rows,
        savings_ok=savings_ok,
        growth_ok=growth_ok,
        auto_activations=auto_activations,
        skipped_samples=main.skipped,
    )


def _simulate_population(cfg: Config, seed: int,
                         all_timer: bool) -> tuple[_Run, list[tuple[int, float, float]]]:
    """One compare population through the regime timeline; returns the run and its captures.

    Timer days step the population from timer instant to timer instant;
    wilt-controlled days step it from camera sample to camera sample.
    """
    total_days = cfg["compare.total_days"]
    auto_start = cfg["compare.auto_start_day"]
    auto_end = cfg["compare.auto_end_day"]
    capture_every = cfg["compare.capture_every_days"]
    run = _Run(cfg, seed, cfg.demand("demand.peak_loss_rate"),
               cfg.schedule(cfg["compare.sample_interval_min"]))
    schedule = run.schedule
    pop = _population(run.gp, EcBand.NORMAL, seed, _COMPARE_GROUP_INDEX, cfg["compare.plants"])
    heights: list[tuple[int, float, float]] = []
    auto_start_min = (auto_start - 1) * MINUTES_PER_DAY

    for day in range(total_days):
        auto = (not all_timer) and auto_start <= day + 1 <= auto_end
        regime = "auto" if auto else "timer"
        run.ledger.register_day(day, regime)

        if auto:
            for now in schedule.sample_times(day):
                pop = run.wilt_sample(run.step_to(pop, now), now, len(run.rows), auto_start_min)
        else:
            for now in schedule.timer_times(day):
                pop = run.step_to(pop, now)
                cmd = timer_tick(schedule, now)
                run.ledger.accrue(cmd, now, run.flow_l_per_min, regime)
                if cmd.action is Action.ON:
                    pop = run.irrigate(pop, now)

        if day % capture_every == 0:
            pop = run.step_to(pop, (day + 1) * MINUTES_PER_DAY)
            mean_h, mean_w = run.capture(pop, day)
            if not math.isnan(mean_h):
                heights.append((day, mean_h, mean_w))

    return run, heights


def _auto_period_increments(cfg: Config, heights: list[tuple[int, float, float]],
                            control_heights: list[tuple[int, float, float]]) -> tuple[float, float]:
    """Mean-height increment across the wilt-controlled period, in both runs.

    Uses the captures closest to the period boundaries (capture ages are
    day + 1; the period spans ages [auto_start - 1, auto_end]).
    """
    if not (heights and control_heights):
        raise NoPlantDetected(
            "no capture day measured a plant: every capture had fewer than "
            f"vision.min_plant_pixels = {cfg['vision.min_plant_pixels']} plant pixels")
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
