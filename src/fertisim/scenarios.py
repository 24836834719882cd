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
by growth rate; sizes are evaluated only where the camera looks. The timer
regime runs on its own clock (one tick per timer period); the camera samples
only on wilt-controlled days. Captures are logged at the end of each capture
day. All randomness is hash-derived from ``sim.seed``, so identical config
plus seed reproduces byte-identical output files.
"""

from __future__ import annotations

import copy
import logging
import math
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import Config
from .control import Action, ControllerState, Schedule, spa_tick, timer_tick
from .growth import (
    MINUTES_PER_DAY,
    DemandProfile,
    EcBand,
    PlantState,
    advance,
    apply_irrigation,
    irrigation_lags,
    make_seedling,
    rate_scales,
    sizes,
)
from .ledger import WaterLedger, savings
from .ppm import write_ppm
from .render import Frame, RowMask, capture_distance, project, render
from .vision import Morphometry, NoPlantDetected, measure, segment

log = logging.getLogger(__name__)

# Group-index stream of the comparison's plants for the per-plant jitter hash;
# the growth experiment's groups take the index of their band in ``EcBand``.
_COMPARE_GROUP_INDEX = 3
_WINDOW = 16  # wilt-rule sample instants projected at once: one ``render.project`` pass
_DUMP_THREADS = 2  # threads drawing and writing dumped frames; also the frames in flight


@dataclass
class ScenarioResult:
    """What a scenario returns; everything else it found is in its output files.

    ``report`` is the one line the CLI prints to stdout, ``failures`` the
    messages of the built-in checks that failed, in order, and
    ``skipped_samples`` the samples skipped for too few plant pixels (the
    comparison's main run and all-timer control together).
    ``events`` are the wilt rule's pump events, as ``pump_events.csv``'s rows
    of cells (none in the growth experiment); ``savings_fraction`` is the
    comparison's alone.
    """

    report: str
    failures: list[str]
    skipped_samples: int
    events: list[list[str]] = field(default_factory=list)
    savings_fraction: float | None = None


def _fmt(x: float) -> str:
    return f"{x:.6f}"


class _FrameDump:
    """Writes a run's frames to ``frames_dir`` as ``sample_KKK.ppm``, each drawn and written on
    one of ``_DUMP_THREADS`` worker threads, frame ``k`` on thread ``k % _DUMP_THREADS``.

    The control loop reads a frame's pixels only when its colours may change
    class under the noise; otherwise they are read only to be written, so
    their draw (mostly numpy code that releases the GIL) and write run off
    the loop. ``save`` first waits for the oldest frame if ``_DUMP_THREADS``
    are waiting, so each thread holds one frame's buffer at a time, and
    draws and frees it itself. A frame's task draws it, then waits for the
    frame before it, whose failure it re-raises unwritten; so after a failed
    draw or write every later task fails the same way and no later frame
    reaches the disk, as in a serial run. ``save`` and ``close`` raise that
    failure. ``close`` waits for every frame and stops the threads.
    """

    def __init__(self, frames_dir: Path):
        from concurrent.futures import ThreadPoolExecutor  # only a run that dumps frames needs it

        # numpy loads ``np.random`` on first use. Load it on this thread: on a
        # worker, the import's allocations would stay in that thread's malloc
        # arena beside its frame buffers and raise the peak RSS.
        np.random  # noqa: B018

        frames_dir.mkdir(exist_ok=True)
        self.frames_dir = frames_dir
        self._threads = [ThreadPoolExecutor(1, thread_name_prefix="fertisim-dump")
                         for _ in range(_DUMP_THREADS)]
        self._waiting = deque()  # each waiting frame's future, oldest first

    def save(self, frame: Frame, k: int) -> None:
        if len(self._waiting) == _DUMP_THREADS:
            self._waiting.popleft().result()
        path = str(self.frames_dir / f"sample_{k:03d}.ppm")
        previous = self._waiting[-1] if self._waiting else None

        def draw_and_write() -> None:
            frame.pixels  # drawn before the wait, alongside the earlier frame
            if previous is not None:
                previous.result()  # an earlier frame's failure fails this one, unwritten
            write_ppm(frame, path)  # the name bound in this module

        self._waiting.append(self._threads[k % _DUMP_THREADS].submit(draw_and_write))

    def close(self) -> None:
        try:
            while self._waiting:
                self._waiting.popleft().result()
        finally:
            for thread in self._threads:
                thread.shutdown()


@dataclass
class _Run:
    """One scenario run: its settings plus the controller state, ledger and trace it builds.

    The growth experiment and the comparison make their seedlings with
    ``population``; the monitor makes its one plant with ``make_seedling``.
    The scenarios drive them with three steps: ``step_to`` a later instant (one
    ``growth.advance`` call, as is a compare timer day and a wilt look-ahead window),
    ``wilt_samples`` (a day's camera samples under the wilt rule) and
    ``capture`` (project every plant at the end of a day in one
    ``render.project`` call, then measure each).
    A monitoring run that dumps frames saves each wilt sample's frame through
    ``frames``.
    """

    cfg: Config
    demand: DemandProfile
    schedule: Schedule
    state: ControllerState = field(default_factory=ControllerState)
    ledger: WaterLedger = field(default_factory=WaterLedger)
    rows: list[list[str]] = field(default_factory=list)  # trace.csv's rows, as cells
    events: list[list[str]] = field(default_factory=list)  # pump_events.csv's rows, as cells
    skipped: int = 0
    frames: _FrameDump | None = None

    def __post_init__(self):
        self.seed = self.cfg["sim.seed"]
        self.gp = self.cfg.growth_params()
        self.cam = self.cfg.camera()
        self.flow_l_per_min = self.cfg["pump.flow_l_per_min"]

    def population(self, band: EcBand, group_index: int, n_plants: int) -> PlantState:
        """Seedling population of one treatment group, with each plant's seeded rate jitter."""
        return make_seedling(self.gp, band, rate_scales(self.seed, group_index, n_plants, self.gp))

    def step_to(self, pop: PlantState, to_min: float) -> PlantState:
        """``pop`` advanced to absolute minute ``to_min``; as it was if it is already there."""
        return advance(pop, (to_min,), self.demand, self.gp)[2]

    def check_volume(self) -> None:
        """ValueError unless the total pumped is finite: then, all accruals being >= 0, all is."""
        if not math.isfinite(self.ledger.total_liters()):
            raise ValueError("pumped volume overflows to inf liters: lower pump.flow_l_per_min "
                             "or control.pump_on_min")

    def measure_frame(self, runs: RowMask, day: int, distance: float, key: tuple[float, int],
                      sample: int | None = None) -> Morphometry | None:
        """Frame a silhouette projected from ``distance`` (noise keyed by ``key``: minute, plant)
        and measure it; None for a skipped sample (too few plant pixels), counted and logged. A
        ``sample`` frame then goes to ``frames`` as frame ``sample``, if the run dumps frames."""
        frame, _ = render(runs, self.cam, key)
        mask = segment(frame, self.cfg["vision.red_margin"], cleanup=self.cam.noise_amplitude > 0)
        if sample is not None and self.frames is not None:
            self.frames.save(frame, sample)
        try:
            return measure(mask, distance, self.cam, self.cfg["vision.min_plant_pixels"])
        except NoPlantDetected as exc:
            self.skipped += 1
            log.info("day %d minute %d plant %d: sample skipped (%s)", day, *key, exc)
            return None

    def wilt_samples(self, pop: PlantState, times: range, start_min: float,
                     by_sample: bool = False) -> PlantState:
        """Run the wilt rule at one day's sample ``times``; returns the population.

        Each sample frames plant 0 (frame k goes to ``frames``, if the run dumps them) and ticks
        the rule; an ON irrigates and logs a pump event ``now - start_min`` minutes into the
        session, numbered by its sample if ``by_sample``, else by its trace row. Up to
        ``_WINDOW`` instants are stepped as if the pump stays off (one ``advance``) and
        projected in one pass; an ON drops the rest, and only its instant's state is built. A
        window that raises ValueError is redone one instant at a time.
        """
        day = int(times.start // MINUTES_PER_DAY)
        distance, k, span = capture_distance(day), 0, _WINDOW
        while k < len(times):
            instants = times[k:k + span]
            ages, turgors, last = advance(pop, instants, self.demand, self.gp)
            plant0 = PlantState(np.array(ages), np.array(turgors), pop.rate_per_min[:1])
            try:
                silhouettes = project(*sizes(plant0, self.gp), self.cam, distance)
            except ValueError:  # a later instant's error may not be the first failing sample's
                if len(instants) == 1:
                    raise
                span = 1
                continue
            for now, age, turgor, runs in zip(instants, ages, turgors, silhouettes):
                sample, k = k, k + 1
                index = sample if by_sample else len(self.rows)
                morpho = self.measure_frame(runs, day, distance, (now, 0), sample)
                if morpho is None:
                    continue
                self.state, cmd = spa_tick(self.state, morpho.width_cm, now, self.schedule,
                                           self.cfg["control.wilt_threshold"])
                self.ledger.accrue(cmd, now, self.flow_l_per_min, regime="auto")
                self.rows.append([  # plant 0
                    str(int(now)), "0", _fmt(morpho.height_cm), _fmt(morpho.width_cm),
                    _fmt(self.state.wilt_degree), str(self.state.gradient_sign),
                    cmd.action.value, _fmt(self.ledger.total_liters())])
                if cmd.action is Action.ON:
                    self.events.append([str(index), str(int(now)), str(int(now - start_min))])
                    pop = apply_irrigation(replace(pop, age_min=age, turgor=turgor), now,
                                           irrigation_lags(self.seed, (now,), self.gp)[0])
                    break
            else:
                pop = last
        return pop

    def capture(self, pop: PlantState, day: int) -> tuple[float, float]:
        """Mean measured height and width of ``pop``'s measured plants; NoPlantDetected if none."""
        minute, distance = (day + 1) * MINUTES_PER_DAY, capture_distance(day)
        silhouettes = project(*sizes(pop, self.gp), self.cam, distance)
        measured = [m for i, runs in enumerate(silhouettes)
                    if (m := self.measure_frame(runs, day, distance, (minute, i))) is not None]
        if not measured:
            raise NoPlantDetected(
                f"capture day {day} measured no plant: every frame had fewer than "
                f"vision.min_plant_pixels = {self.cfg['vision.min_plant_pixels']} plant pixels")
        return (sum(m.height_cm for m in measured) / len(measured),
                sum(m.width_cm for m in measured) / len(measured))


_TRACE_HEADER = ["timestamp_min", "plant_id", "height_cm", "width_cm", "wilt_degree",
                 "gradient_sign", "command", "liters_to_date"]
_EVENTS_HEADER = ["sample_index", "timestamp_min", "offset_min"]


def _finish(out: Path, skipped: int, report: str,
            files: dict[str, tuple[list[str], list[list[str]]]], summary: list[str],
            checks: dict[str, tuple[bool, str]], **result) -> ScenarioResult:
    """Write a finished run's outputs in one step and return its ``ScenarioResult``.

    ``files`` maps each CSV's name to its header and rows of cells. ``summary.txt`` gets the
    ``summary`` lines, then a ``key = true|false`` line per check (key: (passed, failure
    message)); the result holds ``report``, the failed checks' messages in order, the
    ``skipped`` samples and ``result`` (``events``, ``savings_fraction``).
    """
    for name, (header, rows) in files.items():
        lines = [",".join(header)] + [",".join(row) for row in rows]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = summary + [f"{key} = {str(ok).lower()}" for key, (ok, _) in checks.items()]
    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return ScenarioResult(report, [message for ok, message in checks.values() if not ok],
                          skipped, **result)


# ---------------------------------------------------------------------------
# Growth experiment
# ---------------------------------------------------------------------------

def run_growth_experiment(cfg: Config, out_dir: str | Path) -> ScenarioResult:
    """Grow three treatment groups and record per-group mean measured heights."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    group_size = cfg["growth_exp.group_size"]
    every = cfg["growth_exp.capture_every_days"]
    total_days = cfg["growth_exp.days"]
    spacing = cfg["growth_exp.spacing_cm"]

    run = _Run(cfg, cfg.demand("growth_exp.peak_loss_rate"), cfg.schedule())
    pops = [run.population(band, gi, group_size) for gi, band in enumerate(EcBand)]

    overlap_stop_day = None
    ordered = True
    rows: list[list[str]] = []

    for day in range(0, total_days, every):
        pops = [run.step_to(pop, (day + 1) * MINUTES_PER_DAY) for pop in pops]
        # Canopies wider than the row spacing overlap in frame: no plant is captured alone.
        if any(np.any(sizes(pop, run.gp)[1] > spacing) for pop in pops):
            overlap_stop_day = day
            log.info("individual capture stopped at day %d: canopies wider than %.0f cm spacing",
                     day, spacing)
            break

        under, normal, over = day_means = [run.capture(pop, day)[0] for pop in pops]
        ordered = ordered and over > normal > under
        rows.append([str(day), _fmt(capture_distance(day))] + [_fmt(v) for v in day_means])

    header = ["capture_day", "distance_cm"] + [f"{band.value}_mean_cm" for band in EcBand]
    summary = [
        f"capture_days = {len(rows)}",
        f"overlap_stop_day = {overlap_stop_day if overlap_stop_day is not None else 'none'}",
        f"skipped_samples = {run.skipped}",
    ]
    report = f"growth experiment: {len(rows)} capture days, outputs in {out_dir}"
    return _finish(out, run.skipped, report, {"growth_means.csv": (header, rows)}, summary,
                   {"ordering_ok": (ordered, "group mean heights violate over > normal > under")})


# ---------------------------------------------------------------------------
# Real-time monitoring trace
# ---------------------------------------------------------------------------

def run_monitoring_trace(cfg: Config, out_dir: str | Path) -> ScenarioResult:
    """Sample one plant through a monitoring session and drive the wilt rule.

    With ``output.dump_frames`` every sample's frame is written to ``frames/``
    (``_FrameDump``: drawn and written on two worker threads, in order). Every
    frame in flight is written before the session returns or raises, and the
    first failed write is raised as by a serial run, with no later frame on disk.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start_day = cfg["monitor.start_day"]
    run = _Run(cfg, cfg.demand("monitor.peak_loss_rate"), cfg.schedule())

    # The representative plant (a population of one) at session age, fully turgid.
    plant = replace(make_seedling(run.gp, EcBand.NORMAL, np.ones(1)),
                    age_min=start_day * MINUTES_PER_DAY)

    for stale in (out / "frames").glob("sample_*.ppm"):  # an earlier run's frames
        if stale.is_file():
            stale.unlink()
    if cfg["output.dump_frames"]:
        run.frames = _FrameDump(out / "frames")
    times = run.schedule.sample_times(start_day)[:cfg["monitor.sample_count"]]
    try:
        run.wilt_samples(plant, times, times.start, by_sample=True)
    finally:
        if run.frames is not None:
            run.frames.close()
    run.check_volume()

    offsets = [offset for _, _, offset in run.events]
    summary = [
        f"samples = {len(run.rows)}",
        f"pump_events = {len(run.events)}",
        f"event_offsets_min = {';'.join(offsets) or 'none'}",
        f"liters_total = {_fmt(run.ledger.total_liters())}",
    ]
    report = (f"monitoring session: {len(run.rows)} samples, {len(run.events)} pump event(s) "
              f"at minute(s): {', '.join(offsets) or 'none'}")
    return _finish(out, run.skipped, report,
                   {"trace.csv": (_TRACE_HEADER, run.rows),
                    "pump_events.csv": (_EVENTS_HEADER, run.events)},
                   summary, {}, events=run.events)  # no built-in check


# ---------------------------------------------------------------------------
# Fertigation comparison
# ---------------------------------------------------------------------------

def run_fertigation_comparison(cfg: Config, out_dir: str | Path) -> ScenarioResult:
    """Timer vs wilt-triggered regimes over one 60-plant population, plus an all-timer control."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    total_days = cfg["compare.total_days"]
    auto_start = cfg["compare.auto_start_day"] - 1  # the wilt-controlled period's first day
    auto_end = cfg["compare.auto_end_day"]

    main = _Run(cfg, cfg.demand("demand.peak_loss_rate"),
                cfg.schedule(cfg["compare.sample_interval_min"]))
    seedlings = main.population(EcBand.NORMAL, _COMPARE_GROUP_INDEX, cfg["compare.plants"])
    fork, heights, shared = _run_days(main, seedlings, "timer", range(auto_start))
    # The all-timer control's days so far are these: it forks here, with a copy of the ledger.
    control = _Run(cfg, main.demand, main.schedule, ledger=copy.deepcopy(main.ledger))
    pop, auto, _ = _run_days(main, fork, "auto", range(auto_start, auto_end))
    _, late, _ = _run_days(main, pop, "timer", range(auto_end, total_days))
    main.check_volume()
    # The main run ends before the control goes on, so a run's first error is the main run's.
    control_heights = _run_control(control, fork, shared, range(auto_start, total_days))

    ledger = main.ledger
    timer_mean = ledger.mean_liters_per_day("timer")
    auto_mean = ledger.mean_liters_per_day("auto")
    saved = savings(timer_mean, auto_mean)

    # The last capture before the wilt-controlled period and its last; both runs share capture days.
    lo, hi = max(len(heights) - 1, 0), len(heights) + len(auto) - 1
    heights += auto + late
    auto_inc, ctrl_inc = (series[hi][1] - series[lo][1] for series in (heights, control_heights))

    files = {name: (["capture_day", "mean_height_cm", "mean_width_cm"],
                    [[str(d), _fmt(h), _fmt(w)] for d, h, w in series])
             for name, series in zip(("heights.csv", "control_heights.csv"),
                                     (heights, control_heights))}
    files["daily_usage.csv"] = (["day", "regime", "activations", "liters"],
                                [[str(r.day), r.regime, str(r.activations), _fmt(r.liters)]
                                 for r in ledger.rows()])
    files["trace.csv"] = (_TRACE_HEADER, main.rows)
    files["pump_events.csv"] = (_EVENTS_HEADER, main.events)

    auto_activations = sum(r.activations for r in ledger.rows() if r.regime == "auto")
    summary = [
        f"timer_mean_l_per_day = {_fmt(timer_mean)}",
        f"auto_mean_l_per_day = {_fmt(auto_mean)}",
        f"savings_fraction = {_fmt(saved)}",
        f"savings_percent = {saved * 100.0:.1f}",
        f"auto_activations_total = {auto_activations}",
        f"auto_growth_increment_cm = {_fmt(auto_inc)}",
        f"control_growth_increment_cm = {_fmt(ctrl_inc)}",
    ]
    growth_ok = abs(auto_inc - ctrl_inc) <= 0.10 * abs(ctrl_inc) if ctrl_inc else auto_inc == 0.0
    report = (f"comparison: timer {timer_mean:.1f} L/day, auto {auto_mean:.1f} L/day, "
              f"savings {saved * 100.0:.1f}%")
    return _finish(out, main.skipped + control.skipped, report, files, summary, {
        "savings_above_0.80": (saved > 0.80, "savings did not exceed 80%"),
        "growth_within_band": (growth_ok, "growth not maintained within 10% of the timer control"),
    }, events=main.events, savings_fraction=saved)


def _run_days(run: _Run, pop: PlantState, regime: str, days: range
              ) -> tuple[PlantState, list[tuple[int, float, float]], list[tuple[int, PlantState]]]:
    """A compare population ``pop`` run through ``days`` under ``regime``; returns it at the
    end, each capture day's (day, mean height, mean width) and the population measured then.

    A timer day steps the population through its timer instants in one ``advance``,
    irrigating at each; a wilt-controlled ("auto") day steps it through its camera samples
    (``_Run.wilt_samples``), and times pump events from the start of ``days``.
    """
    schedule = run.schedule
    heights, captured = [], []
    for day in days:
        run.ledger.register_day(day, regime)
        if regime == "auto":
            pop = run.wilt_samples(pop, schedule.sample_times(day), days.start * MINUTES_PER_DAY)
        else:
            times = schedule.timer_times(day)
            _, _, pop = advance(pop, times, run.demand, run.gp,
                                irrigation_lags(run.seed, times, run.gp))
            for now in times:
                run.ledger.accrue(timer_tick(schedule), now, run.flow_l_per_min, regime)
        if day % run.cfg["compare.capture_every_days"] == 0:
            pop = run.step_to(pop, (day + 1) * MINUTES_PER_DAY)
            heights.append((day, *run.capture(pop, day)))
            captured.append((day, pop))
    return pop, heights, captured


def _run_control(run: _Run, pop: PlantState, shared: list[tuple[int, PlantState]], days: range
                 ) -> list[tuple[int, float, float]]:
    """The all-timer control's captures, each (day, mean height, mean width).

    The control's days before ``days`` are the main run's: their ``shared`` captures (day,
    population) are measured again, and the timer then runs through ``days`` from the main
    run's ``pop`` and ``run``'s ledger (the main run's, copied) at their end.
    """
    heights = [(day, *run.capture(shared_pop, day)) for day, shared_pop in shared]
    _, later, _ = _run_days(run, pop, "timer", days)
    run.check_volume()
    return heights + later
