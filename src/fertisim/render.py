"""Synthetic camera: plant silhouettes on a red background via pinhole projection.

A plant is drawn as a filled green ellipse canopy sitting on a thin stem
rectangle, centered horizontally with its base on the bottom frame row.
Scale is ``focal_px / distance_cm`` pixels per centimeter. A pixel belongs
to the plant exactly when its center lies inside the silhouette, which
makes rasterization reproducible and gives the vision tests an exact
ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .growth import DEFAULT_GROWTH, GrowthParams, PlantState, effective_width

FRAME_W = 640
FRAME_H = 480

DISTANCE_MIN_CM = 30.0
DISTANCE_MAX_CM = 170.0
DISTANCE_STEP_CM = 10.0
DISTANCE_STEP_DAYS = 3


class FrameFitError(ValueError):
    """Projected plant does not fit the frame; the camera must step back."""


@dataclass(frozen=True)
class CameraConfig:
    focal_px: float = 480.0
    frame_w: int = FRAME_W
    frame_h: int = FRAME_H
    background: tuple[int, int, int] = (255, 0, 0)
    plant_color: tuple[int, int, int] = (0, 160, 0)
    canopy_fraction: float = 0.7  # share of total height taken by the ellipse
    stem_fraction: float = 0.15  # stem width as a share of canopy width
    noise_amplitude: int = 0  # per-channel uniform jitter, 0..255
    noise_seed: int = 0

    def __post_init__(self):
        if self.frame_w != FRAME_W or self.frame_h != FRAME_H:
            raise ValueError(f"frame must be exactly {FRAME_W}x{FRAME_H}")
        if self.focal_px <= 0.0:
            raise ValueError("focal_px must be > 0")
        if not 0 <= self.noise_amplitude <= 255:
            raise ValueError("noise_amplitude must be in 0..255")
        if not 0.0 < self.canopy_fraction < 1.0:
            raise ValueError("canopy_fraction must be in (0, 1)")
        if not 0.0 < self.stem_fraction <= 1.0:
            raise ValueError("stem_fraction must be in (0, 1]")


class Frame:
    """One captured image plus its capture metadata.

    A whole frame (``Frame(pixels=...)``: a noisy render, a PPM read) holds
    its (480, 640, 3) uint8 RGB buffer. A noiseless render holds only what
    it drew: ``silhouette``, the boolean plant mask over the plant's bounding
    box, whose top-left pixel sits at ``origin`` (row, column), and two
    colours, ``plant_color`` where the silhouette is set and ``background``
    everywhere else. ``silhouette`` is None for a whole frame.

    ``pixels`` is the full (480, 640, 3) buffer; for a silhouette frame it is
    built on first access and cached.
    """

    def __init__(self, pixels: np.ndarray | None = None, distance_cm: float = 0.0,
                 timestamp_min: float = 0.0, *, silhouette: np.ndarray | None = None,
                 origin: tuple[int, int] = (0, 0),
                 background: tuple[int, int, int] = (0, 0, 0),
                 plant_color: tuple[int, int, int] = (0, 0, 0)):
        if (pixels is None) == (silhouette is None):
            raise ValueError("give exactly one of pixels and silhouette")
        if pixels is not None:
            if pixels.shape != (FRAME_H, FRAME_W, 3) or pixels.dtype != np.uint8:
                raise ValueError("frame buffer must be 480x640x3 uint8")
        else:
            r, c = origin
            if (silhouette.ndim != 2 or silhouette.dtype != bool or r < 0 or c < 0
                    or r + silhouette.shape[0] > FRAME_H or c + silhouette.shape[1] > FRAME_W):
                raise ValueError("silhouette must be an h x w bool mask inside the 480x640 frame")
        self.silhouette = silhouette
        self.origin = origin
        self.background = background
        self.plant_color = plant_color
        self.distance_cm = distance_cm
        self.timestamp_min = timestamp_min
        self._pixels = pixels

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            full = np.empty((FRAME_H, FRAME_W, 3), dtype=np.uint8)
            r, c = self.origin
            h, w = self.silhouette.shape
            # One strided fill and one masked copy per channel: several times
            # faster than a broadcast fill or a boolean-indexed assignment.
            for ch in range(3):
                full[:, :, ch] = self.background[ch]
                np.copyto(full[r:r + h, c:c + w, ch], self.plant_color[ch], where=self.silhouette)
            self._pixels = full
        return self._pixels


@dataclass(frozen=True)
class GroundTruth:
    """Exact rasterized extents of the drawn silhouette."""

    height_px: int
    width_px: int
    plant_pixel_count: int


def capture_distance(age_days: float) -> float:
    """Camera distance for a plant of the given age: 30 cm plus 10 cm per 3 days, capped at 170."""
    if age_days < 0:
        raise ValueError("age_days must be >= 0")
    return min(DISTANCE_MIN_CM + DISTANCE_STEP_CM * math.floor(age_days / DISTANCE_STEP_DAYS),
               DISTANCE_MAX_CM)


def render(plant: PlantState, cam: CameraConfig, distance_cm: float,
           timestamp_min: float = 0.0,
           growth_params: GrowthParams = DEFAULT_GROWTH) -> tuple[Frame, GroundTruth]:
    """Rasterize one plant seen from ``distance_cm``; returns the frame and ground truth.

    Only the silhouette's bounding box is rasterized: the frame holds that
    boolean mask and the two colours, and builds the full buffer only when
    ``Frame.pixels`` is read. With camera noise the frame is built whole.
    """
    if distance_cm <= 0.0:
        raise ValueError("distance_cm must be > 0")

    scale = cam.focal_px / distance_cm
    height_px = plant.height_cm * scale
    width_px = effective_width(plant, growth_params) * scale
    if height_px > cam.frame_h or width_px > cam.frame_w:
        raise FrameFitError(
            f"plant projects to {height_px:.1f}x{width_px:.1f} px at {distance_cm:.0f} cm; "
            f"frame is {cam.frame_h}x{cam.frame_w}"
        )

    local, r_lo, c_lo = _rasterize(cam, height_px, width_px)

    rows = np.flatnonzero(local.any(axis=1))
    cols = np.flatnonzero(local.any(axis=0))
    truth = GroundTruth(
        height_px=int(rows[-1] - rows[0] + 1),
        width_px=int(cols[-1] - cols[0] + 1),
        plant_pixel_count=int(np.count_nonzero(local)),
    )

    frame = Frame(silhouette=local, origin=(r_lo, c_lo), background=cam.background,
                  plant_color=cam.plant_color, distance_cm=distance_cm,
                  timestamp_min=timestamp_min)
    if cam.noise_amplitude > 0:
        # Noise covers every pixel, so a noisy frame is built whole. The sum is
        # formed in the noise buffer and written back into the frame buffer:
        # each further frame-sized temporary pushed the per-frame peak past
        # glibc's trim threshold, so the heap was trimmed and re-faulted per frame.
        rng = np.random.default_rng(cam.noise_seed)
        noisy = rng.integers(-cam.noise_amplitude, cam.noise_amplitude + 1,
                             size=(cam.frame_h, cam.frame_w, 3), dtype=np.int16)
        pixels = frame.pixels
        noisy += pixels
        np.copyto(pixels, np.clip(noisy, 0, 255, out=noisy), casting="unsafe")
        frame = Frame(pixels=pixels, distance_cm=distance_cm, timestamp_min=timestamp_min)

    return frame, truth


def _rasterize(cam: CameraConfig, height_px: float, width_px: float) -> tuple[np.ndarray, int, int]:
    """Silhouette mask over its bounding box; returns (mask, top row, left column)."""
    # Base line sits on the bottom frame edge, plant centered horizontally.
    y_base = float(cam.frame_h)
    cx = cam.frame_w / 2.0
    canopy_h = cam.canopy_fraction * height_px
    stem_h = height_px - canopy_h
    stem_halfw = 0.5 * cam.stem_fraction * width_px
    a = 0.5 * width_px  # ellipse semi-axis, horizontal
    b = 0.5 * canopy_h
    cy = y_base - stem_h - b

    top = y_base - height_px
    r_lo = max(0, math.ceil(top - 0.5))
    c_lo = max(0, math.ceil(cx - a - 0.5))
    c_hi = min(cam.frame_w - 1, math.floor(cx + a - 0.5))
    if r_lo < cam.frame_h and c_lo <= c_hi:
        ys = np.arange(r_lo, cam.frame_h, dtype=float)[:, None] + 0.5
        xs = np.arange(c_lo, c_hi + 1, dtype=float)[None, :] + 0.5
        stem = (np.abs(xs - cx) <= stem_halfw) & (ys >= y_base - stem_h - 1e-12)
        in_span = np.abs(xs - cx) <= a
        ellipse = ((xs - cx) / a) ** 2 + ((ys - cy) / b) ** 2 <= 1.0 if b > 0.0 else False
        # Full-width equator chord: guarantees the widest row is sampled, so
        # the rasterized width stays within one pixel of the projected width.
        equator = in_span & (np.abs(ys - cy) <= 0.5)
        mask = stem | ellipse | equator
        if mask.any():
            return mask, r_lo, c_lo
    # Sub-pixel plant: leave a minimum one-pixel mark at the base.
    return np.ones((1, 1), dtype=bool), cam.frame_h - 1, min(cam.frame_w - 1, int(cx))


def overlap_flag(population: PlantState, spacing_cm: float,
                 growth_params: GrowthParams = DEFAULT_GROWTH) -> bool:
    """True when any plant's canopy is wider than the row spacing, so neighbors would overlap in frame."""
    if spacing_cm <= 0.0:
        raise ValueError("spacing_cm must be > 0")
    return bool(np.any(effective_width(population, growth_params) > spacing_cm))
