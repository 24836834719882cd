"""Synthetic camera: plant silhouettes on a red background via pinhole projection.

A plant is drawn as a filled green ellipse canopy sitting on a thin stem
rectangle, centered horizontally with its base on the bottom frame row.
Scale is ``focal_px / distance_cm`` pixels per centimeter. A pixel belongs
to the plant exactly when its center lies inside the silhouette, which
makes rasterization reproducible and gives the vision tests an exact
ground truth. The two colours are fixed: ``PLANT_COLOR`` on the silhouette
and ``BACKGROUND`` everywhere else, before any camera noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import key_hash

FRAME_W = 640
FRAME_H = 480
BACKGROUND = (255, 0, 0)
PLANT_COLOR = (0, 160, 0)

DISTANCE_MIN_CM = 30.0
DISTANCE_MAX_CM = 170.0
DISTANCE_STEP_CM = 10.0
DISTANCE_STEP_DAYS = 3


class FrameFitError(ValueError):
    """Projected plant does not fit the frame; the camera must step back."""


@dataclass(frozen=True)
class CameraConfig:
    focal_px: float
    canopy_fraction: float  # share of total height taken by the ellipse
    stem_fraction: float  # stem width as a share of canopy width
    noise_amplitude: int  # per-channel uniform jitter, 0..255
    noise_seed: int


class RowMask:
    """A plant mask held row by row.

    Row ``top + i`` holds ``count[i]`` plant pixels, the first in column
    ``first[i]`` and the last in column ``last[i]``. An empty row has count
    0 and its first column past its last, placed so that ``first.min()``
    and ``last.max()`` still bound the mask's columns. A render's
    silhouette is one run of columns per row down to the frame's last row;
    a mask reduced from a bitmap keeps that bitmap and its place in the frame
    for ``to_array``. ``size`` is the pixel count of the frame the mask covers.
    """

    size = FRAME_H * FRAME_W

    def __init__(self, top: int, first: np.ndarray, last: np.ndarray, count: np.ndarray,
                 bitmap: tuple[np.ndarray, int, int] | None = None):
        self.top = top
        self.first = first
        self.last = last
        self.count = count
        self._bitmap = bitmap

    @classmethod
    def from_array(cls, mask: np.ndarray, top: int = 0, left: int = 0) -> RowMask:
        """The rows of a boolean bitmap, scanned only within its bounding box.

        The bitmap covers the whole frame or, placed with its first pixel at
        frame row ``top`` and column ``left``, part of it; the frame is empty
        outside it.
        """
        bitmap = (mask, top, left)
        rows = np.flatnonzero(mask.any(axis=1))
        if not rows.size:
            return cls(FRAME_H, _NO_ROWS, _NO_ROWS, _NO_ROWS, bitmap)
        plant = mask[rows[0]:rows[-1] + 1]
        cols = np.flatnonzero(plant.any(axis=0))
        box = plant[:, cols[0]:cols[-1] + 1]
        count = np.add.reduce(box.view(np.uint8), axis=1, dtype=np.uint16)
        has = count > 0
        first = np.where(has, left + cols[0] + box.argmax(axis=1), FRAME_W)
        last = np.where(has, left + cols[-1] - box[:, ::-1].argmax(axis=1), -1)
        return cls(top + int(rows[0]), first, last, count, bitmap)

    def box(self) -> tuple[np.ndarray, int]:
        """Each row filled from its first to its last column, as a bitmap over the
        mask's rows and bounding columns; returns the bitmap and its first column.
        """
        c0 = int(self.first.min())
        # int16 compares: several times faster than intp ones at this size.
        cols = np.arange(c0, int(self.last.max()) + 1, dtype=np.int16)
        first = self.first.astype(np.int16)[:, None]
        last = self.last.astype(np.int16)[:, None]
        return (cols >= first) & (cols <= last), c0

    def to_array(self) -> np.ndarray:
        """The mask as a (480, 640) boolean bitmap."""
        full = np.zeros((FRAME_H, FRAME_W), dtype=bool)
        if self._bitmap is not None:
            bitmap, top, left = self._bitmap
        elif self.count.size:
            bitmap, left = self.box()
            top = self.top
        else:
            return full
        if bitmap.shape == full.shape:
            return bitmap
        full[top:top + bitmap.shape[0], left:left + bitmap.shape[1]] = bitmap
        return full

    @cached_property
    def extents(self) -> tuple[int, int, int]:
        """Bounding-box height and width and the pixel count; all 0 for an empty mask."""
        rows = np.flatnonzero(self.count)
        if not rows.size:
            return 0, 0, 0
        return (int(rows[-1] - rows[0] + 1), int(self.last.max() - self.first.min() + 1),
                int(self.count.sum()))


_NO_ROWS = np.zeros(0, dtype=np.intp)


class Frame:
    """One captured image plus its capture distance.

    A whole frame (``Frame(pixels=...)``: a PPM read) holds its
    (480, 640, 3) uint8 RGB buffer. A render holds only what it drew:
    ``runs``, the silhouette as a ``RowMask`` of one run per row, in
    ``PLANT_COLOR`` on ``BACKGROUND``, plus its camera noise as an amplitude
    and a generator seed. ``runs`` is None for a whole frame.

    ``pixels`` (the full (480, 640, 3) buffer) is built from the runs and the
    noise on first access and cached, so a frame whose pixels are never read
    never draws its noise.
    """

    def __init__(self, pixels: np.ndarray | None = None, distance_cm: float = 0.0,
                 *, runs: RowMask | None = None, noise_amplitude: int = 0,
                 noise_seed: int = 0):
        if (pixels is None) == (runs is None):
            raise ValueError("give exactly one of pixels and runs")
        if pixels is not None:
            if pixels.shape != (FRAME_H, FRAME_W, 3) or pixels.dtype != np.uint8:
                raise ValueError("frame buffer must be 480x640x3 uint8")
            self.pixels = pixels
        self.runs = runs
        self.noise_amplitude = noise_amplitude
        self.noise_seed = noise_seed
        self.distance_cm = distance_cm

    @cached_property
    def pixels(self) -> np.ndarray:
        plant, c0 = self.runs.box()
        box = (slice(self.runs.top, self.runs.top + plant.shape[0]),
               slice(c0, c0 + plant.shape[1]))
        a = self.noise_amplitude
        if a == 0:
            full = np.empty((FRAME_H, FRAME_W, 3), dtype=np.uint8)
            # One strided fill and one masked copy per channel: several times
            # faster than a broadcast fill or a boolean-indexed assignment.
            for ch in range(3):
                full[:, :, ch] = BACKGROUND[ch]
                np.copyto(full[box + (ch,)], PLANT_COLOR[ch], where=plant)
            return full
        # Noise plus the background, plus the plant's difference from the
        # background on the silhouette, formed in the int16 noise buffer; a
        # per-channel add skips the zero channels and is several times faster
        # than a broadcast one.
        noisy = np.random.default_rng(self.noise_seed).integers(
            -a, a + 1, size=(FRAME_H, FRAME_W, 3), dtype=np.int16)
        for ch in range(3):
            if BACKGROUND[ch]:
                noisy[:, :, ch] += BACKGROUND[ch]
            if PLANT_COLOR[ch] != BACKGROUND[ch]:
                region = noisy[box + (ch,)]
                np.add(region, PLANT_COLOR[ch] - BACKGROUND[ch], out=region, where=plant)
        return np.clip(noisy, 0, 255, out=noisy).astype(np.uint8)


def capture_distance(age_days: float) -> float:
    """Camera distance for a plant of the given age: 30 cm plus 10 cm per 3 days, capped at 170."""
    if age_days < 0:
        raise ValueError("age_days must be >= 0")
    return min(DISTANCE_MIN_CM + DISTANCE_STEP_CM * math.floor(age_days / DISTANCE_STEP_DAYS),
               DISTANCE_MAX_CM)


def render(height_cm: float, width_cm: float, cam: CameraConfig, distance_cm: float,
           noise_key: tuple[int, int]) -> tuple[Frame, tuple[int, int, int]]:
    """Rasterize one plant seen from ``distance_cm``; returns the frame and its runs' extents.

    ``width_cm`` is the visible canopy width (``growth.effective_width``).
    The silhouette is built as row runs: the frame holds them and builds the
    full buffer only when ``Frame.pixels`` is read. ``noise_key`` is the
    capture's (timestamp in minutes, plant index); with camera noise, the
    frame's noise generator is seeded from it and ``cam.noise_seed``, so each
    capture draws its own noise, the same on every run.
    """
    if distance_cm <= 0.0:
        raise ValueError("distance_cm must be > 0")

    scale = cam.focal_px / distance_cm
    with np.errstate(over="ignore"):  # an overflow to inf fails the fit check below
        height_px = height_cm * scale
        width_px = width_cm * scale
    if height_px > FRAME_H or width_px > FRAME_W:
        raise FrameFitError(
            f"plant projects to {height_px:.1f}x{width_px:.1f} px at {distance_cm:.0f} cm; "
            f"frame is {FRAME_H}x{FRAME_W}"
        )

    runs = _runs(cam, height_px, width_px)
    noise_seed = key_hash(cam.noise_seed, *noise_key) if cam.noise_amplitude else 0
    frame = Frame(runs=runs, distance_cm=distance_cm, noise_amplitude=cam.noise_amplitude,
                  noise_seed=noise_seed)
    return frame, runs.extents


def _runs(cam: CameraConfig, height_px: float, width_px: float) -> RowMask:
    """The silhouette as one run of columns per row, from its top row down to row 479.

    A pixel is the plant's when its centre lies in the stem rectangle, the
    canopy ellipse or the ellipse's full-width equator chord (which keeps the
    widest row sampled, so the width stays within one pixel of the projected
    width). All three are centred on the middle of the frame, so each row's
    pixels are one run, ``n`` pixels to each side of the centre line with
    centres at 0.5, 1.5, ..., n - 0.5 from it. The stem and the chord give
    ``n`` directly; the ellipse gives it per row from its half-width, and the
    run's outermost pixel and the one beyond are then checked with the
    per-pixel ellipse test. So the runs equal a pixel-by-pixel rasterization.
    """
    # Base line sits on the bottom frame edge, plant centered horizontally.
    y_base = float(FRAME_H)
    cx = FRAME_W / 2.0
    canopy_h = cam.canopy_fraction * height_px
    stem_h = height_px - canopy_h
    stem_halfw = 0.5 * cam.stem_fraction * width_px
    a = 0.5 * width_px  # ellipse semi-axis, horizontal
    b = 0.5 * canopy_h
    cy = y_base - stem_h - b

    top = y_base - height_px
    r_lo = max(0, math.ceil(top - 0.5))
    c_lo = max(0, math.ceil(cx - a - 0.5))
    c_hi = min(FRAME_W - 1, math.floor(cx + a - 0.5))
    if r_lo < FRAME_H and c_lo <= c_hi:
        ys = _ROW_CENTRES[r_lo:]
        dy = ys - cy
        # A vanishing canopy height sends the ellipse term to inf: no ellipse pixel.
        with np.errstate(over="ignore", divide="ignore"):
            q = (dy / b) ** 2 if b > 0.0 else np.full(ys.shape, np.inf)
        n = np.minimum(np.floor(a * np.sqrt(np.maximum(1.0 - q, 0.0)) + 0.5), _HALF_W)
        edges = np.array([[0.5], [-0.5]])
        while True:  # the test is monotone in dx, so each pass moves n toward its edge
            # Beyond the frame's last column (dx = 320.5 > a) the test always fails.
            beyond, outermost = (((n + edges) / a) ** 2 + q <= 1.0)
            shrink = ~outermost & (n > 0.0)
            if not (beyond.any() or shrink.any()):
                break
            n += beyond
            n -= shrink
        n = n.astype(np.intp)
        stem_top = np.searchsorted(ys, y_base - stem_h - 1e-12)
        n[stem_top:] = np.maximum(n[stem_top:], np.count_nonzero(_OFFSETS <= stem_halfw))
        chord = slice(np.searchsorted(dy, -0.5), np.searchsorted(dy, 0.5, side="right"))
        n[chord] = np.maximum(n[chord], np.count_nonzero(_OFFSETS <= a))

        lo = np.maximum(_HALF_W - n, c_lo)
        hi = np.minimum(_HALF_W - 1 + n, c_hi)
        count = hi - lo + 1
        rows = np.flatnonzero(count)
        if rows.size:
            t = rows[0]
            return RowMask(r_lo + int(t), lo[t:], hi[t:], count[t:])
    # Sub-pixel plant: leave a minimum one-pixel mark at the base.
    mark = np.array([min(FRAME_W - 1, int(cx))])
    return RowMask(FRAME_H - 1, mark, mark, np.ones(1, dtype=np.intp))


_HALF_W = FRAME_W // 2  # columns on each side of the frame's centre line
_ROW_CENTRES = np.arange(FRAME_H) + 0.5
_OFFSETS = np.arange(_HALF_W) + 0.5  # pixel centres' distances from the centre line


def overlap_flag(widths_cm: np.ndarray, spacing_cm: float) -> bool:
    """True when any visible canopy width exceeds the row spacing: neighbors overlap in frame."""
    if spacing_cm <= 0.0:
        raise ValueError("spacing_cm must be > 0")
    return bool(np.any(widths_cm > spacing_cm))
