"""Synthetic camera: plant silhouettes on a red background via pinhole projection.

A plant is drawn as a filled green ellipse canopy sitting on a thin stem
rectangle, centered horizontally with its base on the bottom frame row.
Scale is ``focal_px / distance_cm`` pixels per centimeter. A pixel belongs
to the plant exactly when its center lies inside the silhouette, which
makes rasterization reproducible and gives the vision tests an exact
ground truth. The two colours are fixed: ``PLANT_COLOR`` on the silhouette
and ``BACKGROUND`` everywhere else, before any camera noise. ``project``
draws a population's silhouettes; ``render`` frames one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Row ``top + i`` holds ``count[i]`` plant pixels. ``extents`` are the
    bounding-box height and width and the pixel count (all 0 if empty).
    ``size`` is the pixel count of the frame.

    Only this module knows where a row's pixels sit. A projected silhouette,
    and its majority filter, run down to the frame's last row, and each of
    their rows is one run starting at column ``320 - count // 2``: ``2n``
    pixels centred on the frame's centre line, or the sub-pixel mark's
    single pixel at column 320 of the last row. ``Frame`` draws them there.
    """

    size = FRAME_H * FRAME_W

    def __init__(self, top: int, count: np.ndarray, extents: tuple[int, int, int]):
        self.top = top
        self.count = count
        self.extents = extents

    @classmethod
    def from_array(cls, mask: np.ndarray) -> RowMask:
        """The rows of a (480, 640) boolean bitmap, counted only within its bounding box."""
        rows = np.flatnonzero(mask.any(axis=1))
        if not rows.size:
            return EMPTY_MASK
        plant = mask[rows[0]:rows[-1] + 1]
        cols = np.flatnonzero(plant.any(axis=0))
        box = plant[:, cols[0]:cols[-1] + 1]
        count = np.add.reduce(box.view(np.uint8), axis=1, dtype=np.uint16)
        extents = (int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1), int(count.sum()))
        return cls(int(rows[0]), count, extents)

    def majority_filtered(self) -> RowMask:
        """A projected silhouette's 3x3 majority filter (a pixel is kept iff at least 5 of its
        neighbourhood are plant, nothing beyond the frame), from its rows' half-widths alone.

        A pixel ``k >= 1`` columns out in a row of half-width ``n`` sees ``clip(n - k + 2, 0, 3)``
        plant pixels of its row's three, taking ``n = -1`` for an empty row, the rows above and
        below the silhouette and the sub-pixel mark (one pixel: it filters to nothing). With a
        row's and its neighbours' half-widths sorted as ``c <= b <= a``, a count of 5 (3+2, 3+1+1
        or 2+2+1) reaches out to ``max(min(a - 1, b), min(a - 1, c + 1), min(b, c + 1))``.
        """
        n = np.full(self.count.size + 2, -1)  # plus the row above (it filters to nothing) and below
        np.floor_divide(self.count, 2, out=n[1:-1], where=self.count > 1)
        c, b, a = np.sort([n[:-2], n[1:-1], n[2:]], axis=0)
        half = np.maximum(np.maximum(np.minimum(a - 1, b), np.minimum(a - 1, c + 1)),
                          np.minimum(b, c + 1))
        kept = np.flatnonzero(half > 0)
        if not kept.size:
            return EMPTY_MASK
        half = np.maximum(half[kept[0]:kept[-1] + 1], 0)
        return RowMask(self.top + int(kept[0]), 2 * half,
                       (half.size, 2 * int(half.max()), 2 * int(half.sum())))


EMPTY_MASK = RowMask(FRAME_H, np.zeros(0, dtype=np.intp), (0, 0, 0))


class Frame:
    """One captured image (plus, for a PPM read, the distance it was given).

    A frame is given exactly one of the two. A whole frame
    (``Frame(pixels=...)``: a PPM read) holds its (480, 640, 3) uint8 RGB
    buffer, which ``read_ppm`` has checked; its ``runs`` and ``cam`` are None.
    A render holds only what it drew: ``runs``, the silhouette as a
    ``RowMask`` of one run per row, in ``PLANT_COLOR`` on ``BACKGROUND``, the
    ``CameraConfig`` it was rendered with (whose noise amplitude and seed
    give its camera noise) and its ``noise_key``, any tuple of integers (the
    scenarios key a capture by its stream, minute and plant).

    ``pixels`` (the full (480, 640, 3) buffer) is built from the runs and the
    noise on first access and cached, so a frame whose pixels are never read
    never hashes its noise seed or draws its noise. Every render is drawn the
    same way, ``_BLOCK_ROWS`` frame rows at a time: its camera noise (all
    zeros at amplitude ``a`` = 0), plus the background row, plus the plant's
    difference from it, clipped to uint8. The noise is the raw 64-bit words
    of ``PCG64(key_hash(noise_seed, *noise_key))`` (a stream NumPy keeps
    fixed across releases), split into 16-bit lanes, low lane first: lane
    ``j`` of word ``w`` is ``(w >> 16 j) & 0xFFFF``, whatever the host's byte
    order. Each lane ``u`` draws ``((u * m) >> 16) - a`` with ``m = 2a + 1``:
    Lemire's multiply-shift without its rejection step, so no value is more
    than one count in ``65536 / m`` likelier than another. The cache takes no
    lock: frames are drawn on several threads at once
    (``scenarios._FrameDump``), and two threads that read one frame's pixels
    together may both draw them, to the same bytes.
    """

    def __init__(self, pixels: np.ndarray | None = None, distance_cm: float = 0.0,
                 *, runs: RowMask | None = None, cam: CameraConfig | None = None,
                 noise_key: tuple[int, ...] = (0, 0)):
        self._pixels = pixels
        self.runs = runs
        self.cam = cam
        self.noise_key = noise_key
        self.distance_cm = distance_cm

    @property
    def pixels(self) -> np.ndarray:
        # Not functools.cached_property: on Python 3.11 it draws under one lock
        # shared by every frame, so no two frames could be drawn at once.
        if self._pixels is None:
            self._pixels = self._draw()
        return self._pixels

    def _draw(self) -> np.ndarray:
        # Each row's run (``RowMask``: ``count`` pixels from column ``320 - count // 2``),
        # as a bitmap over the mask's rows and bounding columns. Built before the first
        # block is drawn, so its temporaries never sit beside the blocks and raise the peak.
        runs = self.runs
        # int16 compares: several times faster than intp ones at this size.
        count = runs.count.astype(np.int16)[:, None]
        first = _HALF_W - count // 2
        c0 = int(first.min())
        cols = np.arange(c0, int((first + count).max()), dtype=np.int16)
        plant = (cols >= first) & (cols < first + count)
        top, bottom = runs.top, runs.top + plant.shape[0]
        a = self.cam.noise_amplitude
        if a:
            stream = np.random.PCG64(key_hash(self.cam.noise_seed, *self.noise_key))
            m = np.uint32(2 * a + 1)
            product = np.empty(_BLOCK_ROWS * _ROW_VALUES, np.uint32)
        background = _BACKGROUND_ROW - a

        def unclipped(start: int, stop: int) -> np.ndarray:
            # Rows [start, stop) in int16: the noise plus ``a`` (the stream's next words as
            # 16-bit lanes, mapped in place), the background row less ``a``, then the plant's
            # difference from it per channel on its rows here (skipping equal channels).
            if a:
                words = stream.random_raw((stop - start) * _ROW_VALUES // 4)
                lanes = words.astype("<u8", copy=False).view("<u2")  # a copy only on big-endian
                mapped = product[:lanes.size]
                np.multiply(lanes, m, out=mapped, dtype=np.uint32)  # uint32 under any promotion
                np.right_shift(mapped, 16, out=lanes, casting="unsafe")
                block = lanes.view("<i2").reshape(stop - start, _ROW_VALUES)
            else:
                block = np.zeros((stop - start, _ROW_VALUES), np.int16)
            block += background
            lo, hi = max(start, top), min(stop, bottom)
            if lo < hi:
                box = block.reshape(-1, FRAME_W, 3)[lo - start:hi - start, c0:c0 + cols.size]
                for ch in range(3):
                    if PLANT_COLOR[ch] != BACKGROUND[ch]:
                        np.add(box[..., ch], PLANT_COLOR[ch] - BACKGROUND[ch], out=box[..., ch],
                               where=plant[lo - top:hi - top])
            return block

        out = np.empty((FRAME_H, _ROW_VALUES), np.uint8)
        for start in range(0, FRAME_H, _BLOCK_ROWS):
            # Each block is freed once clipped, before the next one's words are drawn.
            stop = min(start + _BLOCK_ROWS, FRAME_H)
            np.clip(unclipped(start, stop), 0, 255, out=out[start:stop], casting="unsafe")
        return out.reshape(FRAME_H, FRAME_W, 3)


def capture_distance(age_days: float) -> float:
    """Camera distance for a plant of the given age: 30 cm plus 10 cm per 3 days, capped at 170."""
    return min(DISTANCE_MIN_CM + DISTANCE_STEP_CM * math.floor(age_days / DISTANCE_STEP_DAYS),
               DISTANCE_MAX_CM)


def project(heights_cm: np.ndarray, widths_cm: np.ndarray, cam: CameraConfig,
            distance_cm: float) -> list[RowMask]:
    """Each plant's silhouette seen from ``distance_cm``, drawn 16 plants a pass.

    Widths are visible canopy widths (``growth.sizes``). Raises
    FrameFitError for the first plant that does not fit the frame.
    """
    scale = cam.focal_px / distance_cm
    # An overflow to inf fails the fit check (as does a nan); a vanishing canopy
    # height or width sends the ellipse terms to inf or nan, which pass no test.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        height_px = np.multiply(heights_cm, scale)[:, None]
        width_px = np.multiply(widths_cm, scale)[:, None]
        fits = (height_px <= FRAME_H) & (width_px <= FRAME_W)
        if not fits.all():  # name the first plant that does not fit
            i = int(np.argmin(fits))
            raise FrameFitError(f"plant projects to {height_px[i, 0]:.1f}x{width_px[i, 0]:.1f} px "
                                f"at {distance_cm:.0f} cm; frame is {FRAME_H}x{FRAME_W}")
        return [mask for s in range(0, len(height_px), _PASS_PLANTS) for mask in
                _rasterize(cam, height_px[s:s + _PASS_PLANTS], width_px[s:s + _PASS_PLANTS])]


def render(runs: RowMask, cam: CameraConfig,
           noise_key: tuple[int, ...]) -> tuple[Frame, tuple[int, int, int]]:
    """One plant's frame from its silhouette (``project``), and the silhouette's extents.

    With camera noise, the frame's noise (see ``Frame``) is keyed by ``cam.noise_seed``
    and ``noise_key`` (any tuple of integers; the scenarios pass the capture's
    stream, minute and plant index), when its pixels are first read.
    """
    return Frame(runs=runs, cam=cam, noise_key=noise_key), runs.extents


def _rasterize(cam: CameraConfig, h: np.ndarray, w: np.ndarray) -> list[RowMask]:
    """Silhouettes of plants ``h`` by ``w`` px, (n, 1) arrays, each of which fits the frame.

    A pixel is the plant's when its centre lies in the stem rectangle, the
    canopy ellipse or the ellipse's full-width equator chord (which keeps the
    widest row sampled, so the width stays within one pixel of the projected
    width). All three are centred on the middle of the frame, so each row's
    pixels are one run, ``n`` pixels to each side of the centre line with
    centres at 0.5, 1.5, ..., n - 0.5 from it. The stem and the chord give
    ``n`` directly; the ellipse gives it per row from its half-width, and the
    run's outermost pixel and the one beyond are then checked with the
    per-pixel ellipse test. So the runs equal a pixel-by-pixel rasterization.
    No run needs clipping: beyond the semi-axis ``a`` the ellipse test fails
    even in floating point, the chord ends at ``a`` and the stem is narrower.
    Each plant is a row of a (plant, row) block over the rows from the
    tallest plant's top down; its rows above its own top stay empty.
    """
    # Base line sits on the bottom frame edge, plant centered horizontally.
    y_base = float(FRAME_H)
    a = 0.5 * w  # ellipse semi-axis, horizontal
    plant_top = y_base - h
    top = plant_top.min()
    canopy_h = cam.canopy_fraction * h
    stem_top = y_base - (h - canopy_h)
    b = 0.5 * canopy_h

    ys = _ROW_CENTRES[min(math.ceil(top - 0.5), FRAME_H - 1):]
    dy = ys - (stem_top - b)
    q = (dy / b) ** 2
    n = np.floor(a * np.sqrt(np.fmax(1.0 - q, 0.0)) + 0.5)
    while True:  # the test is monotone in dx, so each pass moves n toward its edge
        # Beyond the frame's last column (dx = 320.5 > a) the test always fails.
        beyond, outermost = ((n + _EDGES) / a) ** 2 + q <= 1.0
        shrink = ~outermost & (n > 0.0)
        if not (np.count_nonzero(beyond) or np.count_nonzero(shrink)):
            break
        n += beyond
        n -= shrink
    n = n.astype(np.intp)
    stem_n = _OFFSETS.searchsorted(0.5 * cam.stem_fraction * w, side="right")
    np.maximum(n, stem_n, out=n, where=ys >= stem_top - 1e-12)
    np.maximum(n, _OFFSETS.searchsorted(a, side="right"), out=n, where=np.abs(dy) <= 0.5)
    n[ys < plant_top] = 0

    count = n + n
    # Each plant's first and last rows with pixels (from either end), widest run and pixel count.
    has = n > 0
    firsts = has.argmax(axis=1).tolist()
    lasts = has[:, ::-1].argmax(axis=1).tolist()
    widest = n.max(axis=1).tolist()
    pixels = n.sum(axis=1).tolist()
    return [RowMask(FRAME_H - ys.size + t, count[i, t:], (ys.size - last - t, 2 * wide, 2 * size))
            if size else _MARK
            for i, (t, last, wide, size) in enumerate(zip(firsts, lasts, widest, pixels))]


_PASS_PLANTS = 16  # plants per pass: keeps a pass's arrays to 16 x 480
_EDGES = np.array([0.5, -0.5])[:, None, None]  # the pixel beyond a run, and its outermost
_HALF_W = FRAME_W // 2  # columns on each side of the frame's centre line
_ROW_CENTRES = np.arange(FRAME_H) + 0.5
_ROW_VALUES = FRAME_W * 3  # channel values per frame row
_BLOCK_ROWS = 60  # frame rows per pass: 8 passes, each 225 KiB of lanes and a 450 KiB product
_BACKGROUND_ROW = np.tile(np.array(BACKGROUND, dtype=np.int16), FRAME_W)  # one frame row's colours
_OFFSETS = np.arange(_HALF_W) + 0.5  # pixel centres' distances from the centre line
# A sub-pixel plant leaves a minimum one-pixel mark at the base.
_MARK = RowMask(FRAME_H - 1, np.ones(1, int), (1, 1, 1))
