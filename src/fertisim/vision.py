"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test (background iff red exceeds both green
and blue by a configurable margin). A rendered frame is a silhouette held as
row runs in the renderer's two fixed colours plus uniform camera noise of a
known amplitude. When no noise of that amplitude can move either colour to
the other class, its mask is the runs themselves (majority-filtered, if
asked, on their rows' half-widths), and no pixel is tested or even drawn;
otherwise, and for a whole frame, every pixel is tested. A mask is a
``RowMask``: each row's pixel count and the mask's bounding-box extents, so
measurement reads the bounding box and the count without a pixel scan, and
converts pixel extents to centimeters through the known camera distance, so
measurements taken at different distances stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .render import BACKGROUND, EMPTY_MASK, PLANT_COLOR, CameraConfig, Frame, RowMask


class NoPlantDetected(RuntimeError):
    """Mask too small to be a plant; the sample should be logged and skipped."""


@dataclass(frozen=True)
class Morphometry:
    height_cm: float
    width_cm: float
    plant_pixel_count: int


def segment(frame: Frame, red_dominance_margin: int, cleanup: bool = False) -> RowMask:
    """The plant mask of a frame, row by row.

    A rendered frame whose two colours keep their classes under its camera's
    noise (``_keeps_classes``) has its own runs as its per-pixel mask. Without
    ``cleanup`` the mask is the runs; with it, the majority filter is
    computed on the runs' half-widths (``_majority_filter_runs``). Every
    other frame is tested pixel by pixel, filtered if asked, and reduced to
    its rows. Both paths give the same mask.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    runs = frame.runs
    if runs is not None and _keeps_classes(frame.cam.noise_amplitude, red_dominance_margin):
        return _majority_filter_runs(runs) if cleanup else runs
    mask = _plant_pixels(frame.pixels, red_dominance_margin)
    if cleanup:
        mask = _majority_filter(mask)
    return RowMask.from_array(mask)


@lru_cache(maxsize=256)  # called once per frame; a run uses one amplitude and one margin
def _keeps_classes(noise_amplitude: int, red_dominance_margin: int) -> bool:
    """True when every pixel of a rendered frame tests as the class of its drawn colour."""
    return (_noisy_class(BACKGROUND, noise_amplitude, red_dominance_margin) is False
            and _noisy_class(PLANT_COLOR, noise_amplitude, red_dominance_margin) is True)


def _noisy_class(colour: tuple[int, int, int], noise_amplitude: int,
                 red_dominance_margin: int) -> bool | None:
    """The class (True for plant) of every colour within noise of ``colour``; None if they differ.

    Noise of amplitude ``a`` moves each channel ``c`` within the clipped box
    ``[c - a, c + a]``. All of the box is background iff its least red excess
    over green and over blue reaches the margin, and all of it is plant iff
    its greatest red excess over the larger of green and blue stays under
    the margin; both extremes lie at the box's corners.
    """
    (r_lo, r_hi), (g_lo, g_hi), (b_lo, b_hi) = [
        (max(c - noise_amplitude, 0), min(c + noise_amplitude, 255)) for c in colour]
    if r_lo - g_hi >= red_dominance_margin and r_lo - b_hi >= red_dominance_margin:
        return False
    if r_hi - max(g_lo, b_lo) < red_dominance_margin:
        return True
    return None


def _plant_pixels(rgb: np.ndarray, red_dominance_margin: int) -> np.ndarray:
    """True where a pixel of an (h, w, 3) buffer is not red-dominant."""
    r = rgb[:, :, 0]
    g = rgb[:, :, 1]
    b = rgb[:, :, 2]
    # int16 differences: uint8 arithmetic would wrap at the margin test
    red_over_green = np.subtract(r, g, dtype=np.int16)
    red_over_blue = np.subtract(r, b, dtype=np.int16)
    return ~((red_over_green >= red_dominance_margin) & (red_over_blue >= red_dominance_margin))


def _majority_filter(mask: np.ndarray) -> np.ndarray:
    """True where at least 5 of a pixel's 3x3 neighbourhood are True.

    The mask is empty beyond its edges. Each count is a sum over three
    columns, then over three rows, formed in place without a padded copy.
    """
    m = mask.view(np.uint8)
    across = m.copy()
    across[:, 1:] += m[:, :-1]
    across[:, :-1] += m[:, 1:]
    counts = across.copy()
    counts[1:] += across[:-1]
    counts[:-1] += across[1:]
    return counts >= 5


def _majority_filter_runs(runs: RowMask) -> RowMask:
    """``_majority_filter`` of a projected silhouette, from its rows' half-widths alone.

    A pixel ``k >= 1`` columns out in a row of half-width ``n`` sees ``clip(n - k + 2, 0, 3)``
    plant pixels of its row's three, taking ``n = -1`` for an empty row, the rows above and
    below the silhouette and the sub-pixel mark (one pixel: it filters to nothing). With a
    row's and its neighbours' half-widths sorted as ``c <= b <= a``, a count of 5 (3+2, 3+1+1
    or 2+2+1) reaches out to ``max(min(a - 1, b), min(a - 1, c + 1), min(b, c + 1))``.
    """
    n = np.full(runs.count.size + 2, -1)  # plus the row above (it filters to nothing) and below
    np.floor_divide(runs.count, 2, out=n[1:-1], where=runs.count > 1)
    c, b, a = np.sort([n[:-2], n[1:-1], n[2:]], axis=0)
    half = np.maximum(np.maximum(np.minimum(a - 1, b), np.minimum(a - 1, c + 1)),
                      np.minimum(b, c + 1))
    kept = np.flatnonzero(half > 0)
    if not kept.size:
        return EMPTY_MASK
    half = np.maximum(half[kept[0]:kept[-1] + 1], 0)
    return RowMask(runs.top + int(kept[0]), 2 * half,
                   (half.size, 2 * int(half.max()), 2 * int(half.sum())))


def measure(mask: RowMask, distance_cm: float, cam: CameraConfig,
            min_plant_pixels: int) -> Morphometry:
    """The mask's bounding-box extents in centimeters and its pixel count."""
    height_px, width_px, count = mask.extents
    if count < min_plant_pixels:
        raise NoPlantDetected(f"{count} plant pixels, need at least {min_plant_pixels}")
    px_to_cm = distance_cm / cam.focal_px
    return Morphometry(height_cm=height_px * px_to_cm, width_cm=width_px * px_to_cm,
                       plant_pixel_count=count)
