"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test (background iff red exceeds both green
and blue by a configurable margin). A rendered frame is a silhouette held as
row runs in the renderer's two fixed colours plus uniform camera noise of a
known amplitude. When no noise of that amplitude can move either colour to
the other class, its mask is the runs themselves (majority-filtered, if
asked, by the renderer's ``RowMask``), and no pixel is tested or even drawn;
otherwise, and for a whole frame, every pixel is tested. A mask is a
``RowMask``: each row's pixel count and the mask's bounding-box extents, so
measurement reads the bounding box and the count without a pixel scan, and
converts pixel extents to centimeters through the known camera distance, so
measurements taken at different distances stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .render import BACKGROUND, PLANT_COLOR, CameraConfig, Frame, RowMask


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
    ``cleanup`` the mask is the runs; with it, the runs' majority filter
    (``RowMask.majority_filtered``). Every other frame is tested pixel by
    pixel, filtered if asked, and reduced to its rows. Both paths give the same mask.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    runs = frame.runs
    if runs is not None and _keeps_classes(frame.cam.noise_amplitude, red_dominance_margin):
        return runs.majority_filtered() if cleanup else runs
    mask = _plant_pixels(frame.pixels, red_dominance_margin)
    if cleanup:
        mask = _majority_filter(mask)
    return RowMask.from_array(mask)


@lru_cache(maxsize=256)  # called once per frame; a run uses one amplitude and one margin
def _keeps_classes(noise_amplitude: int, red_dominance_margin: int) -> bool:
    """True when every pixel of a rendered frame tests as the class of its drawn colour.

    Noise of amplitude ``a`` moves each channel ``c`` within the clipped box
    ``[c - a, c + a]``. ``_plant_pixels`` is monotone in each channel, so a
    colour's box is all one class iff its eight corners are.
    """
    signs = np.array(list(product((-1, 1), repeat=3)))
    corners = np.clip(np.array([BACKGROUND, PLANT_COLOR])[:, None] + noise_amplitude * signs,
                      0, 255).astype(np.uint8)
    background, plant = _plant_pixels(corners, red_dominance_margin)
    return not background.any() and bool(plant.all())


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


def measure(mask: RowMask, distance_cm: float, cam: CameraConfig,
            min_plant_pixels: int) -> Morphometry:
    """The mask's bounding-box extents in centimeters and its pixel count."""
    height_px, width_px, count = mask.extents
    if count < min_plant_pixels:
        raise NoPlantDetected(f"{count} plant pixels, need at least {min_plant_pixels}")
    px_to_cm = distance_cm / cam.focal_px
    return Morphometry(height_cm=height_px * px_to_cm, width_cm=width_px * px_to_cm,
                       plant_pixel_count=count)
