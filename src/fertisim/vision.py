"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test (background iff red exceeds both green
and blue by a configurable margin). A noiseless frame is a silhouette held as
row runs plus two colours, so the test runs on those two colours and the mask
is the runs themselves; a whole frame is tested pixel by pixel. A mask is a
``RowMask``: each row's first and last plant column and pixel count, so
measurement reads the bounding box and the count from at most 480 rows, and
converts pixel extents to centimeters through the known camera distance, so
measurements taken at different distances stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .render import CameraConfig, Frame, RowMask

DEFAULT_RED_MARGIN = 60
DEFAULT_MIN_PLANT_PIXELS = 25


class NoPlantDetected(RuntimeError):
    """Mask too small to be a plant; the sample should be logged and skipped."""


@dataclass(frozen=True)
class Morphometry:
    height_px: int
    width_px: int
    height_cm: float
    width_cm: float
    plant_pixel_count: int
    distance_cm: float


def segment(frame: Frame, red_dominance_margin: int = DEFAULT_RED_MARGIN,
            cleanup: bool = False) -> RowMask:
    """The plant mask of a frame, row by row (``RowMask.to_array`` gives the bitmap).

    On a run frame whose background colour tests as background, the
    red-dominance test runs once on each of the two colours: the mask is the
    frame's own runs when the plant colour tests as plant, and empty when it
    does not. Every other frame is tested pixel by pixel and then reduced to
    its rows, so every pixel is classified exactly as if the whole buffer
    had been tested.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    if frame.runs is not None and not cleanup:
        background_class, plant_class = _colour_classes(
            tuple(frame.background), tuple(frame.plant_color), red_dominance_margin)
        if not background_class:
            return frame.runs if plant_class else RowMask.empty()
    mask = _plant_pixels(frame.pixels, red_dominance_margin)
    if cleanup:
        mask = _majority_filter(mask)
    return RowMask.from_array(mask)


@lru_cache(maxsize=64)
def _colour_classes(background: tuple[int, int, int], plant_color: tuple[int, int, int],
                    red_dominance_margin: int) -> tuple[bool, bool]:
    """Whether each of the two colours of a run frame tests as plant."""
    colours = np.array([[background, plant_color]], dtype=np.uint8)
    background_class, plant_class = _plant_pixels(colours, red_dominance_margin)[0]
    return bool(background_class), bool(plant_class)


def _plant_pixels(rgb: np.ndarray, red_dominance_margin: int) -> np.ndarray:
    """True where a pixel is not red-dominant, over the first two axes of ``rgb``."""
    r = rgb[:, :, 0]
    g = rgb[:, :, 1]
    b = rgb[:, :, 2]
    # int16 differences: uint8 arithmetic would wrap at the margin test
    red_over_green = np.subtract(r, g, dtype=np.int16)
    red_over_blue = np.subtract(r, b, dtype=np.int16)
    return ~((red_over_green >= red_dominance_margin) & (red_over_blue >= red_dominance_margin))


def _majority_filter(mask: np.ndarray) -> np.ndarray:
    padded = np.pad(mask.astype(np.uint8), 1, mode="constant")
    counts = sum(
        padded[1 + dr:padded.shape[0] - 1 + dr, 1 + dc:padded.shape[1] - 1 + dc]
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    )
    return counts >= 5


def measure(mask: RowMask, distance_cm: float, cam: CameraConfig,
            min_plant_pixels: int = DEFAULT_MIN_PLANT_PIXELS) -> Morphometry:
    """Bounding-box extents of the mask in pixels and centimeters, read from its rows."""
    height_px, width_px, count = mask.extents
    if count < min_plant_pixels:
        raise NoPlantDetected(f"{count} plant pixels, need at least {min_plant_pixels}")
    px_to_cm = distance_cm / cam.focal_px
    return Morphometry(
        height_px=height_px,
        width_px=width_px,
        height_cm=height_px * px_to_cm,
        width_cm=width_px * px_to_cm,
        plant_pixel_count=count,
        distance_cm=distance_cm,
    )
