"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test (background iff red exceeds both green
and blue by a configurable margin). A noiseless frame is a silhouette and two
colours, so the test runs on those two colours and the silhouette places
their classes; a whole frame is tested pixel by pixel. Measurement takes the
bounding box of the plant mask, scanning columns only within the plant's
rows, and converts pixel extents to centimeters through the known camera
distance, so measurements taken at different distances stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .render import FRAME_H, FRAME_W, CameraConfig, Frame

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
            cleanup: bool = False) -> np.ndarray:
    """Boolean plant mask, full frame size (480, 640).

    On a silhouette frame the red-dominance test runs once on each of its two
    colours; the silhouette then places the plant colour's class into a mask
    filled with the background's class, so every pixel is classified exactly
    as if the whole buffer had been tested. A whole frame is tested pixel by
    pixel.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    if frame.silhouette is None:
        mask = _plant_pixels(frame.pixels, red_dominance_margin)
    else:
        colours = np.array([[frame.background, frame.plant_color]], dtype=np.uint8)
        background_class, plant_class = _plant_pixels(colours, red_dominance_margin)[0]
        mask = np.full((FRAME_H, FRAME_W), background_class)
        r, c = frame.origin
        h, w = frame.silhouette.shape
        mask[r:r + h, c:c + w] = np.where(frame.silhouette, plant_class, background_class)
    if cleanup:
        mask = _majority_filter(mask)
    return mask


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


def measure(mask: np.ndarray, distance_cm: float, cam: CameraConfig,
            min_plant_pixels: int = DEFAULT_MIN_PLANT_PIXELS) -> Morphometry:
    """Bounding-box extents of the mask in pixels and centimeters.

    Columns are scanned only within the rows that hold plant pixels, so the
    cost of that scan follows the plant's height, not the frame's.
    """
    count = int(np.count_nonzero(mask))
    if count < min_plant_pixels:
        raise NoPlantDetected(f"{count} plant pixels, need at least {min_plant_pixels}")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask[rows[0]:rows[-1] + 1].any(axis=0))
    height_px = int(rows[-1] - rows[0] + 1)
    width_px = int(cols[-1] - cols[0] + 1)
    px_to_cm = distance_cm / cam.focal_px
    return Morphometry(
        height_px=height_px,
        width_px=width_px,
        height_cm=height_px * px_to_cm,
        width_cm=width_px * px_to_cm,
        plant_pixel_count=count,
        distance_cm=distance_cm,
    )

