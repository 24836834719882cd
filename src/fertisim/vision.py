"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test per pixel (background iff red exceeds
both green and blue by a configurable margin), run on the frame's patch and
once on its uniform background colour. Measurement takes the
bounding box of the plant mask and converts pixel extents to centimeters
through the known camera distance, so measurements taken at different
distances stay comparable.
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

    The red-dominance test runs once on the frame's background colour and
    then on its patch pixels only; the patch result is written into a mask
    filled with the background's class, so every pixel is classified exactly
    as if the whole buffer had been tested.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    background = np.asarray(frame.background, dtype=np.uint8).reshape(1, 1, 3)
    mask = np.full((FRAME_H, FRAME_W), _plant_pixels(background, red_dominance_margin)[0, 0])
    r, c = frame.origin
    h, w = frame.patch.shape[:2]
    mask[r:r + h, c:c + w] = _plant_pixels(frame.patch, red_dominance_margin)
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
    """Bounding-box extents of the mask in pixels and centimeters."""
    count = int(mask.sum())
    if count < min_plant_pixels:
        raise NoPlantDetected(f"{count} plant pixels, need at least {min_plant_pixels}")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
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

