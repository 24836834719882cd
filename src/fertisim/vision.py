"""Vision pipeline: red-background segmentation and plant morphometry.

Segmentation is a red-dominance test (background iff red exceeds both green
and blue by a configurable margin). A noiseless frame is a silhouette held as
row runs in the renderer's two fixed colours, which test as plant and as
background at every margin the config allows, so its mask is the runs
themselves; a whole frame is tested pixel by pixel. A mask is a
``RowMask``: each row's first and last plant column and pixel count, so
measurement reads the bounding box and the count from at most 480 rows, and
converts pixel extents to centimeters through the known camera distance, so
measurements taken at different distances stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .render import CameraConfig, Frame, RowMask


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


def segment(frame: Frame, red_dominance_margin: int, cleanup: bool = False) -> RowMask:
    """The plant mask of a frame, row by row (``RowMask.to_array`` gives the bitmap).

    Without ``cleanup`` the mask of a run frame is its own runs: at any
    margin in [0, 255] the renderer's plant colour tests as plant and its
    background as background. Every other frame is tested pixel by pixel
    and then reduced to its rows.

    ``cleanup`` applies a 3x3 majority filter; leave it off for noiseless
    frames so the mask matches the rasterized silhouette exactly.
    """
    if frame.runs is not None and not cleanup:
        return frame.runs
    mask = _plant_pixels(frame.pixels, red_dominance_margin)
    if cleanup:
        mask = _majority_filter(mask)
    return RowMask.from_array(mask)


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
    padded = np.pad(mask.astype(np.uint8), 1, mode="constant")
    counts = sum(
        padded[1 + dr:padded.shape[0] - 1 + dr, 1 + dc:padded.shape[1] - 1 + dc]
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    )
    return counts >= 5


def measure(mask: RowMask, distance_cm: float, cam: CameraConfig,
            min_plant_pixels: int) -> Morphometry:
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
