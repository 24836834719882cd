"""Reference bitmap rasterizer for the renderer's row runs, and the plant sizes tests draw.

``rasterize`` is the per-pixel silhouette test the renderer once evaluated
over the plant's whole bounding box: a pixel belongs to the plant when its
centre lies in the stem rectangle, in the canopy ellipse or on the ellipse's
equator chord. The tests hold the renderer's runs to it bit for bit.
"""

import math

import numpy as np
from hypothesis import strategies as st

from fertisim.render import FRAME_H, FRAME_W, CameraConfig

# Projected extents in pixels: sub-pixel, anything that fits, and exactly
# touching the frame top (480) or sides (640).
HEIGHT_PX = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 480.0), st.sampled_from([479.5, 480.0]))
WIDTH_PX = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 640.0), st.sampled_from([639.5, 640.0]))


def rasterize(cam: CameraConfig, height_px: float, width_px: float) -> np.ndarray:
    """The silhouette as a (480, 640) boolean mask."""
    y_base = float(FRAME_H)
    cx = FRAME_W / 2.0
    canopy_h = cam.canopy_fraction * height_px
    stem_h = height_px - canopy_h
    stem_halfw = 0.5 * cam.stem_fraction * width_px
    a = 0.5 * width_px
    b = 0.5 * canopy_h
    cy = y_base - stem_h - b

    full = np.zeros((FRAME_H, FRAME_W), dtype=bool)
    top = y_base - height_px
    r_lo = max(0, math.ceil(top - 0.5))
    c_lo = max(0, math.ceil(cx - a - 0.5))
    c_hi = min(FRAME_W - 1, math.floor(cx + a - 0.5))
    if r_lo < FRAME_H and c_lo <= c_hi:
        ys = np.arange(r_lo, FRAME_H, dtype=float)[:, None] + 0.5
        xs = np.arange(c_lo, c_hi + 1, dtype=float)[None, :] + 0.5
        with np.errstate(over="ignore"):  # a vanishing canopy height makes the ellipse term inf
            stem = (np.abs(xs - cx) <= stem_halfw) & (ys >= y_base - stem_h - 1e-12)
            in_span = np.abs(xs - cx) <= a
            ellipse = ((xs - cx) / a) ** 2 + ((ys - cy) / b) ** 2 <= 1.0 if b > 0.0 else False
        equator = in_span & (np.abs(ys - cy) <= 0.5)
        mask = stem | ellipse | equator
        if mask.any():
            full[r_lo:, c_lo:c_hi + 1] = mask
            return full
    # Sub-pixel plant: a one-pixel mark at the base.
    full[FRAME_H - 1, min(FRAME_W - 1, int(cx))] = True
    return full
