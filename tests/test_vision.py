"""Segmentation and morphometry against the renderer's ground truth."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.control import wilt_degree
from fertisim.growth import EcBand, PlantState
from fertisim.render import CameraConfig, Frame, FrameFitError, render
from fertisim.vision import Morphometry, NoPlantDetected, measure, segment


def plant_of(height_cm, width_cm, turgor=1.0):
    return PlantState(age_min=0.0, height_cm=height_cm, turgid_width_cm=width_cm,
                      turgor=turgor, band=EcBand.NORMAL)


def red_frame(camera):
    pixels = np.empty((480, 640, 3), np.uint8)
    pixels[:] = np.array(camera.background, np.uint8)
    return Frame(pixels=pixels, distance_cm=100.0, timestamp_min=0.0)


class TestSegment:
    def test_noiseless_mask_matches_silhouette_exactly(self, camera):
        frame, truth = render(plant_of(60.0, 30.0), camera, 100.0)
        mask = segment(frame)
        drawn = (frame.pixels == np.array(camera.plant_color, np.uint8)).all(axis=2)
        assert (mask == drawn).all()
        assert int(mask.sum()) == truth.plant_pixel_count

    def test_pure_red_frame_is_all_background(self, camera):
        assert not segment(red_frame(camera)).any()

    def test_noisy_mask_close_to_ground_truth(self):
        cam_clean = CameraConfig()
        cam_noisy = CameraConfig(noise_amplitude=20, noise_seed=3)
        plant = plant_of(60.0, 30.0)
        clean_mask = segment(render(plant, cam_clean, 100.0)[0])
        noisy_mask = segment(render(plant, cam_noisy, 100.0)[0], cleanup=True)
        differing = int((clean_mask != noisy_mask).sum())
        assert differing < 0.005 * int(clean_mask.sum())

    def test_mask_shape_matches_frame(self, camera):
        mask = segment(red_frame(camera))
        assert mask.shape == (480, 640)
        assert mask.dtype == bool


_RGB = st.tuples(*[st.integers(0, 255)] * 3)
# Projected extents in pixels: sub-pixel, anything that fits, and exactly
# touching the frame top (480) or sides (640).
_HEIGHT_PX = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 480.0), st.sampled_from([479.5, 480.0]))
_WIDTH_PX = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 640.0), st.sampled_from([639.5, 640.0]))


@settings(deadline=None, max_examples=150)
@given(height_px=_HEIGHT_PX, width_px=_WIDTH_PX, distance=st.floats(30.0, 170.0),
       background=st.one_of(st.just((255, 0, 0)), _RGB),
       plant_color=st.one_of(st.just((0, 160, 0)), _RGB),
       margin=st.integers(0, 255), cleanup=st.booleans())
# One colour for plant and background: the frame is uniform.
@example(height_px=300.0, width_px=200.0, distance=100.0, background=(255, 0, 0),
         plant_color=(255, 0, 0), margin=60, cleanup=False)
@example(height_px=300.0, width_px=200.0, distance=100.0, background=(255, 0, 0),
         plant_color=(255, 0, 0), margin=60, cleanup=True)
# A plant colour the margin classes as background: the plant is invisible.
@example(height_px=300.0, width_px=200.0, distance=100.0, background=(255, 0, 0),
         plant_color=(200, 50, 50), margin=60, cleanup=False)
@example(height_px=300.0, width_px=200.0, distance=100.0, background=(255, 0, 0),
         plant_color=(200, 50, 50), margin=60, cleanup=True)
def test_patch_frame_matches_whole_frame(height_px, width_px, distance, background,
                                         plant_color, margin, cleanup):
    cam = CameraConfig(background=background, plant_color=plant_color)
    scale = cam.focal_px / distance
    try:
        frame, _ = render(plant_of(height_px / scale, width_px / scale), cam, distance)
    except FrameFitError:  # float rounding put the plant a hair past the edge
        assume(False)
    whole = Frame(pixels=frame.pixels, distance_cm=distance, timestamp_min=0.0)

    mask = segment(frame, margin, cleanup)
    whole_mask = segment(whole, margin, cleanup)
    assert mask.shape == whole_mask.shape == (480, 640)
    assert (mask == whole_mask).all()

    def measured(m):
        try:
            return measure(m, distance, cam)
        except NoPlantDetected:
            return None

    assert measured(mask) == measured(whole_mask)


def _full_scan(mask, distance, cam, min_plant_pixels):
    """Reference measurement: the whole mask scanned on both axes; None if too small."""
    count = int(mask.sum())
    if count < min_plant_pixels:
        return None
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    height_px = int(rows[-1] - rows[0] + 1)
    width_px = int(cols[-1] - cols[0] + 1)
    px_to_cm = distance / cam.focal_px
    return Morphometry(height_px=height_px, width_px=width_px,
                       height_cm=height_px * px_to_cm, width_cm=width_px * px_to_cm,
                       plant_pixel_count=count, distance_cm=distance)


_ROW = st.one_of(st.sampled_from([0, 479]), st.integers(0, 479))
_COL = st.one_of(st.sampled_from([0, 639]), st.integers(0, 639))
# (first row, last row, first column, last column), inclusive; a single
# pixel is a rectangle with equal bounds.
_RECT = st.one_of(
    st.tuples(_ROW, _ROW, _COL, _COL).map(lambda t: (*sorted(t[:2]), *sorted(t[2:]))),
    st.tuples(_ROW, _COL).map(lambda t: (t[0], t[0], t[1], t[1])),
)


@settings(deadline=None, max_examples=200)
@given(rects=st.lists(_RECT, min_size=1, max_size=4),
       min_plant_pixels=st.sampled_from([1, 25, 1000]))
@example(rects=[(0, 479, 0, 639)], min_plant_pixels=25)  # the all-True mask
@example(rects=[(0, 0, 0, 0), (479, 479, 639, 639)], min_plant_pixels=1)  # opposite corners
@example(rects=[(0, 0, 0, 0), (479, 479, 639, 639)], min_plant_pixels=25)  # under the minimum
# Blobs with empty rows between them; the widest one is not in the first plant row.
@example(rects=[(10, 12, 300, 310), (200, 250, 0, 639)], min_plant_pixels=25)
@example(rects=[(5, 5, 320, 320), (100, 140, 40, 60), (300, 479, 600, 639)], min_plant_pixels=1)
def test_measure_equals_a_full_scan(rects, min_plant_pixels, camera):
    mask = np.zeros((480, 640), bool)
    for r0, r1, c0, c1 in rects:
        mask[r0:r1 + 1, c0:c1 + 1] = True
    try:
        got = measure(mask, 100.0, camera, min_plant_pixels)
    except NoPlantDetected:
        got = None
    assert got == _full_scan(mask, 100.0, camera, min_plant_pixels)


class TestMeasure:
    def test_bounding_box_arithmetic(self, camera):
        mask = np.zeros((480, 640), bool)
        mask[100:340, 200:320] = True  # 240 x 120 px
        m = measure(mask, 100.0, camera)
        assert (m.height_px, m.width_px) == (240, 120)
        assert m.height_cm == pytest.approx(50.0)
        assert m.width_cm == pytest.approx(25.0)
        assert m.plant_pixel_count == 240 * 120

    def test_roundtrip_equals_ground_truth(self, camera):
        for turgor in (1.0, 0.8, 0.4):
            plant = plant_of(57.3, 28.1, turgor)
            frame, truth = render(plant, camera, 110.0)
            m = measure(segment(frame), 110.0, camera)
            assert (m.height_px, m.width_px, m.plant_pixel_count) == \
                (truth.height_px, truth.width_px, truth.plant_pixel_count)

    def test_physical_extents_within_one_pixel(self, camera):
        plant = plant_of(57.3, 28.1, 0.9)
        distance = 110.0
        frame, _ = render(plant, camera, distance)
        m = measure(segment(frame), distance, camera)
        cm_per_px = distance / camera.focal_px
        assert abs(m.height_cm - plant.height_cm) <= cm_per_px
        assert abs(m.width_cm - plant.turgid_width_cm * 0.99) <= cm_per_px

    def test_distance_invariance(self, camera):
        plant = plant_of(50.0, 25.0)
        out = []
        for d in (100.0, 160.0):
            frame, _ = render(plant, camera, d)
            out.append(measure(segment(frame), d, camera))
        assert out[0].height_cm == pytest.approx(out[1].height_cm, rel=0.02)

    def test_small_mask_raises(self, camera):
        mask = np.zeros((480, 640), bool)
        mask[10, 10:20] = True  # 10 pixels
        with pytest.raises(NoPlantDetected):
            measure(mask, 100.0, camera, min_plant_pixels=25)

    def test_empty_frame_raises(self, camera):
        with pytest.raises(NoPlantDetected):
            measure(segment(red_frame(camera)), 100.0, camera)

    def test_shrinking_plant_measures_narrower(self, camera):
        widths = []
        for turgor in (1.0, 0.7, 0.4, 0.1):
            frame, _ = render(plant_of(60.0, 30.0, turgor), camera, 100.0)
            widths.append(measure(segment(frame), 100.0, camera).width_cm)
        assert all(b < a for a, b in zip(widths, widths[1:]))
        heights = set()
        for turgor in (1.0, 0.4):
            frame, _ = render(plant_of(60.0, 30.0, turgor), camera, 100.0)
            heights.add(measure(segment(frame), 100.0, camera).height_px)
        assert len(heights) == 1


class TestWiltDegree:
    def test_two_percent_shrink(self):
        assert wilt_degree(40.0, 39.2) == pytest.approx(0.02)

    def test_identity(self):
        assert wilt_degree(40.0, 40.0) == 0.0

    def test_fresher_than_reference_goes_negative(self):
        assert wilt_degree(40.0, 41.0) == pytest.approx(-0.025)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            wilt_degree(0.0, 40.0)
