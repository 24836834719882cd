"""Silhouette rendering and the camera distance schedule."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.config import ConfigError, default_config, parse_config
from fertisim.growth import (
    EcBand,
    PlantState,
    advance,
    effective_width,
    make_seedling,
    plant_rate_scale,
)
from fertisim.render import (
    BACKGROUND,
    PLANT_COLOR,
    FrameFitError,
    RowMask,
    capture_distance,
    overlap_flag,
    render,
)
from fertisim.vision import measure, segment
from oracle import HEIGHT_PX, WIDTH_PX, rasterize


CFG = default_config()
GP = CFG.growth_params()


def plant_of(height_cm, width_cm, turgor=1.0):
    return PlantState(age_min=0.0, height_cm=height_cm, turgid_width_cm=width_cm,
                      turgor=turgor, band=EcBand.NORMAL)


def shoot(plant, cam, distance_cm):
    """Render a plant at its visible width, as the scenarios do."""
    return render(plant.height_cm, effective_width(plant, GP), cam, distance_cm)


class TestCaptureDistance:
    def test_schedule_start(self):
        assert capture_distance(0) == 30.0

    def test_schedule_end(self):
        assert capture_distance(42) == 170.0

    def test_clamped_past_schedule(self):
        assert capture_distance(100) == 170.0

    def test_full_table(self):
        expected = [30 + 10 * k for k in range(15)]
        assert [capture_distance(d) for d in range(0, 43, 3)] == expected

    def test_steps_every_three_days(self):
        assert capture_distance(5) == 40.0
        assert capture_distance(6) == 50.0

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            capture_distance(-1)


class TestRender:
    def test_pinhole_height(self, camera):
        _, truth = shoot(plant_of(50.0, 25.0), camera, 100.0)
        assert abs(truth.height_px - 240) <= 1
        assert abs(truth.width_px - 120) <= 1

    def test_projective_scaling(self, camera):
        plant = plant_of(50.0, 25.0)
        _, near = shoot(plant, camera, 100.0)
        _, far = shoot(plant, camera, 160.0)
        assert near.height_px / far.height_px == pytest.approx(1.6, rel=0.02)

    def test_tiny_plant_leaves_a_mark(self, camera):
        _, truth = shoot(plant_of(0.1, 0.1), camera, 100.0)
        assert truth.height_px >= 1
        assert truth.width_px >= 1
        assert truth.plant_pixel_count >= 1

    def test_two_class_image(self, camera):
        frame, truth = shoot(plant_of(60.0, 30.0), camera, 100.0)
        colors = {tuple(c) for c in frame.pixels.reshape(-1, 3)[::7]}
        assert colors <= {BACKGROUND, PLANT_COLOR}
        plant_pixels = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
        assert int(plant_pixels.sum()) == truth.plant_pixel_count

    def test_pixels_are_the_silhouette_in_two_colours(self, camera):
        plant = plant_of(37.0, 21.0, turgor=0.8)
        frame, truth = shoot(plant, camera, 90.0)
        scale = camera.focal_px / 90.0
        expected = rasterize(camera, plant.height_cm * scale, effective_width(plant, GP) * scale)
        assert (frame.silhouette == expected).all()

        is_plant = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
        is_background = (frame.pixels == np.array(BACKGROUND, np.uint8)).all(axis=2)
        assert (is_plant == expected).all()
        assert (is_background == ~expected).all()
        assert int(is_plant.sum()) == truth.plant_pixel_count

    def test_buffer_shape_and_size(self, camera):
        frame, _ = shoot(plant_of(40.0, 20.0), camera, 100.0)
        assert frame.pixels.shape == (480, 640, 3)
        assert frame.pixels.nbytes == 921600

    def test_projection_linearity(self, camera):
        for distance in (30.0, 70.0, 100.0, 170.0):
            plant = plant_of(25.0, 14.0)
            _, truth = shoot(plant, camera, distance)
            recovered = truth.height_px * distance / camera.focal_px
            assert abs(recovered - plant.height_cm) <= 1.0 * distance / camera.focal_px

    def test_deterministic(self, camera):
        a, ta = shoot(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        b, tb = shoot(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        assert ta == tb
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_noise_is_seeded(self, camera):
        cam = replace(camera, noise_amplitude=20, noise_seed=9)
        a, _ = shoot(plant_of(40.0, 20.0), cam, 100.0)
        b, _ = shoot(plant_of(40.0, 20.0), cam, 100.0)
        assert a.pixels.tobytes() == b.pixels.tobytes()
        other, _ = shoot(plant_of(40.0, 20.0), replace(cam, noise_seed=10), 100.0)
        assert a.pixels.tobytes() != other.pixels.tobytes()

    def test_plant_exceeding_frame_rejected(self, camera):
        with pytest.raises(FrameFitError):
            shoot(plant_of(200.0, 30.0), camera, 100.0)  # 960 px tall
        with pytest.raises(FrameFitError):
            shoot(plant_of(50.0, 140.0), camera, 100.0)  # 672 px wide

    def test_bad_distance_rejected(self, camera):
        with pytest.raises(ValueError):
            shoot(plant_of(50.0, 25.0), camera, 0.0)

    def test_wilt_shrinks_width_not_height(self, camera):
        _, fresh = shoot(plant_of(60.0, 30.0, turgor=1.0), camera, 100.0)
        _, wilted = shoot(plant_of(60.0, 30.0, turgor=0.0), camera, 100.0)
        assert wilted.width_px < fresh.width_px
        assert wilted.height_px == fresh.height_px


def _bitmap_rows(bitmap, top):
    """Rows ``top`` onward of a bitmap as (first column, last column, count) arrays."""
    rows = bitmap[top:]
    return rows.argmax(axis=1), 639 - rows[:, ::-1].argmax(axis=1), rows.sum(axis=1)


@settings(deadline=None, max_examples=200)
@given(height_px=HEIGHT_PX, width_px=WIDTH_PX, turgor=st.floats(0.0, 1.0),
       canopy_fraction=st.one_of(st.just(0.7), st.floats(0.0, 1.0, exclude_min=True,
                                                         exclude_max=True)),
       stem_fraction=st.one_of(st.just(0.15), st.floats(0.0, 1.0, exclude_min=True)))
@example(height_px=0.3, width_px=0.2, turgor=1.0, canopy_fraction=0.7, stem_fraction=0.15)
@example(height_px=480.0, width_px=640.0, turgor=1.0, canopy_fraction=0.7, stem_fraction=0.15)
@example(height_px=480.0, width_px=640.0, turgor=1.0, canopy_fraction=0.5, stem_fraction=1.0)
@example(height_px=300.0, width_px=5.0, turgor=0.0, canopy_fraction=0.7, stem_fraction=0.15)
# A row whose closed-form half-width lands one pixel short of the per-pixel test's.
@example(height_px=449.31984715336944, width_px=348.9937453059826, turgor=1.0,
         canopy_fraction=0.7, stem_fraction=0.15)
# A canopy so flat that the ellipse test overflows: only the equator chord and the stem.
@example(height_px=84.4, width_px=98.8, turgor=1.0, canopy_fraction=5e-324, stem_fraction=0.15)
def test_runs_equal_the_bitmap_oracle(height_px, width_px, turgor, canopy_fraction,
                                      stem_fraction):
    cam = replace(CFG.camera(), canopy_fraction=canopy_fraction, stem_fraction=stem_fraction)
    scale = cam.focal_px / 100.0
    plant = plant_of(height_px / scale, width_px / scale, turgor)
    try:
        frame, truth = shoot(plant, cam, 100.0)
    except FrameFitError:  # float rounding put the plant a hair past the edge
        assume(False)
    expected = rasterize(cam, plant.height_cm * scale, effective_width(plant, GP) * scale)

    runs = frame.runs
    plant_rows = np.flatnonzero(expected.any(axis=1))
    assert runs.top == plant_rows[0]
    assert runs.top + len(runs.count) == 480
    first, last, count = _bitmap_rows(expected, runs.top)
    assert (runs.count == count).all()
    has = count > 0
    assert (runs.first[has] == first[has]).all() and (runs.last[has] == last[has]).all()
    assert (count[has] == last[has] - first[has] + 1).all()  # one run per row
    assert (runs.first[~has] > runs.last[~has]).all()

    assert (frame.silhouette == expected).all()
    plant_cols = np.flatnonzero(expected.any(axis=0))
    want = (int(plant_rows[-1] - plant_rows[0] + 1), int(plant_cols[-1] - plant_cols[0] + 1),
            int(expected.sum()))
    assert (truth.height_px, truth.width_px, truth.plant_pixel_count) == want
    m = measure(segment(frame, CFG["vision.red_margin"]), 100.0, cam, min_plant_pixels=1)
    assert (m.height_px, m.width_px, m.plant_pixel_count) == want
    assert RowMask.from_array(expected).extents == want


class TestOverlapFlag:
    def test_all_narrower_than_spacing(self):
        assert overlap_flag(np.full(5, 30.0), 40.0) is False

    def test_one_wide_plant_trips(self):
        assert overlap_flag(np.array([30.0, 45.0]), 40.0) is True

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            overlap_flag(np.array([30.0]), 0.0)

    def test_default_calibration_first_trips_between_day_40_and_50(self, growth_params,
                                                                    no_demand):
        groups = [make_seedling(growth_params, band,
                                np.array([plant_rate_scale(42, gi, i, growth_params)
                                          for i in range(20)]))
                  for gi, band in enumerate(EcBand)]
        first = None
        for day in range(56):
            t_cap = (day + 1) * 1440.0
            groups = [advance(g, t_cap - g.age_min, no_demand, params=growth_params)
                      for g in groups]
            if any(overlap_flag(effective_width(g, growth_params), 40.0) for g in groups):
                first = day
                break
        assert first is not None and 40 < first < 50, f"overlap first tripped at day {first}"


def test_camera_config_validation(camera):
    with pytest.raises(TypeError):  # the frame is always 640x480
        replace(camera, frame_w=320)
    with pytest.raises(TypeError):  # and its colours are fixed
        replace(camera, background=(0, 0, 0))
    with pytest.raises(ConfigError, match="camera.focal_px"):
        parse_config("camera.focal_px = 0\n")
    with pytest.raises(ConfigError, match="camera.noise_amplitude"):
        parse_config("camera.noise_amplitude = 300\n")
