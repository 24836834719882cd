"""Silhouette rendering and the camera distance schedule."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.growth import (
    DemandProfile,
    EcBand,
    PlantState,
    advance,
    effective_width,
    make_seedling,
    plant_rate_scale,
)
from fertisim.render import (
    CameraConfig,
    FrameFitError,
    RowMask,
    capture_distance,
    overlap_flag,
    render,
)
from fertisim.vision import measure, segment
from oracle import HEIGHT_PX, WIDTH_PX, rasterize


def plant_of(height_cm, width_cm, turgor=1.0):
    return PlantState(age_min=0.0, height_cm=height_cm, turgid_width_cm=width_cm,
                      turgor=turgor, band=EcBand.NORMAL)


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
        _, truth = render(plant_of(50.0, 25.0), camera, 100.0)
        assert abs(truth.height_px - 240) <= 1
        assert abs(truth.width_px - 120) <= 1

    def test_projective_scaling(self, camera):
        plant = plant_of(50.0, 25.0)
        _, near = render(plant, camera, 100.0)
        _, far = render(plant, camera, 160.0)
        assert near.height_px / far.height_px == pytest.approx(1.6, rel=0.02)

    def test_tiny_plant_leaves_a_mark(self, camera):
        _, truth = render(plant_of(0.1, 0.1), camera, 100.0)
        assert truth.height_px >= 1
        assert truth.width_px >= 1
        assert truth.plant_pixel_count >= 1

    def test_two_class_image(self, camera):
        frame, truth = render(plant_of(60.0, 30.0), camera, 100.0)
        colors = {tuple(c) for c in frame.pixels.reshape(-1, 3)[::7]}
        assert colors <= {camera.background, camera.plant_color}
        plant_pixels = (frame.pixels == np.array(camera.plant_color, np.uint8)).all(axis=2)
        assert int(plant_pixels.sum()) == truth.plant_pixel_count

    def test_pixels_are_the_silhouette_in_two_colours(self):
        cam = CameraConfig(background=(200, 10, 30), plant_color=(40, 90, 250))
        plant = plant_of(37.0, 21.0, turgor=0.8)
        frame, truth = render(plant, cam, 90.0)
        scale = cam.focal_px / 90.0
        expected = rasterize(cam, plant.height_cm * scale, effective_width(plant) * scale)
        assert (frame.silhouette == expected).all()

        is_plant = (frame.pixels == np.array(cam.plant_color, np.uint8)).all(axis=2)
        is_background = (frame.pixels == np.array(cam.background, np.uint8)).all(axis=2)
        assert (is_plant == expected).all()
        assert (is_background == ~expected).all()
        assert int(is_plant.sum()) == truth.plant_pixel_count

    def test_buffer_shape_and_size(self, camera):
        frame, _ = render(plant_of(40.0, 20.0), camera, 100.0)
        assert frame.pixels.shape == (480, 640, 3)
        assert frame.pixels.nbytes == 921600

    def test_projection_linearity(self, camera):
        for distance in (30.0, 70.0, 100.0, 170.0):
            plant = plant_of(25.0, 14.0)
            _, truth = render(plant, camera, distance)
            recovered = truth.height_px * distance / camera.focal_px
            assert abs(recovered - plant.height_cm) <= 1.0 * distance / camera.focal_px

    def test_deterministic(self, camera):
        a, ta = render(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        b, tb = render(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        assert ta == tb
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_noise_is_seeded(self):
        cam = CameraConfig(noise_amplitude=20, noise_seed=9)
        a, _ = render(plant_of(40.0, 20.0), cam, 100.0)
        b, _ = render(plant_of(40.0, 20.0), cam, 100.0)
        assert a.pixels.tobytes() == b.pixels.tobytes()
        other, _ = render(plant_of(40.0, 20.0), CameraConfig(noise_amplitude=20, noise_seed=10), 100.0)
        assert a.pixels.tobytes() != other.pixels.tobytes()

    def test_plant_exceeding_frame_rejected(self, camera):
        with pytest.raises(FrameFitError):
            render(plant_of(200.0, 30.0), camera, 100.0)  # 960 px tall
        with pytest.raises(FrameFitError):
            render(plant_of(50.0, 140.0), camera, 100.0)  # 672 px wide

    def test_bad_distance_rejected(self, camera):
        with pytest.raises(ValueError):
            render(plant_of(50.0, 25.0), camera, 0.0)

    def test_wilt_shrinks_width_not_height(self, camera):
        _, fresh = render(plant_of(60.0, 30.0, turgor=1.0), camera, 100.0)
        _, wilted = render(plant_of(60.0, 30.0, turgor=0.0), camera, 100.0)
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
    cam = CameraConfig(canopy_fraction=canopy_fraction, stem_fraction=stem_fraction)
    scale = cam.focal_px / 100.0
    plant = plant_of(height_px / scale, width_px / scale, turgor)
    try:
        frame, truth = render(plant, cam, 100.0)
    except FrameFitError:  # float rounding put the plant a hair past the edge
        assume(False)
    expected = rasterize(cam, plant.height_cm * scale, effective_width(plant) * scale)

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
    m = measure(segment(frame), 100.0, cam, min_plant_pixels=1)
    assert (m.height_px, m.width_px, m.plant_pixel_count) == want
    assert RowMask.from_array(expected).extents == want


def population_of(widths_cm, height_cm=50.0):
    widths = np.array(widths_cm, dtype=float)
    return PlantState(age_min=0.0, height_cm=np.full(widths.shape, height_cm),
                      turgid_width_cm=widths, turgor=1.0, band=EcBand.NORMAL)


class TestOverlapFlag:
    def test_all_narrower_than_spacing(self):
        assert overlap_flag(population_of([30.0] * 5), 40.0) is False

    def test_one_wide_plant_trips(self):
        assert overlap_flag(population_of([30.0, 45.0]), 40.0) is True

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            overlap_flag(population_of([30.0]), 0.0)

    def test_default_calibration_first_trips_between_day_40_and_50(self, growth_params):
        no_demand = DemandProfile()
        groups = [make_seedling(growth_params, band,
                                np.array([plant_rate_scale(42, gi, i, growth_params)
                                          for i in range(20)]))
                  for gi, band in enumerate(EcBand)]
        first = None
        for day in range(56):
            t_cap = (day + 1) * 1440.0
            groups = [advance(g, t_cap - g.age_min, no_demand, params=growth_params)
                      for g in groups]
            if any(overlap_flag(g, 40.0, growth_params) for g in groups):
                first = day
                break
        assert first is not None and 40 < first < 50, f"overlap first tripped at day {first}"


def test_camera_config_validation():
    with pytest.raises(TypeError):  # the frame is always 640x480
        CameraConfig(frame_w=320)
    with pytest.raises(ValueError):
        CameraConfig(focal_px=0.0)
    with pytest.raises(ValueError):
        CameraConfig(noise_amplitude=300)
