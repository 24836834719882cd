"""Silhouette rendering and the camera distance schedule."""

import numpy as np
import pytest

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
    _rasterize,
    capture_distance,
    overlap_flag,
    render,
)


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
        silhouette, r, c = _rasterize(cam, plant.height_cm * scale,
                                      effective_width(plant) * scale)
        assert frame.origin == (r, c)
        assert (frame.silhouette == silhouette).all()

        expected = np.zeros((480, 640), bool)
        expected[r:r + silhouette.shape[0], c:c + silhouette.shape[1]] = silhouette
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
