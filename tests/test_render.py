"""Silhouette rendering and the camera distance schedule."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.config import ConfigError, default_config, parse_config
from fertisim.growth import sizes
from fertisim import render as render_module
from fertisim.render import (
    BACKGROUND,
    PLANT_COLOR,
    FrameFitError,
    RowMask,
    capture_distance,
    project,
    render,
)
from fertisim.seeding import key_hash
from fertisim.vision import measure, segment
from oracle import HEIGHT_PX, WIDTH_PX, paint, rasterize, transplant


CFG = default_config()
GP = CFG.growth_params()


def plant_of(height_cm, width_cm, turgor=1.0):
    """A transplanted plant, as ``sizes``'s (state, params) arguments."""
    return transplant(GP, height_cm, width_cm, turgor)


def shoot(plant, cam, distance_cm, noise_key=(0, 0)):
    """Frame a plant at its visible width as a population of one, as the scenarios do."""
    height, width = sizes(*plant)
    runs = project([height], [width], cam, distance_cm)
    return render(runs[0], cam, noise_key)


def spec_noise(key, amplitude):
    """A frame's camera noise, from the raw words of ``PCG64(key)``: lane ``j`` of word ``w``
    is ``(w >> 16 j) & 0xFFFF``, low lane first, and each lane ``u`` draws
    ``((u * (2a + 1)) >> 16) - a``."""
    words = np.random.PCG64(key).random_raw(480 * 640 * 3 // 4)
    lanes = (words[:, None] >> np.array([0, 16, 32, 48], np.uint64)) & np.uint64(0xFFFF)
    return ((lanes.reshape(-1).astype(np.int64) * (2 * amplitude + 1)) >> 16) - amplitude


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


class TestRender:
    def test_pinhole_height(self, camera):
        _, (height_px, width_px, _) = shoot(plant_of(50.0, 25.0), camera, 100.0)
        assert abs(height_px - 240) <= 1
        assert abs(width_px - 120) <= 1

    def test_projective_scaling(self, camera):
        plant = plant_of(50.0, 25.0)
        _, near = shoot(plant, camera, 100.0)
        _, far = shoot(plant, camera, 160.0)
        assert near[0] / far[0] == pytest.approx(1.6, rel=0.02)  # height_px

    def test_tiny_plant_leaves_a_mark(self, camera):
        _, (height_px, width_px, count) = shoot(plant_of(0.1, 0.1), camera, 100.0)
        assert height_px >= 1
        assert width_px >= 1
        assert count >= 1

    def test_two_class_image(self, camera):
        frame, (_, _, count) = shoot(plant_of(60.0, 30.0), camera, 100.0)
        colors = {tuple(c) for c in frame.pixels.reshape(-1, 3)[::7]}
        assert colors <= {BACKGROUND, PLANT_COLOR}
        plant_pixels = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
        assert int(plant_pixels.sum()) == count

    def test_pixels_are_the_silhouette_in_two_colours(self, camera):
        plant = plant_of(37.0, 21.0, turgor=0.8)
        frame, (_, _, count) = shoot(plant, camera, 90.0)
        scale = camera.focal_px / 90.0
        height, width = sizes(*plant)
        expected = rasterize(camera, height * scale, width * scale)
        assert (paint(frame.runs) == expected).all()

        is_plant = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
        is_background = (frame.pixels == np.array(BACKGROUND, np.uint8)).all(axis=2)
        assert (is_plant == expected).all()
        assert (is_background == ~expected).all()
        assert int(is_plant.sum()) == count

    def test_buffer_shape_and_size(self, camera):
        frame, _ = shoot(plant_of(40.0, 20.0), camera, 100.0)
        assert frame.pixels.shape == (480, 640, 3)
        assert frame.pixels.nbytes == 921600

    def test_projection_linearity(self, camera):
        for distance in (30.0, 70.0, 100.0, 170.0):
            plant = plant_of(25.0, 14.0)
            _, (height_px, _, _) = shoot(plant, camera, distance)
            recovered = height_px * distance / camera.focal_px
            assert abs(recovered - sizes(*plant)[0]) <= 1.0 * distance / camera.focal_px

    def test_deterministic(self, camera):
        a, ta = shoot(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        b, tb = shoot(plant_of(33.3, 17.7, 0.85), camera, 90.0)
        assert ta == tb
        assert a.pixels.tobytes() == b.pixels.tobytes()

    def test_noise_is_seeded(self, camera):
        # Each capture's noise is keyed by the noise seed, its minute and its plant.
        cam = replace(camera, noise_amplitude=20, noise_seed=9)

        def noisy_bytes(cam, key):
            return shoot(plant_of(40.0, 20.0), cam, 100.0, key)[0].pixels.tobytes()

        base = noisy_bytes(cam, (600, 3))
        assert noisy_bytes(cam, (600, 3)) == base
        assert noisy_bytes(cam, (601, 3)) != base
        assert noisy_bytes(cam, (600, 4)) != base
        assert noisy_bytes(replace(cam, noise_seed=10), (600, 3)) != base

    @pytest.mark.parametrize("amplitude", [0, 1, 20, 120, 255])
    @pytest.mark.parametrize("plant, box_px", [(plant_of(40.0, 20.0, 0.9), (192, 96)),
                                               (plant_of(100.0, 400 / 3), (480, 640))],
                             ids=["plant", "whole-frame"])
    def test_noise_is_added_to_the_noiseless_frame(self, camera, amplitude, plant, box_px):
        # The key's int16 noise plus the two-colour frame, clipped to 0..255. At
        # 100 cm the second plant is 480 x 640 px, so its colour reaches every edge.
        cam = replace(camera, noise_amplitude=amplitude, noise_seed=9)
        noisy, _ = shoot(plant, cam, 100.0, (600, 3))
        clean, extents = shoot(plant, camera, 100.0, (600, 3))
        assert extents[:2] == box_px
        noise = spec_noise(key_hash(9, 600, 3), amplitude).reshape(480, 640, 3)
        assert (noisy.pixels == np.clip(clean.pixels + noise, 0, 255)).all()

    @pytest.mark.parametrize("amplitude", [1, 20, 255])
    def test_noise_spans_exactly_its_amplitude(self, camera, amplitude):
        # On the background (255, 0, 0), the noise's full range shows clipped on one side:
        # G spans [0, a] and R spans [255 - a, 255].
        cam = replace(camera, noise_amplitude=amplitude, noise_seed=9)
        frame, _ = shoot(plant_of(40.0, 20.0), cam, 100.0, (600, 3))
        red, green = frame.pixels[~paint(frame.runs)][:, :2].T
        assert (green.min(), green.max()) == (0, amplitude)
        assert (red.min(), red.max()) == (255 - amplitude, 255)

    def test_zero_amplitude_draws_zeros(self, camera, monkeypatch):
        # The two-colour frame, drawn without constructing the noise stream.
        def no_stream(key):
            raise AssertionError("amplitude 0 constructed a noise stream")

        monkeypatch.setattr(np.random, "PCG64", no_stream)
        frame, _ = shoot(plant_of(40.0, 20.0), replace(camera, noise_seed=9), 100.0, (600, 3))
        assert frame.cam.noise_amplitude == 0
        expected = np.where(paint(frame.runs)[..., None], PLANT_COLOR, BACKGROUND)
        assert (frame.pixels == expected).all()

    @pytest.mark.parametrize("block_rows", [1, 7, 48, 60, 480])
    def test_noise_does_not_depend_on_the_block_size(self, camera, monkeypatch, block_rows):
        # 7 leaves a short last block; 60 is the shipped size; 480 is the whole frame in
        # one block. The silhouette's top row, 283, falls inside a block for every size but 1.
        monkeypatch.setattr(render_module, "_BLOCK_ROWS", block_rows)
        cam = replace(camera, noise_amplitude=255, noise_seed=9)
        noisy, _ = shoot(plant_of(41.0, 20.0, 0.9), cam, 100.0, (600, 3))
        clean, _ = shoot(plant_of(41.0, 20.0, 0.9), camera, 100.0, (600, 3))
        assert noisy.runs.top == 283
        noise = spec_noise(key_hash(9, 600, 3), 255).reshape(480, 640, 3)
        assert (noisy.pixels == np.clip(clean.pixels + noise, 0, 255)).all()

    def test_noise_is_drawn_only_when_pixels_are_read(self, camera, monkeypatch):
        # Not even the generator's seed is hashed before the pixels are read.
        hashed = []
        monkeypatch.setattr(render_module, "key_hash",
                            lambda *parts: hashed.append(parts) or key_hash(*parts))
        cam = replace(camera, noise_amplitude=20, noise_seed=9)
        frame, _ = shoot(plant_of(40.0, 20.0), cam, 100.0, (600, 3))
        segment(frame, CFG["vision.red_margin"], cleanup=True)
        assert hashed == []
        assert frame.pixels is frame.pixels  # drawn once, then cached
        assert hashed == [(9, 600, 3)]

    def test_plant_exceeding_frame_rejected(self, camera):
        with pytest.raises(FrameFitError):
            shoot(plant_of(200.0, 30.0), camera, 100.0)  # 960 px tall
        with pytest.raises(FrameFitError):
            shoot(plant_of(50.0, 140.0), camera, 100.0)  # 672 px wide

    def test_wilt_shrinks_width_not_height(self, camera):
        _, (fresh_h, fresh_w, _) = shoot(plant_of(60.0, 30.0, turgor=1.0), camera, 100.0)
        _, (wilted_h, wilted_w, _) = shoot(plant_of(60.0, 30.0, turgor=0.0), camera, 100.0)
        assert wilted_w < fresh_w
        assert wilted_h == fresh_h


def _bitmap_rows(bitmap, top):
    """Rows ``top`` onward of a bitmap as (first column, last column, count) arrays."""
    rows = bitmap[top:]
    return rows.argmax(axis=1), 639 - rows[:, ::-1].argmax(axis=1), rows.sum(axis=1)


def _crowd(height_px, width_px, turgor):
    """A population of 18 with the plant second in the second pass, after a 480 px tall one."""
    fillers = [(480.0, 30.0, 1.0), (2.0, 1.0, 0.5), (0.4, 300.0, 0.0), (150.0, 640.0, 0.7)] * 4
    return fillers + [(480.0, 10.0, 1.0), (height_px, width_px, turgor)]


_PLANTS = st.lists(st.tuples(HEIGHT_PX, WIDTH_PX, st.floats(0.0, 1.0)), min_size=1, max_size=40)


@settings(deadline=None, max_examples=150)
@given(plants=_PLANTS,
       canopy_fraction=st.one_of(st.just(0.7), st.floats(0.0, 1.0, exclude_min=True,
                                                         exclude_max=True)),
       stem_fraction=st.one_of(st.just(0.15), st.floats(0.0, 1.0, exclude_min=True)))
@example(plants=_crowd(0.3, 0.2, 1.0), canopy_fraction=0.7, stem_fraction=0.15)
@example(plants=_crowd(480.0, 640.0, 1.0), canopy_fraction=0.7, stem_fraction=0.15)
@example(plants=_crowd(480.0, 640.0, 1.0), canopy_fraction=0.5, stem_fraction=1.0)
@example(plants=_crowd(300.0, 5.0, 0.0), canopy_fraction=0.7, stem_fraction=0.15)
# A row whose closed-form half-width lands one pixel short of the per-pixel test's.
@example(plants=_crowd(449.31984715336944, 348.9937453059826, 1.0), canopy_fraction=0.7,
         stem_fraction=0.15)
# A canopy so flat that the ellipse test overflows: only the equator chord and the stem.
@example(plants=_crowd(84.4, 98.8, 1.0), canopy_fraction=5e-324, stem_fraction=0.15)
def test_runs_equal_the_bitmap_oracle(plants, canopy_fraction, stem_fraction):
    # Each plant of a population, drawn in passes together with its neighbours,
    # has the runs of the per-pixel oracle and of the same plant projected alone.
    cam = replace(CFG.camera(), canopy_fraction=canopy_fraction, stem_fraction=stem_fraction)
    scale = cam.focal_px / 100.0
    population = [plant_of(h / scale, w / scale, turgor) for h, w, turgor in plants]
    # Float rounding can put a plant a hair past the edge.
    population = [p for p in population if sizes(*p)[0] * scale <= 480.0
                  and sizes(*p)[1] * scale <= 640.0]
    assume(population)
    heights = np.array([sizes(*p)[0] for p in population])
    widths = np.array([sizes(*p)[1] for p in population])
    silhouettes = project(heights, widths, cam, 100.0)
    assert len(silhouettes) == len(population)

    for i, (plant, runs) in enumerate(zip(population, silhouettes)):
        height, width = sizes(*plant)
        expected = rasterize(cam, height * scale, width * scale)
        plant_rows = np.flatnonzero(expected.any(axis=1))
        assert runs.top == plant_rows[0]
        assert runs.top + len(runs.count) == 480
        first, last, count = _bitmap_rows(expected, runs.top)
        assert (runs.count == count).all()
        has = count > 0
        assert (first[has] == 320 - count[has] // 2).all()  # the layout Frame draws
        assert (count[has] == last[has] - first[has] + 1).all()  # one run per row
        plant_cols = np.flatnonzero(expected.any(axis=0))
        want = (int(plant_rows[-1] - plant_rows[0] + 1), int(plant_cols[-1] - plant_cols[0] + 1),
                int(expected.sum()))
        assert runs.extents == want

        alone = project(heights[i:i + 1], widths[i:i + 1], cam, 100.0)[0]
        assert alone.top == runs.top and alone.extents == runs.extents
        assert (alone.count == runs.count).all()

    # The last plant through the whole frame path, as a population of one.
    frame, extents = shoot(population[-1], cam, 100.0)
    assert extents == want
    assert (paint(frame.runs) == expected).all()
    is_plant = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
    assert (is_plant == expected).all()  # the drawn frame, the sub-pixel mark included
    m = measure(segment(frame, CFG["vision.red_margin"]), 100.0, cam, min_plant_pixels=1)
    cm_per_px = 100.0 / cam.focal_px
    assert (m.height_cm, m.width_cm, m.plant_pixel_count) == (
        want[0] * cm_per_px, want[1] * cm_per_px, want[2])
    assert RowMask.from_array(expected).extents == want


def test_population_names_its_first_plant_that_does_not_fit(camera):
    # Plants 20 and 23 project past the frame's height and width; plant 20 is named.
    heights = np.full(30, 50.0)
    widths = np.full(30, 25.0)
    heights[20] = 200.0  # 960 px tall at 100 cm
    widths[23] = 140.0  # 672 px wide
    with pytest.raises(FrameFitError, match=r"^plant projects to 960\.0x120\.0 px at 100 cm;"):
        project(heights, widths, camera, 100.0)
    with pytest.raises(FrameFitError, match=r"^plant projects to 240\.0x672\.0 px at 100 cm;"):
        project(heights[21:], widths[21:], camera, 100.0)


def test_camera_config_validation(camera):
    with pytest.raises(TypeError):  # the frame is always 640x480
        replace(camera, frame_w=320)
    with pytest.raises(TypeError):  # and its colours are fixed
        replace(camera, background=(0, 0, 0))
    with pytest.raises(ConfigError, match="camera.focal_px"):
        parse_config("camera.focal_px = 0\n")
    with pytest.raises(ConfigError, match="camera.noise_amplitude"):
        parse_config("camera.noise_amplitude = 300\n")


@pytest.mark.parametrize("amplitude", [1, 20, 255])
def test_concurrent_draws_equal_serial_draws(camera, amplitude):
    # At 255 the clip binds at both ends, on the plant and on the background.
    cam = replace(camera, noise_amplitude=amplitude, noise_seed=11)
    runs = project([40.0], [20.0], cam, 100.0)[0]
    keys = [(43200 + k, k % 3) for k in range(64)]
    serial = [render(runs, cam, key)[0].pixels for key in keys]
    frames = [render(runs, cam, key)[0] for key in keys]
    with ThreadPoolExecutor(2) as pool:
        drawn = list(pool.map(lambda frame: frame.pixels, frames))
    for key, a, b in zip(keys, serial, drawn):
        for pixels in (a, b):
            assert pixels.shape == (480, 640, 3) and pixels.dtype == np.uint8, key
            assert pixels.flags.c_contiguous, key
        assert a.tobytes() == b.tobytes(), key


def test_many_threads_reading_one_frame_get_one_image(camera):
    # The pixel cache takes no lock: threads that race on one frame may each
    # draw it, but every one of them must see the same bytes.
    cam = replace(camera, noise_amplitude=20, noise_seed=11)
    runs = project([40.0], [20.0], cam, 100.0)[0]
    want = [render(runs, cam, (k, 0))[0].pixels.tobytes() for k in range(4)]
    frames = [render(runs, cam, (k, 0))[0] for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda i: frames[i % 4].pixels.tobytes(), range(32)))
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % 4] for i in range(32)]


def test_a_noisy_draw_holds_no_second_frame_sized_copy(camera):
    # The frame is drawn a block of rows at a time into its uint8 output (921,600 B):
    # a frame-sized int16 noise buffer (1,843,200 B) alone would reach the bound.
    cam = replace(camera, noise_amplitude=20, noise_seed=9)
    shoot(plant_of(40.0, 20.0), cam, 100.0, (600, 2))[0].pixels  # imports np.random, untraced
    frame, _ = shoot(plant_of(40.0, 20.0), cam, 100.0, (600, 3))
    tracemalloc.start()
    try:
        frame.pixels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 480 * 640 * 3 * 2
