"""Segmentation and morphometry against the renderer's ground truth."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fertisim.config import default_config
from fertisim.control import ControllerState, spa_tick
from fertisim.growth import sizes
from fertisim.render import (
    BACKGROUND,
    PLANT_COLOR,
    Frame,
    FrameFitError,
    RowMask,
    project,
    render,
)
from fertisim.vision import (
    Morphometry,
    NoPlantDetected,
    _keeps_classes,
    _majority_filter,
    _plant_pixels,
    measure,
    segment,
)
from oracle import HEIGHT_PX, WIDTH_PX, paint, rows, transplant

CFG = default_config()
GP = CFG.growth_params()
MARGIN = CFG["vision.red_margin"]
MIN_PIXELS = CFG["vision.min_plant_pixels"]


def shoot(height_cm, width_cm, cam, distance_cm, turgor=1.0):
    """Render a plant at its visible width, as the scenarios do."""
    runs = project([height_cm], [sizes(*transplant(GP, height_cm, width_cm, turgor))[1]], cam,
                   distance_cm)
    return render(runs[0], cam, (0, 0))


def pixel_path(frame, margin, cleanup):
    """The bitmap that ``segment``'s per-pixel path reduces to rows: the frame's
    plant pixels, majority-filtered with ``cleanup``."""
    bitmap = _plant_pixels(frame.pixels, margin)
    return _majority_filter(bitmap) if cleanup else bitmap


def uniform_frame(colour):
    pixels = np.empty((480, 640, 3), np.uint8)
    pixels[:] = np.array(colour, np.uint8)
    return Frame(pixels=pixels, distance_cm=100.0)


class TestSegment:
    def test_noiseless_mask_matches_silhouette_exactly(self, camera):
        frame, (_, _, count) = shoot(60.0, 30.0, camera, 100.0)
        mask = paint(segment(frame, MARGIN))
        drawn = (frame.pixels == np.array(PLANT_COLOR, np.uint8)).all(axis=2)
        assert (mask == drawn).all()
        assert int(mask.sum()) == count

    def test_pure_red_frame_is_all_background(self):
        assert not paint(segment(uniform_frame(BACKGROUND), MARGIN)).any()

    def test_noisy_mask_close_to_ground_truth(self, camera):
        cam_noisy = replace(camera, noise_amplitude=20, noise_seed=3)
        clean_mask = paint(segment(shoot(60.0, 30.0, camera, 100.0)[0], MARGIN))
        noisy_mask = paint(segment(shoot(60.0, 30.0, cam_noisy, 100.0)[0], MARGIN, cleanup=True))
        differing = int((clean_mask != noisy_mask).sum())
        assert differing < 0.005 * int(clean_mask.sum())

    def test_mask_shape_matches_frame(self):
        mask = segment(uniform_frame(BACKGROUND), MARGIN)
        assert mask.size == 480 * 640

    def test_fixed_colours_class_as_background_and_plant_at_every_margin(self, camera):
        # What lets segment return a run frame's own runs without testing a colour.
        frame, _ = shoot(60.0, 30.0, camera, 100.0)
        whole = Frame(pixels=frame.pixels, distance_cm=100.0)
        drawn = paint(frame.runs)
        for margin in range(256):
            assert (pixel_path(whole, margin, False) == drawn).all(), margin
            mask = segment(whole, margin)
            assert (rows(mask), mask.extents) == (rows(frame.runs), frame.runs.extents), margin


_RGB = st.tuples(*[st.integers(0, 255)] * 3)


@settings(deadline=None, max_examples=60)
@given(colour=_RGB, margin=st.integers(0, 255))
@example(colour=BACKGROUND, margin=MARGIN)
@example(colour=PLANT_COLOR, margin=MARGIN)
@example(colour=(200, 50, 50), margin=MARGIN)  # red-dominant by exactly 150
def test_uniform_frame_is_one_class(colour, margin):
    # The whole-frame path measure-image takes for any PPM, without cleanup.
    r, g, b = colour
    is_plant = not (r - g >= margin and r - b >= margin)
    frame = uniform_frame(colour)
    assert (pixel_path(frame, margin, False) == is_plant).all()
    mask = segment(frame, margin)
    assert (paint(mask) == is_plant).all()
    assert rows(mask) == ([(row, 640) for row in range(480)] if is_plant else [])
    assert mask.extents == ((480, 640, 480 * 640) if is_plant else (0, 0, 0))


@settings(deadline=None, max_examples=150)
@given(height_px=HEIGHT_PX, width_px=WIDTH_PX, distance=st.floats(30.0, 170.0),
       margin=st.integers(0, 255), cleanup=st.booleans())
@example(height_px=300.0, width_px=200.0, distance=100.0, margin=0, cleanup=False)
@example(height_px=300.0, width_px=200.0, distance=100.0, margin=255, cleanup=True)
def test_patch_frame_matches_whole_frame(height_px, width_px, distance, margin, cleanup, camera):
    scale = camera.focal_px / distance
    try:
        frame, _ = render(project([height_px / scale], [width_px / scale], camera, distance)[0],
                          camera, (0, 0))
    except FrameFitError:  # float rounding put the plant a hair past the edge
        assume(False)
    whole = Frame(pixels=frame.pixels, distance_cm=distance)

    mask = segment(frame, margin, cleanup)
    whole_mask = segment(whole, margin, cleanup)
    assert mask.size == whole_mask.size == 480 * 640
    assert (pixel_path(whole, margin, cleanup) == paint(mask)).all()
    assert (rows(mask), mask.extents) == (rows(whole_mask), whole_mask.extents)

    def measured(m):
        try:
            return measure(m, distance, camera, MIN_PIXELS)
        except NoPlantDetected:
            return None

    assert measured(mask) == measured(whole_mask)


def _measured(mask, distance, cam):
    try:
        return measure(mask, distance, cam, MIN_PIXELS)
    except NoPlantDetected:
        return None


@settings(deadline=None, max_examples=60)
@given(height_px=HEIGHT_PX, width_px=WIDTH_PX, amplitude=st.integers(0, 255),
       noise_seed=st.integers(0, 2**64 - 1), minute=st.integers(0, 10**6),
       plant=st.integers(0, 299), margin=st.integers(0, 255), cleanup=st.booleans())
# At margin 60 the background flips class between amplitudes 97 and 98, the
# plant between 109 and 110.
@example(height_px=300.0, width_px=200.0, amplitude=97, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=True)
@example(height_px=300.0, width_px=200.0, amplitude=98, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=True)
@example(height_px=300.0, width_px=200.0, amplitude=109, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=False)
@example(height_px=300.0, width_px=200.0, amplitude=110, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=False)
@example(height_px=480.0, width_px=640.0, amplitude=20, noise_seed=42, minute=43680, plant=0,
         margin=60, cleanup=True)  # a plant touching the frame's top and sides
# Noisy frames filtered on their runs: the sub-pixel mark, a plant 2 px wide, and a
# plant 5 px wide whose stem, under one pixel, leaves its lowest rows empty.
@example(height_px=0.5, width_px=0.5, amplitude=20, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=True)
@example(height_px=300.0, width_px=2.0, amplitude=20, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=True)
@example(height_px=300.0, width_px=5.0, amplitude=20, noise_seed=0, minute=0, plant=0,
         margin=60, cleanup=True)
def test_noisy_run_frame_matches_its_pixels(height_px, width_px, amplitude, noise_seed, minute,
                                            plant, margin, cleanup, camera):
    # Segmenting a noisy render, which may skip drawing its noise, gives the
    # mask and measurement of its drawn pixels tested one by one.
    cam = replace(camera, noise_amplitude=amplitude, noise_seed=noise_seed)
    distance = 100.0
    scale = cam.focal_px / distance
    try:
        frame, _ = render(project([height_px / scale], [width_px / scale], cam, distance)[0], cam,
                          (minute, plant))
    except FrameFitError:  # float rounding put the plant a hair past the edge
        assume(False)
    mask = segment(frame, margin, cleanup)
    whole = Frame(pixels=frame.pixels, distance_cm=distance)
    whole_mask = segment(whole, margin, cleanup)
    assert (rows(mask), mask.extents) == (rows(whole_mask), whole_mask.extents)
    # Where noise moves a colour's class, a row of the pixel-tested mask can hold several runs.
    if _keeps_classes(amplitude, margin):
        assert (pixel_path(whole, margin, cleanup) == paint(mask)).all()
    assert _measured(mask, distance, cam) == _measured(whole_mask, distance, cam)


def test_corner_rule_matches_every_colour_in_the_noise_box():
    # _keeps_classes reads each colour's noise box at its eight corners; here
    # every colour of both boxes is tested one by one. At margin 60 the
    # background's box stays background up to amplitude 97 and the plant's
    # stays plant up to 109; at amplitude 100 the plant's box decides at
    # margins 40/41 and the background's at 55/56.
    cases = {0: (0, 1, 60, 255), 1: (0, 60, 253, 254), 9: (0, 60, 237, 238),
             80: (0, 1, 60, 95, 96), 97: (60,), 98: (60,), 100: (40, 41, 55, 56),
             109: (60,), 110: (60,), 130: (0, 60, 101, 255)}
    pure = {}
    for amplitude, margins in cases.items():
        boxes = []
        for colour in (BACKGROUND, PLANT_COLOR):
            channels = [np.clip(np.arange(c - amplitude, c + amplitude + 1), 0, 255).astype(np.uint8)
                        for c in colour]
            boxes.append(np.stack(np.meshgrid(*channels, indexing="ij"), -1).reshape(-1, 1, 3))
        for margin in margins:
            background, plant = (_plant_pixels(box, margin) for box in boxes)
            pure[amplitude, margin] = (not background.any(), bool(plant.all()))
            assert _keeps_classes(amplitude, margin) == all(pure[amplitude, margin]), \
                (amplitude, margin)
    assert [pure[a, 60] for a in (97, 98, 109, 110)] == [
        (True, True), (False, True), (False, True), (False, False)]
    assert [pure[100, m] for m in (40, 41, 55, 56)] == [
        (True, False), (True, True), (True, True), (False, True)]


@settings(deadline=None, max_examples=100)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_majority_filter_counts_each_neighbourhood(shape, density, seed):
    mask = np.random.default_rng(seed).random(shape) < density
    padded = np.pad(mask, 1)
    want = np.array([[padded[r:r + 3, c:c + 3].sum() >= 5 for c in range(shape[1])]
                     for r in range(shape[0])], dtype=bool).reshape(shape)
    assert (_majority_filter(mask) == want).all()


def _centred(top, half_widths):
    """A silhouette of centred runs: row ``top + i`` is ``half_widths[i]`` pixels each side."""
    n = np.array(half_widths)
    has = np.flatnonzero(n)
    extents = ((int(has[-1] - has[0] + 1), 2 * int(n.max()), 2 * int(n.sum())) if has.size
               else (0, 0, 0))
    return RowMask(top, 2 * n, extents)


# Half-widths, narrow ones (and empty rows) often; a profile ends on the frame's last row.
_PROFILE = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 320)), min_size=1, max_size=480)


@settings(deadline=None, max_examples=150)
@given(half_widths=_PROFILE)
@example(half_widths=[0] * 479 + [1])  # two pixels: nothing survives
@example(half_widths=[5, 5, 0, 5, 5] + [0] * 475)  # from row 0, with an empty row between
@example(half_widths=[320] * 480)  # the whole frame
@example(half_widths=[320, 1, 320, 2, 3, 2, 1, 0, 0, 1])
def test_run_filter_matches_the_pixel_filter(half_widths):
    # The majority filter computed on half-widths, row for row against the
    # per-pixel filter over the painted silhouette, reduced to rows.
    runs = _centred(480 - len(half_widths), half_widths)
    filtered = _majority_filter(paint(runs))
    got = runs.majority_filtered()
    want = RowMask.from_array(filtered)
    assert got.extents == want.extents
    assert rows(got) == rows(want)
    if want.extents[2]:
        assert (got.top, got.count.size) == (want.top, want.count.size)
    assert (paint(got) == filtered).all()


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
    return Morphometry(height_cm=height_px * px_to_cm, width_cm=width_px * px_to_cm,
                       plant_pixel_count=count)


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
    row_mask = RowMask.from_array(mask)
    counts = np.zeros(480, int)
    counts[row_mask.top:row_mask.top + row_mask.count.size] = row_mask.count
    assert (counts == mask.sum(axis=1)).all()
    try:
        got = measure(row_mask, 100.0, camera, min_plant_pixels)
    except NoPlantDetected:
        got = None
    assert got == _full_scan(mask, 100.0, camera, min_plant_pixels)


class TestMeasure:
    def test_bounding_box_arithmetic(self, camera):
        mask = np.zeros((480, 640), bool)
        mask[100:340, 200:320] = True  # 240 x 120 px
        m = measure(RowMask.from_array(mask), 100.0, camera, MIN_PIXELS)
        cm_per_px = 100.0 / camera.focal_px
        assert (m.height_cm, m.width_cm) == (240 * cm_per_px, 120 * cm_per_px)
        assert m.height_cm == pytest.approx(50.0)
        assert m.width_cm == pytest.approx(25.0)
        assert m.plant_pixel_count == 240 * 120

    def test_roundtrip_equals_ground_truth(self, camera):
        for turgor in (1.0, 0.8, 0.4):
            frame, extents = shoot(57.3, 28.1, camera, 110.0, turgor)
            m = measure(segment(frame, MARGIN), 110.0, camera, MIN_PIXELS)
            cm_per_px = 110.0 / camera.focal_px
            assert m == Morphometry(extents[0] * cm_per_px, extents[1] * cm_per_px, extents[2])

    def test_physical_extents_within_one_pixel(self, camera):
        distance = 110.0
        frame, _ = shoot(57.3, 28.1, camera, distance, 0.9)
        m = measure(segment(frame, MARGIN), distance, camera, MIN_PIXELS)
        cm_per_px = distance / camera.focal_px
        assert abs(m.height_cm - 57.3) <= cm_per_px
        assert abs(m.width_cm - 28.1 * 0.99) <= cm_per_px

    def test_distance_invariance(self, camera):
        out = []
        for d in (100.0, 160.0):
            frame, _ = shoot(50.0, 25.0, camera, d)
            out.append(measure(segment(frame, MARGIN), d, camera, MIN_PIXELS))
        assert out[0].height_cm == pytest.approx(out[1].height_cm, rel=0.02)

    def test_small_mask_raises(self, camera):
        mask = np.zeros((480, 640), bool)
        mask[10, 10:20] = True  # 10 pixels
        with pytest.raises(NoPlantDetected):
            measure(RowMask.from_array(mask), 100.0, camera, min_plant_pixels=25)

    def test_empty_frame_raises(self, camera):
        with pytest.raises(NoPlantDetected):
            measure(segment(uniform_frame(BACKGROUND), MARGIN), 100.0, camera, MIN_PIXELS)

    def test_shrinking_plant_measures_narrower(self, camera):
        widths = []
        for turgor in (1.0, 0.7, 0.4, 0.1):
            frame, _ = shoot(60.0, 30.0, camera, 100.0, turgor)
            widths.append(measure(segment(frame, MARGIN), 100.0, camera, MIN_PIXELS).width_cm)
        assert all(b < a for a, b in zip(widths, widths[1:]))
        heights = set()
        for turgor in (1.0, 0.4):
            frame, _ = shoot(60.0, 30.0, camera, 100.0, turgor)
            heights.add(measure(segment(frame, MARGIN), 100.0, camera, MIN_PIXELS).height_cm)
        assert len(heights) == 1


def wilt_degree(reference_width_cm, width_cm):
    """The wilt rule's degree for ``width_cm`` sampled after a day's first sample anchored
    ``reference_width_cm``."""
    schedule, threshold = CFG.schedule(), CFG["control.wilt_threshold"]
    state, _ = spa_tick(ControllerState(), reference_width_cm, 480.0, schedule, threshold)
    return spa_tick(state, width_cm, 495.0, schedule, threshold)[0].wilt_degree


class TestWiltDegree:
    def test_two_percent_shrink(self):
        assert wilt_degree(40.0, 39.2) == pytest.approx(0.02)

    def test_identity(self):
        assert wilt_degree(40.0, 40.0) == 0.0

    def test_fresher_than_reference_goes_negative(self):
        assert wilt_degree(40.0, 41.0) == pytest.approx(-0.025)
