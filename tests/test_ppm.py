"""PPM file format round trip and strictness."""

import numpy as np
import pytest

from fertisim.growth import sizes
from fertisim.ppm import PpmFormatError, read_ppm, write_ppm
from fertisim.render import project, render
from oracle import transplant


@pytest.fixture
def frame(camera, growth_params):
    height, width = sizes(*transplant(growth_params, 50, 25, turgor=0.9))
    runs = project([height], [width], camera, 100.0)
    return render(runs[0], camera, (0, 0))[0]


def test_round_trip_is_byte_identical(frame, tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(frame, str(path))
    back = read_ppm(str(path), distance_cm=100.0)
    assert back.pixels.tobytes() == frame.pixels.tobytes()


def test_header_layout(frame, tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(frame, str(path))
    data = path.read_bytes()
    assert data.startswith(b"P6\n640 480\n255\n")
    assert len(data) == len(b"P6\n640 480\n255\n") + 640 * 480 * 3


def test_ascii_ppm_rejected(tmp_path):
    path = tmp_path / "ascii.ppm"
    path.write_bytes(b"P3\n640 480\n255\n" + b"0 0 0 " * 10)
    with pytest.raises(PpmFormatError, match="P6"):
        read_ppm(str(path))


def test_truncated_data_rejected(frame, tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(frame, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-100])
    with pytest.raises(PpmFormatError, match="pixel bytes"):
        read_ppm(str(path))


def test_trailing_garbage_rejected(frame, tmp_path):
    path = tmp_path / "frame.ppm"
    write_ppm(frame, str(path))
    with open(path, "ab") as fh:
        fh.write(b"extra")
    with pytest.raises(PpmFormatError):
        read_ppm(str(path))


def test_wrong_dimensions_rejected(tmp_path):
    path = tmp_path / "small.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(PpmFormatError, match="640x480"):
        read_ppm(str(path))


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n640 480\n65535\n" + bytes(640 * 480 * 3))
    with pytest.raises(PpmFormatError, match="maxval"):
        read_ppm(str(path))


def test_header_comments_allowed(tmp_path):
    payload = np.zeros((480, 640, 3), np.uint8).tobytes()
    path = tmp_path / "commented.ppm"
    path.write_bytes(b"P6\n# a comment\n640 480\n255\n" + payload)
    frame = read_ppm(str(path))
    assert frame.pixels.shape == (480, 640, 3)
