"""Binary PPM (P6) reader and writer for 640x480 frames, byte-exact round trip."""

from __future__ import annotations

import numpy as np

from .render import FRAME_H, FRAME_W, Frame


class PpmFormatError(ValueError):
    pass


def write_ppm(frame: Frame, path: str) -> None:
    header = f"P6\n{FRAME_W} {FRAME_H}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frame.pixels))  # the buffer itself when contiguous: no copy


def read_ppm(path: str, distance_cm: float = 0.0, timestamp_min: float = 0.0) -> Frame:
    """Read a strict P6 file; dimensions must be 640x480 with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, offset = _token(data, 0)
    if magic != b"P6":
        raise PpmFormatError(f"expected P6 magic, got {magic!r}")
    fields = []
    for _ in range(3):
        tok, offset = _token(data, offset)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PpmFormatError(f"bad header token {tok!r}") from None
    width, height, maxval = fields
    if (width, height) != (FRAME_W, FRAME_H):
        raise PpmFormatError(f"expected {FRAME_W}x{FRAME_H}, got {width}x{height}")
    if maxval != 255:
        raise PpmFormatError(f"expected maxval 255, got {maxval}")
    # Exactly one whitespace byte separates the header from pixel data.
    payload = data[offset + 1:]
    expected = FRAME_W * FRAME_H * 3
    if len(payload) != expected:
        raise PpmFormatError(f"expected {expected} pixel bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(FRAME_H, FRAME_W, 3).copy()
    return Frame(pixels=pixels, distance_cm=distance_cm, timestamp_min=timestamp_min)


def _token(data: bytes, offset: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comment lines."""
    n = len(data)
    while offset < n:
        c = data[offset:offset + 1]
        if c == b"#":
            while offset < n and data[offset:offset + 1] not in (b"\n", b"\r"):
                offset += 1
        elif c.isspace():
            offset += 1
        else:
            break
    if offset >= n:
        raise PpmFormatError("truncated header")
    start = offset
    while offset < n and not data[offset:offset + 1].isspace():
        offset += 1
    return data[start:offset], offset
