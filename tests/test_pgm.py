"""The PGM/PPM writer: header, byte mapping, and a NaN pixel as a typed failure."""

import numpy as np
import pytest

from resolab.errors import NumericError
from resolab.pgm import encode, write


def test_encode_maps_range_and_clips_infinities():
    image = np.array([[-1.0, 0.0], [1.0, 2.0], [-np.inf, np.inf]])
    assert encode(image) == b"P5\n2 3\n255\n" + bytes([0, 128, 255, 255, 0, 255])


def test_nan_pixel_raises_and_writes_no_file(tmp_path):
    # a NaN used to become byte 0 with only a RuntimeWarning
    image = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError, match="NaN pixel"):
        encode(image)
    out = tmp_path / "x.pgm"
    with pytest.raises(NumericError):
        write(str(out), np.stack([image] * 3))
    assert not out.exists()
