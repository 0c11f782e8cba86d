"""Property-based tests: the payload-frame writers and readers invert each other."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.container import Container
from repro.codecs.interface import list_byte_codecs
from repro.errors import CorruptPayloadError
from repro.pressio import frame

_SETTINGS = dict(max_examples=100, deadline=None)

_bounds = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
_headers = st.fixed_dictionaries(
    {
        "dtype": st.sampled_from(frame.DTYPES),
        # Up to 2**60 bytes: the format stops at 2**63.
        "shape": st.lists(st.integers(0, 2**19), min_size=1, max_size=3).map(tuple),
        "bound": _bounds,
        "extra": st.lists(st.floats(allow_infinity=False, allow_nan=False), max_size=2),
        "params": st.lists(st.integers(0, 2**64 - 1), max_size=4),
        "codec": st.none() | st.sampled_from(list_byte_codecs()),
    }
)


def _array_like(dtype: str, shape: tuple[int, ...]) -> SimpleNamespace:
    """What the writer reads of an array, for shapes no memory could hold."""
    return SimpleNamespace(dtype=np.dtype(dtype), ndim=len(shape), shape=shape)


def _layout(h: dict) -> dict:
    return dict(n_params=len(h["params"]), codec=h["codec"] is not None, n_extra=len(h["extra"]))


def _write(h: dict) -> bytes:
    return frame.write_header(
        _array_like(h["dtype"], h["shape"]), h["bound"], h["params"], h["codec"], h["extra"]
    )


class TestHeaderRoundTrip:
    @given(_headers)
    @settings(**_SETTINGS)
    def test_write_then_read(self, h):
        parsed = frame.read_header(_write(h), (1, 2, 3), **_layout(h))
        assert parsed == frame.Header(
            np.dtype(h["dtype"]), h["shape"], h["bound"], tuple(h["extra"]),
            tuple(h["params"]), h["codec"],
        )
        assert parsed.size == math.prod(h["shape"])

    @given(_headers, st.binary(min_size=1, max_size=8))
    @settings(**_SETTINGS)
    def test_trailing_bytes_rejected(self, h, tail):
        with pytest.raises(CorruptPayloadError):
            frame.read_header(_write(h) + tail, (1, 2, 3), **_layout(h))

    @given(_headers, st.data())
    @settings(**_SETTINGS)
    def test_every_cut_rejected(self, h, data):
        blob = _write(h)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CorruptPayloadError):
            frame.read_header(blob[:cut], (1, 2, 3), **_layout(h))

    @given(_headers)
    @settings(**_SETTINGS)
    def test_rank_must_be_supported(self, h):
        others = tuple({1, 2, 3} - {len(h["shape"])})
        with pytest.raises(CorruptPayloadError):
            frame.read_header(_write(h), others, **_layout(h))

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.inf, math.nan])
    def test_writer_refuses_what_the_reader_rejects(self, bound):
        with pytest.raises(ValueError):
            frame.write_header(np.zeros(3, np.float32), bound)


class TestPatchRoundTrip:
    @given(
        st.sampled_from(frame.DTYPES),
        st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
        st.data(),
        st.booleans(),
    )
    @settings(**_SETTINGS)
    def test_patches_restore_the_marked_points(self, dtype, shape, data, index_first):
        n = math.prod(shape)
        original = np.arange(1, n + 1, dtype=dtype).reshape(shape)
        bad = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sections = Container()
        frame.add_patches(sections, original, bad, index_first)
        assert sections.names()[0] == ("patch_idx" if index_first else "patch_n")
        patched = frame.apply_patches(
            Container.frombytes(sections.tobytes()), np.zeros(shape, dtype=dtype)
        )
        expected = np.zeros(n, dtype=dtype)
        expected[bad] = original.ravel()[bad]
        assert (patched.ravel() == expected).all() and patched.shape == shape
