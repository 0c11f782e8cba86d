"""Hostile payload frames into every registry compressor (ROADMAP 4a).

Each case mutates one thing in a payload the compressor itself wrote — the
header, a section, a patch index — and must end in
:class:`repro.errors.CorruptPayloadError` within 2 s and 64 MiB of traced
allocations: never ``IndexError``/``KeyError``/``struct.error``/``EOFError``/
``zlib.error``/``MemoryError``, never data.  CI reruns this file under
``ulimit -v`` so a declared size trusted before it is checked fails in
seconds instead of taking the runner down.
"""

import functools
import struct

import numpy as np
import pytest
from hostile_bounds import bounded

from repro.codecs.container import Container
from repro.codecs.varint import decode_uvarints, encode_uvarints, zigzag_encode
from repro.codecs.zlib_codec import ZlibCodec
from repro.errors import CorruptPayloadError, ReproError
from repro.pressio import make_compressor

BOUNDS = {"sz": 1e-2, "sz-interp": 1e-2, "sz-pwrel": 1e-2, "mgard": 1e-2,
          "zfp": 1e-2, "zfp-prec": 12.0, "zfp-rate": 8.0}
WITH_CODEC = ["sz", "sz-interp", "sz-pwrel", "mgard"]
WITH_BODY = ["sz", "sz-interp", "mgard"]
WITH_PATCHES = ["zfp", "mgard", "sz-pwrel"]
SHAPE = (12, 12)


def uvarints(*values: int) -> bytes:
    return encode_uvarints(values)


class Payload:
    """A valid payload taken apart, and put together again with changes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.comp = make_compressor(name, error_bound=BOUNDS[name])
        field = np.linspace(0.0, 1.0, 144, dtype=np.float32).reshape(SHAPE)
        self.outer = Container.frombytes(self.comp.compress(field).payload)
        self.inner = None
        if name in WITH_BODY:
            self.inner = Container.frombytes(ZlibCodec().decompress(self.outer.get("body")))
        header = self.outer.get("header")
        (self.code, ndim), off = decode_uvarints(header, 2)
        _, off = decode_uvarints(header, int(ndim), off)
        self.rest = header[off:]  # bound, params, codec name

    @staticmethod
    def _rebuilt(sections: Container, changes: dict) -> bytes:
        """``sections`` with ``changes`` applied: name -> new bytes, or None to drop."""
        out = Container()
        for name in sections.names():
            blob = changes.get(name, sections.get(name))
            if blob is not None:
                out.add(name, blob)
        return out.tobytes()

    def with_outer(self, **changes) -> bytes:
        return self._rebuilt(self.outer, changes)

    def with_inner(self, **changes) -> bytes:
        return self.with_outer(body=ZlibCodec().compress(self._rebuilt(self.inner, changes)))

    def with_header(self, code=None, shape=SHAPE, ndim=None, rest=None) -> bytes:
        header = uvarints(
            self.code if code is None else code, len(shape) if ndim is None else ndim, *shape
        ) + (self.rest if rest is None else rest)
        return self.with_outer(header=header)

    def with_patches(self, count: int, indices, values: bytes) -> bytes:
        """The payload with its patch sections replaced (wherever they live)."""
        changes = {
            "patch_n": uvarints(count),
            "patch_idx": encode_uvarints(zigzag_encode(np.diff(indices, prepend=np.int64(0)))),
            "patch_val": values,
        }
        return self.with_inner(**changes) if self.name == "mgard" else self.with_outer(**changes)

    def rejects(self, blob: bytes) -> None:
        with bounded():
            with pytest.raises(CorruptPayloadError) as caught:
                self.comp.decompress(blob)
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, ReproError)


@functools.cache
def payload_of(name: str) -> Payload:
    return Payload(name)


@pytest.fixture
def payload(name) -> Payload:
    return payload_of(name)


every = pytest.mark.parametrize("name", sorted(BOUNDS))
with_codec = pytest.mark.parametrize("name", WITH_CODEC)
with_body = pytest.mark.parametrize("name", WITH_BODY)
with_patches = pytest.mark.parametrize("name", WITH_PATCHES)


@every
def test_the_untouched_payload_decodes(payload):
    with bounded():
        assert payload.comp.decompress(payload.with_outer()).shape == SHAPE


class TestHeader:
    @every
    @pytest.mark.parametrize("code", [2, 255, 2**40])
    def test_unknown_dtype_code(self, payload, code):
        payload.rejects(payload.with_header(code=code))

    @every
    @pytest.mark.parametrize("ndim", [0, 4, 2**32, 2**64 - 1])
    def test_rank_outside_the_format(self, payload, ndim):
        payload.rejects(payload.with_header(ndim=ndim))

    def test_rank_the_compressor_does_not_support(self):
        mgard = payload_of("mgard")
        mgard.rejects(mgard.with_header(shape=(144,)))

    @every
    @pytest.mark.parametrize(
        "shape",
        [(2**20, 2**20), (2**31, 2**31), (2**40, 2**40), (2**63, 2), (2**64 - 1,) * 3],
        ids=lambda s: "x".join(f"2^{d.bit_length() - 1}" for d in s),
    )
    def test_huge_shape(self, payload, shape):
        payload.rejects(payload.with_header(shape=shape))

    @every
    @pytest.mark.parametrize("shape", [(0, 2**40), (2**40, 0), (0, 2**64 - 1), (0, 0)])
    def test_no_elements_declared_over_real_data(self, payload, shape):
        payload.rejects(payload.with_header(shape=shape))

    @every
    def test_smaller_and_larger_shape_than_the_data(self, payload):
        # Off by a block of four: ZFP sections are sized by whole blocks.
        payload.rejects(payload.with_header(shape=(12, 8)))
        payload.rejects(payload.with_header(shape=(12, 13)))

    @every
    def test_header_cut_anywhere(self, payload):
        header = payload.outer.get("header")
        with bounded():
            for cut in range(len(header)):
                with pytest.raises(CorruptPayloadError):
                    payload.comp.decompress(payload.with_outer(header=header[:cut]))

    @every
    def test_bytes_after_the_header_fields(self, payload):
        payload.rejects(payload.with_outer(header=payload.outer.get("header") + b"\x00"))

    @every
    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), 0.0, -1e-2])
    def test_bound_not_positive_and_finite(self, payload, bound):
        payload.rejects(payload.with_header(rest=struct.pack("<d", bound) + payload.rest[8:]))

    @with_codec
    @pytest.mark.parametrize("codec", [b"nope", b"", b"\xff\xfe", b"zlib" * 1000])
    def test_unknown_codec_name(self, payload, codec):
        assert payload.rest.endswith(b"\x04zlib")
        payload.rejects(payload.with_header(rest=payload.rest[:-5] + uvarints(len(codec)) + codec))

    @with_codec
    def test_codec_name_longer_than_the_header(self, payload):
        payload.rejects(payload.with_header(rest=payload.rest[:-5] + uvarints(2**40) + b"zlib"))


    @pytest.mark.parametrize(
        "name, params",
        [("sz", (0, 32768, 1)), ("sz-interp", (2, 32768)), ("sz-interp", (2**40, 32768)),
         ("mgard", (60, 32768)), ("mgard", (2**64 - 1, 32768))],
    )
    def test_block_size_and_level_count_the_shape_cannot_have(self, payload, params):
        rest = payload.rest[:8] + uvarints(*params) + payload.rest[-5:]
        payload.rejects(payload.with_header(rest=rest))


class TestSections:
    @every
    def test_each_outer_section_dropped(self, payload):
        for name in payload.outer.names():
            if name != "pad":  # zfp-rate's filler carries nothing
                payload.rejects(payload.with_outer(**{name: None}))

    @with_body
    def test_each_inner_section_dropped(self, payload):
        for name in payload.inner.names():
            payload.rejects(payload.with_inner(**{name: None}))

    @every
    def test_each_section_emptied_or_cut(self, payload):
        for name in payload.outer.names():
            blob = payload.outer.get(name)
            if name != "pad" and blob:
                payload.rejects(payload.with_outer(**{name: b""}))
                payload.rejects(payload.with_outer(**{name: blob[:-1]}))

    @with_body
    @pytest.mark.parametrize(
        "body", [b"", b"\x00", b"garbage, not DEFLATE", ZlibCodec().compress(b"not FRZC")]
    )
    def test_garbage_body(self, payload, body):
        payload.rejects(payload.with_outer(body=body))

    def test_garbage_bitmaps(self):
        pwrel = payload_of("sz-pwrel")
        pwrel.rejects(pwrel.with_outer(signs=b"garbage"))
        pwrel.rejects(pwrel.with_outer(zeros=ZlibCodec().compress(b"\x00" * 4096)))

    def test_log_field_of_another_shape(self):
        pwrel = payload_of("sz-pwrel")
        other = pwrel.comp.compress(np.ones((18, 8), dtype=np.float32)).payload
        pwrel.rejects(pwrel.with_outer(logs=Container.frombytes(other).get("logs")))


class TestPatches:
    one = np.float32(1).tobytes()

    @with_patches
    @pytest.mark.parametrize("index", [144, 145, -1, 2**62, -(2**63)])
    def test_index_outside_the_array(self, payload, index):
        payload.rejects(payload.with_patches(1, [index], self.one))

    @with_patches
    def test_indices_that_wrap_back_into_range(self, payload):
        # Deltas 1, then 4 x 2**62: the last index is 1 again, the middle ones are not.
        indices = np.cumsum(np.asarray([1] + [2**62] * 4, dtype=np.int64))
        payload.rejects(payload.with_patches(5, indices, self.one * 5))

    @with_patches
    @pytest.mark.parametrize("count", [1, 145, 2**40, 2**64 - 1])
    def test_count_beyond_the_sections(self, payload, count):
        payload.rejects(payload.with_patches(count, [], b""))

    @with_patches
    def test_value_bytes_that_do_not_match_the_count(self, payload):
        payload.rejects(payload.with_patches(1, [0], b""))
        payload.rejects(payload.with_patches(1, [0], self.one + b"\x00"))
        payload.rejects(payload.with_patches(0, [], self.one))

    @with_patches
    def test_more_indices_than_declared(self, payload):
        payload.rejects(payload.with_patches(1, [0, 1], self.one))

    @with_patches
    def test_a_valid_patch_is_applied(self, payload):
        with bounded():
            out = payload.comp.decompress(payload.with_patches(1, [143], np.float32(7).tobytes()))
        assert out[-1, -1] == 7
