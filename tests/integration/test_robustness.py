"""Failure injection and determinism guarantees.

Corrupted payloads must fail *loudly* (raise), never silently return wrong
data; identical configurations must produce byte-identical payloads (the
optimizer's determinism contract, and what makes results reproducible
across the parallel backends).
"""

import hashlib
import time

import numpy as np
import pytest

from repro.codecs.container import Container
from repro.core.training import train
from repro.errors import CorruptPayloadError
from repro.mgard.compressor import MGARDCompressor
from repro.pressio import make_compressor
from repro.sz.compressor import SZCompressor
from repro.zfp.compressor import ZFPCompressor


@pytest.fixture(scope="module")
def field():
    r = np.random.default_rng(91)
    return r.standard_normal((20, 20)).cumsum(axis=0).astype(np.float32)


def _flip_byte(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 0xFF
    return bytes(out)


class TestCorruptPayloads:
    @pytest.mark.parametrize("comp_name", ["sz", "zfp", "mgard"])
    def test_truncated_payload_raises(self, field, comp_name):
        comp = make_compressor(comp_name, error_bound=1e-2)
        payload = comp.compress(field).payload
        with pytest.raises(Exception):
            comp.decompress(payload[: len(payload) // 2])

    @pytest.mark.parametrize("comp_name", ["sz", "mgard"])
    def test_corrupt_magic_raises(self, field, comp_name):
        comp = make_compressor(comp_name, error_bound=1e-2)
        payload = comp.compress(field).payload
        with pytest.raises(Exception):
            comp.decompress(_flip_byte(payload, 0))

    def test_corrupt_zlib_body_raises(self, field):
        comp = SZCompressor(error_bound=1e-2)
        payload = comp.compress(field).payload
        # Flip a byte deep in the body (past header sections).
        with pytest.raises(Exception):
            comp.decompress(_flip_byte(payload, len(payload) - 10))

    def test_wrong_compressor_rejects_payload(self, field):
        """A ZFP payload fed to SZ must not silently decode."""
        zfp_payload = ZFPCompressor(error_bound=1e-2).compress(field)
        sz = SZCompressor()
        with pytest.raises(Exception):
            sz.decompress(zfp_payload)

    @pytest.mark.parametrize("comp_name", ["sz", "zfp", "mgard", "sz-interp"])
    def test_every_proper_prefix_raises_typed(self, comp_name):
        """No truncation point reads past the end or raises an untyped error."""
        small = np.linspace(0.0, 1.0, 144, dtype=np.float32).reshape(12, 12)
        payload = make_compressor(comp_name, error_bound=1e-2).compress(small).payload
        t0 = time.perf_counter()
        for cut in range(len(payload)):
            with pytest.raises(CorruptPayloadError):
                Container.frombytes(payload[:cut])
        assert time.perf_counter() - t0 < 2.0

    def test_trailing_garbage_rejected(self, field):
        comp = SZCompressor(error_bound=1e-2)
        payload = comp.compress(field).payload
        with pytest.raises(ValueError):
            comp.decompress(payload + b"extra")


    @pytest.mark.parametrize("comp_name", ["sz", "sz-interp", "mgard"])
    def test_symbol_count_mismatch_raises_typed(self, field, comp_name):
        """The header of a 20x20 field over the body of a 10x20 one: 200
        symbols where 400 elements are declared."""
        comp = make_compressor(comp_name, error_bound=1e-2)
        whole = Container.frombytes(comp.compress(field).payload)
        half = Container.frombytes(comp.compress(field[:10]).payload)
        spliced = Container()
        spliced.add("header", whole.get("header"))
        spliced.add("body", half.get("body"))
        with pytest.raises(CorruptPayloadError, match="200 symbols"):
            comp.decompress(spliced.tobytes())


def _golden_field(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """An integer random walk along every axis over 64: exact in float32, so
    the field itself does not depend on the platform's libm."""
    walk = np.random.default_rng(seed).integers(-8, 9, shape)
    for axis in range(len(shape)):
        walk = walk.cumsum(axis=axis)
    return (walk / 64.0).astype(np.float32)


# sha256 of compress(_golden_field(shape, seed)).payload at error_bound 2**-4,
# recorded before the Huffman decoder and table builders were vectorised.
# dict_codec="lz77" keeps the bytes independent of the zlib build.  MGARD has
# no 1-D mode.
_GOLDEN = {
    ("sz", (3000,), 1): "61d5e3cb1849c1c22b5b25db77f8fed462bd6d8b2870dde2ba3ba50ecc4adb4f",
    ("sz", (40, 36), 2): "9441e4defce4ad15c2c88440efa7d6052ae88980321c0de2773cfb8c92c5e369",
    ("sz", (20, 18, 12), 3): "146968f324ad72773b8e7da0c1b672f4f580c9a79e4dccd5c636ffc91c16c738",
    ("sz-interp", (3000,), 1): "87e84f6d1ab2595aae2b37dfb992ca7d9e24b1b46c1652c441f0125ca4c1f872",
    ("sz-interp", (40, 36), 2): "0efa43b30da1e82114816dc50528c357e7344cf4e976ab297b3ae9094bc8052a",
    ("sz-interp", (20, 18, 12), 3): "d6e834e546691c4839911b5dac84b9127c5a6901d2e24eac9c810622a05abb11",
    ("mgard", (40, 36), 2): "df851d95942b2d4c8f820ca170797e5126c348f730c7b547b7b59a827c7acd47",
    ("mgard", (20, 18, 12), 3): "64e35fd22dca328e757f712578b8fab3c856317845023b0a499ffec6e007b07f",
}


class TestDeterminism:
    @pytest.mark.parametrize("comp_name, shape, seed", _GOLDEN, ids=lambda v: str(v))
    def test_golden_payload_hashes(self, comp_name, shape, seed):
        """Bit-identical payloads (ROADMAP aim 2), asserted rather than assumed."""
        field = _golden_field(shape, seed)
        comp = make_compressor(comp_name, error_bound=2.0**-4, dict_codec="lz77")
        payload = comp.compress(field).payload
        assert hashlib.sha256(payload).hexdigest() == _GOLDEN[comp_name, shape, seed]
        assert np.abs(comp.decompress(payload) - field).max() <= 2.0**-4

    @pytest.mark.parametrize("comp_name", ["sz", "zfp", "mgard"])
    def test_identical_payload_across_runs(self, field, comp_name):
        a = make_compressor(comp_name, error_bound=1e-3).compress(field)
        b = make_compressor(comp_name, error_bound=1e-3).compress(field)
        assert a.payload == b.payload

    def test_training_deterministic_given_seed(self, field):
        r1 = train(SZCompressor(), field, 8.0, tolerance=0.1, regions=4, seed=7)
        r2 = train(SZCompressor(), field, 8.0, tolerance=0.1, regions=4, seed=7)
        assert r1.error_bound == r2.error_bound
        assert r1.ratio == r2.ratio
        assert r1.evaluations == r2.evaluations

    def test_container_sections_stable_order(self, field):
        payload = SZCompressor(error_bound=1e-2).compress(field).payload
        names = Container.frombytes(payload).names()
        assert names == ["header", "body"]

    def test_recompression_stays_bounded(self, field):
        """Re-compressing a reconstruction keeps every generation within
        the bound of its parent (exact idempotence is not guaranteed: the
        hybrid predictor may re-fit differently on the reconstruction)."""
        comp = SZCompressor(error_bound=1e-2)
        recon1 = comp.decompress(comp.compress(field))
        recon2 = comp.decompress(comp.compress(recon1))
        drift = np.abs(recon2.astype(np.float64) - recon1.astype(np.float64)).max()
        assert drift <= 1e-2


class TestEdgeShapes:
    @pytest.mark.parametrize("shape", [(1,), (2, 2), (1, 1, 1), (3, 1, 5), (4096,)])
    def test_sz_small_and_degenerate_shapes(self, shape):
        r = np.random.default_rng(5)
        data = r.standard_normal(shape).astype(np.float32)
        comp = SZCompressor(error_bound=1e-3)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= 1e-3

    @pytest.mark.parametrize("shape", [(1,), (2, 2), (1, 1, 1), (3, 1, 5)])
    def test_zfp_small_and_degenerate_shapes(self, shape):
        r = np.random.default_rng(6)
        data = r.standard_normal(shape).astype(np.float32)
        comp = ZFPCompressor(error_bound=1e-3)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= 1e-3

    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (1, 1)])
    def test_mgard_small_shapes(self, shape):
        r = np.random.default_rng(7)
        data = r.standard_normal(shape).astype(np.float32)
        comp = MGARDCompressor(error_bound=1e-3)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= 1e-3

    def test_mixed_extreme_magnitudes(self):
        data = np.array(
            [[1e-30, 1e30], [0.0, -1e30]], dtype=np.float32
        )
        comp = SZCompressor(error_bound=1.0)
        recon = comp.decompress(comp.compress(data))
        assert np.abs(recon.astype(np.float64) - data.astype(np.float64)).max() <= 1.0
