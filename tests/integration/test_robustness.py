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
from repro.codecs.lz77 import LZ77Codec
from repro.codecs.varint import decode_uvarints
from repro.core.training import SearchSpec, train
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

    @pytest.mark.parametrize(
        "comp_name, bound",
        [("sz", 1e-2), ("zfp", 1e-2), ("mgard", 1e-2), ("sz-interp", 1e-2),
         ("zfp-prec", 12.0), ("zfp-rate", 8.0), ("sz-pwrel", 1e-2)],
    )
    def test_every_proper_prefix_raises_typed(self, comp_name, bound):
        """No truncation point reads past the end or raises an untyped error."""
        small = np.linspace(0.0, 1.0, 144, dtype=np.float32).reshape(12, 12)
        comp = make_compressor(comp_name, error_bound=bound)
        payload = comp.compress(small).payload
        t0 = time.perf_counter()
        for cut in range(len(payload)):
            with pytest.raises(CorruptPayloadError):
                comp.decompress(payload[:cut])
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


def _golden_field(shape, seed, dtype="float32", offset=0.0, pow2=False) -> np.ndarray:
    """An integer random walk along every axis over 64 (plus ``offset``): exact
    in float32, so the field itself does not depend on the platform's libm.
    ``pow2`` gives signed powers of two with some exact zeros instead, whose
    ``log2`` (what ``sz-pwrel`` compresses) is exact as well."""
    walk = np.random.default_rng(seed).integers(-8, 9, shape)
    for axis in range(len(shape)):
        walk = walk.cumsum(axis=axis)
    if not pow2:
        return (walk / 64.0 + offset).astype(dtype)
    field = np.ldexp(np.where(walk % 2, -1.0, 1.0), np.clip(walk // 16, -100, 100))
    field[walk % 7 == 0] = 0.0
    return field.astype(dtype)


_ABS = {"error_bound": 2.0**-4}
_LZ77 = {"dict_codec": "lz77"}  # keeps the bytes independent of the zlib build
_1D, _2D, _3D = ((3000,), 1), ((40, 36), 2), ((20, 18, 12), 3)
_EMPTY = ((0, 3), 0)

# label -> (compressor, options, (shape, seed), further _golden_field arguments,
# sha256 of compress(field).payload).  The first eight were recorded before the
# Huffman decoder and table builders were vectorised, the rest at the commit
# before the payload frame moved into ``repro.pressio.frame``.  ZFP has no
# dictionary stage and MGARD no 1-D mode; ``sz-pwrel`` runs at a relative bound
# of 1 because ``log2(1 + 1)`` is exact; ``mgard-patched`` widens the radius so
# that values 2**17 over the bound are quantized rather than escaped, which is
# what it takes for the float32 cast to push points out of the bound.
_GOLDEN = {
    "sz-1d": ("sz", {**_ABS, **_LZ77}, _1D, {},
        "61d5e3cb1849c1c22b5b25db77f8fed462bd6d8b2870dde2ba3ba50ecc4adb4f"),
    "sz-2d": ("sz", {**_ABS, **_LZ77}, _2D, {},
        "9441e4defce4ad15c2c88440efa7d6052ae88980321c0de2773cfb8c92c5e369"),
    "sz-3d": ("sz", {**_ABS, **_LZ77}, _3D, {},
        "146968f324ad72773b8e7da0c1b672f4f580c9a79e4dccd5c636ffc91c16c738"),
    "sz-interp-1d": ("sz-interp", {**_ABS, **_LZ77}, _1D, {},
        "87e84f6d1ab2595aae2b37dfb992ca7d9e24b1b46c1652c441f0125ca4c1f872"),
    "sz-interp-2d": ("sz-interp", {**_ABS, **_LZ77}, _2D, {},
        "0efa43b30da1e82114816dc50528c357e7344cf4e976ab297b3ae9094bc8052a"),
    "sz-interp-3d": ("sz-interp", {**_ABS, **_LZ77}, _3D, {},
        "d6e834e546691c4839911b5dac84b9127c5a6901d2e24eac9c810622a05abb11"),
    "mgard-2d": ("mgard", {**_ABS, **_LZ77}, _2D, {},
        "df851d95942b2d4c8f820ca170797e5126c348f730c7b547b7b59a827c7acd47"),
    "mgard-3d": ("mgard", {**_ABS, **_LZ77}, _3D, {},
        "64e35fd22dca328e757f712578b8fab3c856317845023b0a499ffec6e007b07f"),
    "zfp-1d": ("zfp", _ABS, _1D, {},
        "437c07f5eb63030b65c372a00ef2379d26392f0c7ff826a627a3fa389b75e98f"),
    "zfp-2d": ("zfp", _ABS, _2D, {},
        "0cb901976d8da6c3c9e3112c69f8658ea868a04a4e06fec7d29e20b0b19bed74"),
    "zfp-3d": ("zfp", _ABS, _3D, {},
        "738da4417097e3c9f3710028271a10122c1e5bf1f94cd5e5cea65483454ac9b2"),
    "zfp-prec-1d": ("zfp-prec", {"error_bound": 12.0}, _1D, {},
        "7bf5d95958357971da4c1401b91e002abd95f97d4c135aa0f8b1f926bd2bf4f2"),
    "zfp-prec-2d": ("zfp-prec", {"error_bound": 12.0}, _2D, {},
        "da00fd52a4a9f443f2257ada54e9f84161c81a5ea93ce496a6b4120af71c367b"),
    "zfp-prec-3d": ("zfp-prec", {"error_bound": 12.0}, _3D, {},
        "e1b05b61f9ec037fb2c8da83fe618f8f590b8cada8870b0c9a76c66a05cd83ad"),
    "zfp-rate-1d": ("zfp-rate", {"error_bound": 8.0}, _1D, {},
        "bf8a4298f7cf97213a3027f3afec4aa5a0a46007ab6d84c37d2d8cf812a916f5"),
    "zfp-rate-2d": ("zfp-rate", {"error_bound": 8.0}, _2D, {},
        "59290322cb723e126f36feedd87eb1eb5cac35bda4f60a835699c23972d5d79b"),
    "zfp-rate-3d": ("zfp-rate", {"error_bound": 8.0}, _3D, {},
        "453e792b5b8b1bc574270eb95e11706a60f963f51f83455f9816f626b10228a2"),
    "sz-pwrel-1d": ("sz-pwrel", {"error_bound": 1.0, **_LZ77}, _1D, {"pow2": True},
        "561735da3d37726a7ab7eca90ed41aa6c427442ec350304d68d16a0341c9181e"),
    "sz-pwrel-2d": ("sz-pwrel", {"error_bound": 1.0, **_LZ77}, _2D, {"pow2": True},
        "ed8a54b5d1f9b8a2de98addcfd9c037255459e8f33f0a752e4f20f277505202b"),
    "sz-pwrel-3d": ("sz-pwrel", {"error_bound": 1.0, **_LZ77}, _3D, {"pow2": True},
        "70e7bf99a02dca7ea565add37074a6b513d538aab54abb3766aea5cee61cc026"),
    "sz-rel-1d": ("sz", {"error_bound": 2.0**-6, "bound_mode": "rel", **_LZ77}, _1D, {},
        "8cd8bbc3de83926c4d2ee7cf4b3c8d788bbef819fb125241d96aef2c32456534"),
    "sz-rel-2d": ("sz", {"error_bound": 2.0**-6, "bound_mode": "rel", **_LZ77}, _2D, {},
        "e6ad7324fc3580fbbe8e1b34571e5b4722cc8716cc2be7c0b570b11344b60495"),
    "sz-f64": ("sz", {**_ABS, **_LZ77}, _2D, {"dtype": "float64"},
        "5417f93bf6347e5bfa16b249d53a9a2fbabbdd68e9d69f9d6ae5d727e7e3d0ee"),
    "sz-interp-f64": ("sz-interp", {**_ABS, **_LZ77}, _3D, {"dtype": "float64"},
        "ed11d08f83cb7c022bfb41016f32c3c509b8e15b8d239257a75c41bd2ae87e8f"),
    "sz-pwrel-f64": ("sz-pwrel", {"error_bound": 1.0, **_LZ77}, _2D, {"dtype": "float64", "pow2": True},
        "5425d6f358cc9c842dfb855012786a97af9c1586a3e1509949f6d5ca1c67cb1b"),
    "mgard-f64": ("mgard", {**_ABS, **_LZ77}, _2D, {"dtype": "float64"},
        "cd2dccda9f1b1017f5a85cb671c2d668969724cee6554d2715f502fa6be71412"),
    "zfp-f64": ("zfp", _ABS, _3D, {"dtype": "float64"},
        "5bb00fe27521a54859e3dea3d3d524a9ebe63476b3e81145d274ee7560c4da72"),
    "zfp-prec-f64": ("zfp-prec", {"error_bound": 12.0}, _2D, {"dtype": "float64"},
        "2bb5f8b10498805946ab4c7372233a1045c30b4ab5bdfacf3376a54b5b2f9745"),
    "zfp-rate-f64": ("zfp-rate", {"error_bound": 8.0}, _2D, {"dtype": "float64"},
        "eb169749c0281ae10e412a7c0ca0f671d74358ba81ee19e8930dc2064ed87504"),
    "mgard-patched": ("mgard", {"error_bound": 0.75 * 2.0**-6, "radius": 2**30, **_LZ77}, _3D, {"offset": 2.0**17},
        "7219d498d3d107995bf78e1af6dbec0886c07e34e921c62cb184028d085ffe7e"),
    "mgard-l2": ("mgard", {"error_bound": 2.0**-8, "norm": "l2", **_LZ77}, _2D, {},
        "9f9fdca62d279d8a5a4205b272a5e75281c8e83538cc54f2e0621bcedadcdffa"),
    "sz-empty": ("sz", {**_ABS, **_LZ77}, _EMPTY, {},
        "36379f22f34689aa50eb0e2a737a58aca755a2d426fd60b8f21caf237bdfa207"),
    "sz-rel-empty": ("sz", {"error_bound": 2.0**-6, "bound_mode": "rel", **_LZ77}, _EMPTY, {},
        "15c267ea5c52128b66ccf72ebeddc21fe5e324e6ce6d9e6116024594ee29fc29"),
    "sz-interp-empty": ("sz-interp", {**_ABS, **_LZ77}, _EMPTY, {},
        "b8ba2a08d84599ecfbb618d4f77fddd271894babc6b10c93788c56e8027e5757"),
    "sz-pwrel-empty": ("sz-pwrel", {"error_bound": 1.0, **_LZ77}, _EMPTY, {},
        "4d0e83ddb7cef63c9e13af58fa49a190387837d5fab24cd7a784ea1e8830eb32"),
    "mgard-empty": ("mgard", {**_ABS, **_LZ77}, _EMPTY, {},
        "14d20019f03f7180f8a29b464fa13ebfb1bbdcb361821740761a55983389652c"),
    "mgard-l2-empty": ("mgard", {"error_bound": 2.0**-8, "norm": "l2", **_LZ77}, _EMPTY, {"dtype": "float64"},
        "10290cf73c1445f98ea377157d725eba1c5453843fc2729d3d82f71f85a88ec6"),
    "zfp-empty": ("zfp", _ABS, _EMPTY, {},
        "bc43e7e347c13a76b7d9676a88218491f6b6a276ffe80ac5746fa2b55b08f1b8"),
    "zfp-prec-empty": ("zfp-prec", {"error_bound": 12.0}, _EMPTY, {},
        "7a932ec844ec98b497315dc8b9c68ac28d38d1c393af4ca84afa100389b762f4"),
    "zfp-rate-empty": ("zfp-rate", {"error_bound": 8.0}, _EMPTY, {"dtype": "float64"},
        "49891c774c3fd5bc4658c0bd953fd5394e1df0869cbd5fb7ce43add63b91c2e2"),
}
_PATCHED = {"zfp-2d": 5, "zfp-3d": 48, "zfp-f64": 48, "mgard-patched": 3}


def _patch_count(comp_name: str, payload: bytes) -> int:
    sections = Container.frombytes(payload)
    if comp_name == "mgard":
        sections = Container.frombytes(LZ77Codec().decompress(sections.get("body")))
    return int(decode_uvarints(sections.get("patch_n"), 1)[0][0])


class TestDeterminism:
    @pytest.mark.parametrize("label", _GOLDEN)
    def test_golden_payload_hashes(self, label):
        """Bit-identical payloads (ROADMAP aim 2), asserted rather than assumed."""
        comp_name, options, (shape, seed), field_args, sha256 = _GOLDEN[label]
        field = _golden_field(shape, seed, **field_args)
        comp = make_compressor(comp_name, **options)
        payload = comp.compress(field).payload
        assert hashlib.sha256(payload).hexdigest() == sha256
        if label in _PATCHED:
            assert _patch_count(comp_name, payload) == _PATCHED[label]
        recon = comp.decompress(payload)
        assert recon.shape == field.shape and recon.dtype == field.dtype
        allowed = {
            "abs": comp.error_bound,
            "rel": comp.error_bound * (np.ptp(field) if field.size else 0.0),
            "pwrel": comp.error_bound * np.abs(field),
        }.get(comp.mode, np.inf)  # precision, rate and MSE modes bound no point
        assert (np.abs(recon.astype(np.float64) - field) <= allowed).all()

    @pytest.mark.parametrize("comp_name", ["sz", "zfp", "mgard"])
    def test_identical_payload_across_runs(self, field, comp_name):
        a = make_compressor(comp_name, error_bound=1e-3).compress(field)
        b = make_compressor(comp_name, error_bound=1e-3).compress(field)
        assert a.payload == b.payload

    def test_training_deterministic_given_seed(self, field):
        r1 = train(SZCompressor(), field, SearchSpec(8.0, tolerance=0.1, regions=4, seed=7))
        r2 = train(SZCompressor(), field, SearchSpec(8.0, tolerance=0.1, regions=4, seed=7))
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
