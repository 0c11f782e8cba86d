"""Tests for the online/in-situ tuner (paper future work #2)."""

import hashlib

import numpy as np
import pytest

from repro.core.online import OnlineFRaZ


def _stream(n_frames=10, shape=(24, 24, 12), drift=0.03, jump_at=None, seed=51):
    r = np.random.default_rng(seed)
    x, y, z = np.meshgrid(
        np.linspace(0, 4, shape[0]), np.linspace(0, 4, shape[1]),
        np.linspace(0, 4, shape[2]), indexing="ij",
    )
    frames = []
    for t in range(n_frames):
        f = np.sin(x + drift * t) * np.cos(y + z)
        if jump_at is not None and t >= jump_at:
            # Regime change: much rougher content.
            f = f + 0.3 * r.standard_normal(shape)
        else:
            f = f + 0.01 * r.standard_normal(shape)
        frames.append(f.astype(np.float32))
    return frames


#: sha256 of every ``push`` payload over ``_stream(8, jump_at=4)`` (cold
#: start, steady state, a regime change, recovery).  How the stale bound is
#: checked may change; which bytes come out may not.
_PUSH_SHA256 = {
    "sz": [
        "4e0b832afb2bf669c39fc4220a9a88422b2d0d311d0482e17cd839818e9df3ca",
        "7c2aca7eb50e136a372b276e6c2a7fe6dc2bdd458e7626c3deaf886a7632612c",
        "b8886b3184d5f11cd5ce83898caa06ca8de49906e4bbd763644477fa2ba7d1e2",
        "864c90ada77676a5c8e1aab4bd1ee573960e699d38ffa8cf8dfdcca6285578c6",
        "763a2f583795263b46a6868e64baecd7f827ffc50772f2438a6fa6813b44f79e",
        "61fb96e8f6adacebbbcbf2d6af34b708a4c8a322b8b3c23ff5a91ce9f827f565",
        "4c784f36ae10197083f7088304c62e67eda2878bcd63c1f1d58c7bb1c28cf9c9",
        "a17e6c421ef5817549ecb51e383d237b06b517eca437f9ed40f2372d19de2cc2",
    ],
    "zfp": [
        "1a660091d8efa998b71cc29c2fc569e9e447d4c1eefc95ffdf2e19d1d36eaa60",
        "106997584118839deae3f372abc3ab41c93eb680c0dd74f7a0d44f8925d671b3",
        "ec7123b8c18681aeb6390b0b42df0e2c2a38c08a068e5b7d552d5e6a17001e4a",
        "0de537312f038be5aa8db627b613b26d0e32507b0dce25cea79f7571af4d2dd6",
        "376d1095ce08de8e6d09b4868f84df4599b940983466238b1473f91628a6f6a8",
        "ed647152021c3a87bf2a6bd76e83e4849d91a95b473e093a689e358e7d6fe5d5",
        "2f2ee50ced53f423668a0de83f35c1ca996cf087776a1127e5a9a579edb81be1",
        "5c7b1c336fd29072e2b3f90bd8460877fc12c266321b678e3adf64c42d51ede5",
    ],
}


@pytest.mark.parametrize("name", sorted(_PUSH_SHA256))
def test_push_payload_bytes_pinned(name):
    tuner = OnlineFRaZ(compressor=name, target_ratio=10.0, tolerance=0.1)
    digests = [hashlib.sha256(tuner.push(f).payload.payload).hexdigest()
               for f in _stream(8, jump_at=4)]
    assert digests == _PUSH_SHA256[name]


class TestOnlineFRaZ:
    def test_steady_state_one_compression_per_frame(self):
        tuner = OnlineFRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
        results = [tuner.push(f) for f in _stream()]
        assert results[0].retrained  # cold start trains
        steady = results[1:]
        assert all(not r.retrained for r in steady)
        assert all(r.evaluations == 1 for r in steady)
        assert all(r.in_band for r in results)

    def test_payload_decompresses_within_bound(self):
        tuner = OnlineFRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
        frames = _stream(4)
        for frame in frames:
            res = tuner.push(frame)
            recon = tuner.decompress(res.payload)
            err = np.abs(recon.astype(np.float64) - frame.astype(np.float64)).max()
            assert err <= res.error_bound + 1e-12

    def test_regime_change_triggers_retrain(self):
        tuner = OnlineFRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
        frames = _stream(n_frames=8, jump_at=4)
        results = [tuner.push(f) for f in frames]
        assert results[0].retrained
        assert any(r.retrained for r in results[4:]), "jump must force a retrain"
        # After adapting, the stream is back in band.
        assert results[-1].in_band

    def test_retrain_count_tracked(self):
        tuner = OnlineFRaZ(compressor="sz", target_ratio=10.0, tolerance=0.1)
        for f in _stream(5):
            tuner.push(f)
        assert tuner.retrain_count >= 1
        assert tuner.frames_seen == 5

    def test_max_error_bound_respected(self):
        tuner = OnlineFRaZ(compressor="sz", target_ratio=200.0, tolerance=0.1,
                           max_error_bound=1e-4, regions=3, max_calls_per_region=5)
        res = tuner.push(_stream(1)[0])
        assert res.error_bound <= 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineFRaZ(target_ratio=0)
        with pytest.raises(ValueError):
            OnlineFRaZ(tolerance=1.5)

    def test_band_property(self):
        tuner = OnlineFRaZ(target_ratio=20.0, tolerance=0.05)
        assert tuner.spec.band == (19.0, 21.0)
