"""CompressionRequest validation, serialization, and JobSpec equivalence."""

import json

import numpy as np
import pytest

from repro.api.request import CompressionRequest, Resources, encode_array
from repro.serve.jobs import PRIORITY_HIGH, JobSpec


@pytest.fixture()
def data():
    return np.random.default_rng(7).standard_normal((8, 8)).astype(np.float32)


def tune_request(data, **over):
    base = dict(kind="tune", target_ratio=8.0, data_b64=encode_array(data))
    base.update(over)
    return CompressionRequest(**base)


class TestValidation:
    def test_bad_kind(self, data):
        with pytest.raises(ValueError, match="kind"):
            tune_request(data, kind="frobnicate")

    def test_requires_exactly_one_data_source(self, data):
        with pytest.raises(ValueError, match="exactly one"):
            tune_request(data, input="also.npy")
        with pytest.raises(ValueError, match="exactly one"):
            CompressionRequest(kind="tune", target_ratio=8.0)

    def test_conflicting_objectives_rejected(self, data):
        b64 = encode_array(data)
        with pytest.raises(ValueError, match="exactly one of target_ratio or error_bound"):
            CompressionRequest(kind="compress", data_b64=b64, output="o.frz",
                               target_ratio=8.0, error_bound=1e-3)
        with pytest.raises(ValueError, match="exactly one of target_ratio or error_bound"):
            CompressionRequest(kind="compress", data_b64=b64, output="o.frz")

    def test_tune_objective_rules(self, data):
        with pytest.raises(ValueError, match="target_ratio"):
            CompressionRequest(kind="tune", data_b64=encode_array(data))
        with pytest.raises(ValueError, match="not error_bound"):
            tune_request(data, error_bound=1e-3)
        with pytest.raises(ValueError, match="no output"):
            tune_request(data, output="o.frz")

    def test_decompress_rules(self):
        CompressionRequest(kind="decompress", input="x.frz", output="x.npy")
        with pytest.raises(ValueError, match="input"):
            CompressionRequest(kind="decompress", output="x.npy")
        with pytest.raises(ValueError, match="target_ratio or error_bound"):
            CompressionRequest(kind="decompress", input="x.frz", output="x.npy",
                               error_bound=1e-3)

    def test_stream_kind_requires_file_input(self, data):
        with pytest.raises(ValueError, match="file input"):
            CompressionRequest(kind="stream", target_ratio=8.0,
                               data_b64=encode_array(data), output="o.frzs")

    def test_stream_hint_only_for_compress(self, data):
        with pytest.raises(ValueError, match="stream"):
            tune_request(data, stream=True)
        with pytest.raises(ValueError, match="stream"):
            CompressionRequest(kind="stream", target_ratio=8.0, input="x.npy",
                               output="o.frzs", stream=True)

    def test_bad_tolerance_and_targets(self, data):
        with pytest.raises(ValueError, match="tolerance"):
            tune_request(data, tolerance=0.0)
        with pytest.raises(ValueError, match="target_ratio"):
            tune_request(data, target_ratio=-1.0)
        with pytest.raises(ValueError, match="max_error_bound"):
            tune_request(data, max_error_bound=0.0)

    def test_mistyped_json_fields_raise_value_error(self, data):
        """Wire payloads must surface as ValueError (the HTTP 400 path),
        never TypeError from a comparison deep in validation."""
        with pytest.raises(ValueError, match="target_ratio must be a number"):
            tune_request(data, target_ratio="8.0")
        with pytest.raises(ValueError, match="error_bound must be a number"):
            CompressionRequest(kind="compress", data_b64=encode_array(data),
                               output="o.frz", error_bound="1e-3")
        with pytest.raises(ValueError, match="tolerance"):
            tune_request(data, tolerance=None)
        with pytest.raises(ValueError, match="tolerance must be a number"):
            tune_request(data, tolerance="0.1")
        with pytest.raises(ValueError, match="output must be a string"):
            CompressionRequest(kind="compress", data_b64=encode_array(data),
                               output=7, error_bound=1e-3)
        with pytest.raises(ValueError, match="compressor"):
            tune_request(data, compressor=None)

    def test_unknown_compressor_and_options(self, data):
        with pytest.raises(ValueError, match="available"):
            tune_request(data, compressor="gzip9000")
        with pytest.raises(ValueError, match="block_size"):
            tune_request(data, options={"typo_option": 1})
        # valid options pass and normalise
        req = tune_request(data, options={"block_size": 4})
        assert req.options == {"block_size": 4}

    def test_objective_fields_rejected_inside_options(self, data):
        with pytest.raises(ValueError, match="top-level"):
            tune_request(data, options={"error_bound": 1e-3})

    def test_stream_options_validated(self):
        with pytest.raises(ValueError, match="stream_options"):
            CompressionRequest(kind="stream", target_ratio=8.0, input="x.npy",
                               output="o.frzs", stream_options={"frobnicate": 1})
        req = CompressionRequest(kind="stream", target_ratio=8.0, input="x.npy",
                                 output="o.frzs",
                                 stream_options={"chunk_shape": [16, 16]})
        assert req.stream_options["chunk_shape"] == (16, 16)

    @pytest.mark.parametrize("options,match", [
        ({"drift_margin": 0.5}, "unknown stream_options"),
        ({"drift_window": 4}, "unknown stream_options"),
        ({"train_chunks": 0}, "train_chunks"),
        ({"train_chunks": True}, "train_chunks"),
        ({"train_chunks": None}, "train_chunks"),
    ])
    def test_stream_options_rejected(self, options, match):
        with pytest.raises(ValueError, match=match):
            CompressionRequest(kind="stream", target_ratio=8.0, input="x.npy",
                               output="o.frzs", stream_options=options)

    def test_resources_validated(self, data):
        with pytest.raises(ValueError, match="executor"):
            tune_request(data, resources=Resources(executor="gpu"))
        with pytest.raises(ValueError, match="max_memory"):
            tune_request(data, resources={"max_memory": -1})
        with pytest.raises(ValueError, match="resources"):
            tune_request(data, resources={"frobnicate": 1})


class TestWireFormat:
    def test_json_round_trip(self, data):
        req = CompressionRequest(
            kind="stream", compressor="zfp", target_ratio=8.0, tolerance=0.2,
            input="x.npy", output="o.frzs",
            options={"error_bound": 1e-3} if False else {},
            stream_options={"chunk_shape": (16, 16), "train_chunks": 2},
            resources=Resources(workers=2, executor="thread", max_memory=1 << 20),
        )
        again = CompressionRequest.from_json(req.to_json())
        assert again == req
        # and through plain dicts (what the HTTP body parsing does)
        assert CompressionRequest.from_dict(json.loads(req.to_json())) == req

    def test_from_dict_rejects_unknown_keys(self, data):
        payload = tune_request(data).to_dict()
        payload["frobnicate"] = 1
        with pytest.raises(ValueError, match="unknown request fields"):
            CompressionRequest.from_dict(payload)

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CompressionRequest.from_dict({"target_ratio": 8.0, "input": "x.npy"})

    def test_inline_array_round_trip(self, data):
        req = tune_request(data)
        np.testing.assert_array_equal(req.load_array(), data)

    def test_to_dict_is_json_ready(self, data):
        req = tune_request(data, stream_options={}, resources={"workers": 2})
        json.dumps(req.to_dict())


class TestJobSpecEquivalence:
    """JobSpec is a serialization of CompressionRequest (+ scheduling)."""

    def test_legacy_flat_json_still_accepted(self, data):
        legacy = {
            "kind": "compress",
            "compressor": "sz",
            "target_ratio": 8.0,
            "error_bound": None,
            "tolerance": 0.1,
            "max_error_bound": None,
            "input": None,
            "data_b64": encode_array(data),
            "output": "o.frz",
            "priority": "high",
            "max_retries": 2,
            "stream": None,
        }
        spec = JobSpec.from_dict(legacy)
        assert spec.priority == PRIORITY_HIGH and spec.max_retries == 2
        assert spec.request == CompressionRequest(
            kind="compress", target_ratio=8.0,
            data_b64=legacy["data_b64"], output="o.frz",
        )

    def test_request_json_accepted_by_jobspec(self, data):
        req = CompressionRequest(kind="tune", target_ratio=8.0,
                                 data_b64=encode_array(data),
                                 options={"block_size": 4},
                                 resources=Resources(max_memory=1 << 20))
        spec = JobSpec.from_dict({**req.to_dict(), "priority": "low"})
        assert spec.request == req
        # the spec's own wire form is the request's plus scheduling fields
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert {k: v for k, v in spec.to_dict().items()
                if k not in ("priority", "max_retries")} == req.to_dict()

    def test_spec_wraps_the_request(self, data):
        req = tune_request(data)
        spec = JobSpec(req, priority=PRIORITY_HIGH)
        assert spec.request == req
        assert spec.priority == PRIORITY_HIGH

    def test_options_split_coalesce_keys(self, data):
        a = JobSpec(tune_request(data))
        b = JobSpec(tune_request(data, options={"block_size": 4}))
        assert a.coalesce_key() != b.coalesce_key()
        # resources that don't change bytes do not split keys
        c = JobSpec(tune_request(data, resources={"workers": 7}))
        assert a.coalesce_key() == c.coalesce_key()
