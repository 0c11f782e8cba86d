"""JobSpec validation, wire format, and coalesce-key identity."""

import numpy as np
import pytest

from repro.api import CompressionRequest
from repro.serve.jobs import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    Job,
    JobSpec,
    JobState,
)


@pytest.fixture()
def data():
    return np.random.default_rng(7).standard_normal((8, 8)).astype(np.float32)


def tune_spec(data, *, priority=PRIORITY_NORMAL, max_retries=1, **over):
    base = dict(kind="tune", target_ratio=8.0, data_b64=JobSpec.encode_array(data))
    base.update(over)
    return JobSpec(CompressionRequest(**base), priority=priority,
                   max_retries=max_retries)


def request_spec(**fields):
    return JobSpec(CompressionRequest(**fields))


class TestValidation:
    def test_bad_kind(self, data):
        with pytest.raises(ValueError, match="kind"):
            tune_spec(data, kind="frobnicate")

    def test_requires_exactly_one_data_source(self, data):
        with pytest.raises(ValueError, match="exactly one"):
            tune_spec(data, input="also.npy")
        with pytest.raises(ValueError, match="exactly one"):
            request_spec(kind="tune", target_ratio=8.0)

    def test_tune_requires_target(self, data):
        with pytest.raises(ValueError, match="target_ratio"):
            request_spec(kind="tune", data_b64=JobSpec.encode_array(data))

    def test_tune_rejects_error_bound(self, data):
        with pytest.raises(ValueError, match="not error_bound"):
            tune_spec(data, error_bound=1e-3)

    def test_compress_requires_output(self, data):
        with pytest.raises(ValueError, match="output"):
            request_spec(kind="compress", error_bound=1e-3,
                    data_b64=JobSpec.encode_array(data))

    def test_compress_requires_one_objective(self, data):
        b64 = JobSpec.encode_array(data)
        with pytest.raises(ValueError, match="exactly one"):
            request_spec(kind="compress", data_b64=b64, output="o.frz")
        with pytest.raises(ValueError, match="exactly one"):
            request_spec(kind="compress", data_b64=b64, output="o.frz",
                    target_ratio=8.0, error_bound=1e-3)

    def test_bad_tolerance_priority_retries(self, data):
        with pytest.raises(ValueError, match="tolerance"):
            tune_spec(data, tolerance=0.0)
        with pytest.raises(ValueError, match="priority"):
            tune_spec(data, priority="soon")
        with pytest.raises(ValueError, match="max_retries"):
            tune_spec(data, max_retries=-1)

    def test_stream_requires_path(self, data):
        with pytest.raises(ValueError, match="stream"):
            tune_spec(data, stream=True)


class TestWireFormat:
    def test_round_trip(self, data):
        spec = tune_spec(data, priority=PRIORITY_LOW, max_retries=2)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_from_dict_rejects_unknown_keys(self, data):
        payload = tune_spec(data).to_dict()
        payload["frobnicate"] = 1
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict(payload)

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_dict({"target_ratio": 8.0, "input": "x.npy"})

    def test_named_priorities(self, data):
        payload = tune_spec(data).to_dict()
        payload["priority"] = "HIGH"
        assert JobSpec.from_dict(payload).priority == PRIORITY_HIGH
        payload["priority"] = "sometime"
        with pytest.raises(ValueError, match="priority"):
            JobSpec.from_dict(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict([1, 2, 3])

    def test_inline_array_round_trip(self, data):
        spec = tune_spec(data)
        np.testing.assert_array_equal(spec.load_array(), data)


class TestCoalesceKey:
    def test_identical_specs_share_a_key(self, data):
        assert tune_spec(data).coalesce_key() == tune_spec(data).coalesce_key()

    def test_scheduling_hints_do_not_split_keys(self, data):
        a = tune_spec(data, priority=PRIORITY_HIGH, max_retries=0)
        b = tune_spec(data, priority=PRIORITY_LOW, max_retries=3)
        assert a.coalesce_key() == b.coalesce_key()

    def test_work_defining_fields_split_keys(self, data):
        base = tune_spec(data)
        assert base.coalesce_key() != tune_spec(data, target_ratio=9.0).coalesce_key()
        assert base.coalesce_key() != tune_spec(data, compressor="zfp").coalesce_key()
        assert base.coalesce_key() != tune_spec(data, tolerance=0.2).coalesce_key()

    def test_different_data_splits_keys(self, data):
        other = data + 1.0
        assert tune_spec(data).coalesce_key() != tune_spec(other).coalesce_key()

    def test_path_token_tracks_file_changes(self, tmp_path, data):
        path = tmp_path / "f.npy"
        np.save(path, data)
        spec = request_spec(kind="tune", target_ratio=8.0, input=str(path))
        before = spec.coalesce_key()
        assert before == request_spec(kind="tune", target_ratio=8.0, input=str(path)).coalesce_key()
        import os

        np.save(path, data + 1.0)
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on coarse clocks
        assert spec.coalesce_key() != before


class TestJobRecord:
    def test_lifecycle_and_wait(self, data):
        job = Job(id="j1", spec=tune_spec(data))
        assert job.state is JobState.QUEUED and not job.finished
        assert not job.wait(0.01)
        job._finish(JobState.DONE, result={"ok": True})
        assert job.finished and job.wait(0.01)
        assert job.status_dict()["state"] == "done"

    def test_status_dict_is_json_ready(self, data):
        import json

        job = Job(id="j1", spec=tune_spec(data))
        json.dumps(job.status_dict())
