"""Typed protocol errors for malformed server bodies.

Regression tests for the satellite fix that replaced bare ``KeyError``
with :class:`~repro.serve.client.ProtocolError`: a server answering with
syntactically-valid JSON that is missing (or mistypes) an agreed field
now raises a typed, catchable error at the client — and the node agent
absorbs it with a counted fallback instead of crashing its loop.
"""

from __future__ import annotations

import time

import pytest
from test_client_backoff import _ScriptedServer

from repro.serve.agent import DEFAULT_HEARTBEAT_INTERVAL, NodeAgent
from repro.serve.client import ProtocolError, ServiceClient, ServiceError
from repro.serve.scheduler import Scheduler


def _scripted_client(monkeypatch, responses):
    """A client whose transport replays ``(status, payload)`` pairs."""
    client = ServiceClient("http://127.0.0.1:1")
    script = list(responses)

    def fake(method, path, body=None, headers=None):
        status, payload = script.pop(0)
        return status, payload, {}

    monkeypatch.setattr(client, "_request_full", fake)
    return client


# -- ServiceClient ----------------------------------------------------------
def test_submit_ticket_missing_job_id(monkeypatch):
    client = _scripted_client(monkeypatch, [(202, {"state": "queued"})])
    with pytest.raises(ProtocolError) as exc:
        client.submit(kind="tune", input="/tmp/x.npy", target_ratio=8.0)
    assert "job_id" in str(exc.value)
    assert exc.value.status == 202


def test_submit_ticket_mistyped_job_id(monkeypatch):
    client = _scripted_client(
        monkeypatch, [(202, {"job_id": 7, "state": "queued"})])
    with pytest.raises(ProtocolError) as exc:
        client.submit(kind="tune", input="/tmp/x.npy", target_ratio=8.0)
    assert "job_id" in str(exc.value)
    assert "int" in str(exc.value)


def test_result_payload_missing_state(monkeypatch):
    client = _scripted_client(monkeypatch, [(200, {"result": {}})])
    with pytest.raises(ProtocolError) as exc:
        client.result("j-1")
    assert "state" in str(exc.value)


def test_result_done_without_result_dict(monkeypatch):
    client = _scripted_client(monkeypatch, [(200, {"state": "done"})])
    with pytest.raises(ProtocolError) as exc:
        client.result("j-1")
    assert "result" in str(exc.value)


def test_result_with_mistyped_result_field(monkeypatch):
    client = _scripted_client(
        monkeypatch, [(200, {"state": "done", "result": "oops"})])
    with pytest.raises(ProtocolError):
        client.result("j-1")


def test_well_formed_bodies_still_pass(monkeypatch):
    client = _scripted_client(monkeypatch, [
        (202, {"job_id": "j-1", "state": "queued"}),
        (200, {"state": "done", "result": {"ratio": 8.0}}),
    ])
    ticket = client.submit(kind="tune", input="/tmp/x.npy", target_ratio=8.0)
    assert ticket["job_id"] == "j-1"
    assert client.result("j-1") == {"ratio": 8.0}


def test_protocol_error_is_a_service_error():
    # Existing callers catching ServiceError keep working.
    assert issubclass(ProtocolError, ServiceError)


# -- NodeAgent parsing ------------------------------------------------------
@pytest.mark.parametrize("value", [True, False, "fast", -1, 0, None, {}])
def test_parse_interval_rejects_garbage(value):
    with pytest.raises(ProtocolError) as exc:
        NodeAgent._parse_interval({"heartbeat_interval": value})
    assert "heartbeat_interval" in str(exc.value)


def test_parse_interval_accepts_numbers_and_defaults():
    assert NodeAgent._parse_interval({"heartbeat_interval": 2}) == 2.0
    assert NodeAgent._parse_interval({"heartbeat_interval": 0.25}) == 0.25
    assert NodeAgent._parse_interval({}) == DEFAULT_HEARTBEAT_INTERVAL


@pytest.mark.parametrize("value", ["j-1", {"j-1": 1}, [1, 2], ["j-1", None]])
def test_parse_acked_rejects_non_string_lists(value):
    with pytest.raises(ProtocolError):
        NodeAgent._parse_acked({"acked": value})


def test_parse_acked_accepts_lists_and_absence():
    assert NodeAgent._parse_acked({"acked": ["a", "b"]}) == ["a", "b"]
    assert NodeAgent._parse_acked({}) == []
    assert NodeAgent._parse_acked({"acked": None}) == []


def test_agent_register_falls_back_on_protocol_error(monkeypatch):
    """A gateway that mangles the interval still registers the agent:
    the loop keeps running at the default rate and the error is counted."""
    sched = Scheduler(workers=1, cache=False, metrics=False)
    agent = NodeAgent(sched, gateway_url="http://127.0.0.1:1",
                      node_id="n0", advertise_url="http://127.0.0.1:2")
    monkeypatch.setattr(
        agent, "_post",
        lambda path, body: (200, {"heartbeat_interval": "soonish"}))
    agent._try_register()
    assert agent.registered
    assert agent.protocol_errors == 1
    assert agent.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL
    assert agent.status_dict()["protocol_errors"] == 1


def test_agent_heartbeat_ignores_mistyped_acks(monkeypatch):
    sched = Scheduler(workers=1, cache=False, metrics=False)
    agent = NodeAgent(sched, gateway_url="http://127.0.0.1:1",
                      node_id="n0", advertise_url="http://127.0.0.1:2")
    agent.registered = True
    agent._pending.append("j-1")
    agent._pending_set.add("j-1")
    monkeypatch.setattr(
        agent, "_post", lambda path, body: (200, {"acked": "j-1"}))
    agent._try_heartbeat()
    assert agent.protocol_errors == 1
    assert "j-1" in agent._pending_set  # nothing silently dropped


# -- bodies that are not JSON objects at all ----------------------------------
@pytest.mark.parametrize("raw", [b"<html>captive portal</html>", b"[1, 2]", b""])
def test_2xx_non_object_body_is_a_protocol_error(raw):
    with _ScriptedServer([(200, raw)]) as server:
        with pytest.raises(ProtocolError) as exc:
            ServiceClient(server.url)._request("POST", "/submit", {})
    assert exc.value.status == 200


def test_error_status_non_object_body_reads_as_empty():
    with _ScriptedServer([(502, b"<html>bad gateway</html>"), (404, b"[]")]) as server:
        client = ServiceClient(server.url)
        assert client._request("POST", "/submit", {}) == (502, {})
        assert client._request("POST", "/submit", {}) == (404, {})


def test_agent_survives_non_json_200_and_registers_after_recovery():
    """A gateway (or a proxy in front of it) answering ``200 <html>``
    used to kill the heartbeat thread with a bare ``JSONDecodeError``,
    after which the node was reaped as dead."""
    script = ([(200, b"<html>captive portal</html>")] * 2
              + [(200, {"heartbeat_interval": 0.05})]
              + [(200, {"state": "active", "acked": []})] * 400)
    sched = Scheduler(workers=1, cache=False, metrics=False)
    with _ScriptedServer(script) as gateway:
        agent = NodeAgent(sched, gateway.url, node_id="n0",
                          advertise_url="http://127.0.0.1:2",
                          heartbeat_interval=0.05).start()
        try:
            deadline = time.monotonic() + 10.0
            while not agent.registered and time.monotonic() < deadline:
                time.sleep(0.01)
            assert agent._thread.is_alive()
            assert agent.protocol_errors >= 1
            assert agent.registered
        finally:
            agent.stop()
