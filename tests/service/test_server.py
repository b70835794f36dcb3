"""End-to-end server behaviour through a real socket and real client.

Every test here exchanges actual HTTP with a listening
:class:`~repro.service.server.SynthesisServer` (see conftest's
:class:`ServerHarness`); the synthesis tests run real jobs in real
worker processes against the tiny deterministic spec.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from repro.io.service_json import build_request, result_bytes
from repro.service.client import drain, healthz, stats, submit

from tests.service.conftest import service_spec


def raw_exchange(port: int, payload: bytes) -> bytes:
    """Ship raw bytes at the server, return everything it answers."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_body(port: int, path: str, body: bytes):
    """POST arbitrary bytes as JSON; returns (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class FakePool:
    """A controllable stand-in for ShardPool (the coalescing seam)."""

    workers = 1
    alive_workers = 1
    backlog = 0
    draining = False

    def __init__(self, verdict=None) -> None:
        """``verdict`` is returned by every submit (default: done)."""
        self.calls = []
        self.release = None  # created on the server loop in start()
        self.verdict = verdict or {
            "status": "done",
            "result": {"result": {"system": "svc-tiny", "cost": 1.0}},
            "attempts": 1, "queue_wait_s": 0.0, "shard": 0,
        }

    async def start(self) -> None:
        self.release = asyncio.Event()

    async def drain(self) -> None:
        pass

    async def submit(self, job_id, payload):
        self.calls.append((job_id, payload))
        await self.release.wait()
        return dict(self.verdict)


# ----------------------------------------------------------------------
# plumbing endpoints
# ----------------------------------------------------------------------
def test_healthz_reports_live_workers(harness_factory):
    harness = harness_factory(pool=FakePool())
    payload = healthz("127.0.0.1", harness.port)
    assert payload["status"] == "ok"
    assert payload["workers"] == 1
    assert payload["cache"] is False


def test_unknown_path_is_a_structured_404(harness_factory):
    harness = harness_factory(pool=FakePool())
    status, body = post_body(harness.port, "/frobnicate", b"{}")
    assert status == 404
    assert body["error"]["kind"] == "not-found"


def test_wrong_method_is_a_structured_405(harness_factory):
    harness = harness_factory(pool=FakePool())
    status, body = post_body(harness.port, "/healthz", b"{}")
    assert status == 405
    assert body["error"]["kind"] == "method-not-allowed"


def test_non_json_body_is_a_structured_400(harness_factory):
    harness = harness_factory(pool=FakePool())
    status, body = post_body(harness.port, "/synthesize", b"{nope")
    assert status == 400
    assert body["error"]["kind"] == "invalid-json"


def test_invalid_request_gets_every_error_in_one_400(harness_factory):
    harness = harness_factory(pool=FakePool())
    status, body = submit(
        "127.0.0.1", harness.port, {"format": "wrong", "config": {"zoom": 1}}
    )
    assert status == 400
    assert body["error"]["kind"] == "bad-request"
    joined = "\n".join(body["error"]["errors"])
    assert "format:" in joined and "config.zoom" in joined and "spec:" in joined


def test_out_of_range_config_values_are_a_400_before_dispatch(
    harness_factory,
):
    """Values ``CrusadeConfig`` refuses never reach the shard pool."""
    harness = harness_factory(workers=1, retries=1)
    for config in ({"max_explicit_copies": 0}, {"interface_retries": -1},
                   {"policy": "bogus"}):
        status, body = submit(
            "127.0.0.1", harness.port, build_request(service_spec(), config)
        )
        assert status == 400, config
        assert body["error"]["kind"] == "bad-request"
        (error,) = body["error"]["errors"]
        assert error.startswith("config:"), error
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.rejected.invalid"] == 3
    assert not [name for name in counters if name.startswith("service.jobs.")]


@pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
def test_specs_crusade_refuses_are_a_400_before_dispatch(
    harness_factory, tmp_path, store,
):
    """A cyclic graph or a task naming no library PE type never
    reaches the shard pool, with or without a store to probe."""
    harness = harness_factory(
        workers=1, retries=1, cache_dir=str(tmp_path) if store else None,
    )
    cyclic = build_request(service_spec())
    cyclic["spec"]["graphs"][0]["edges"].append(
        {"src": "c", "dst": "a", "bytes": 128}
    )
    foreign = build_request(service_spec())
    for task in foreign["spec"]["graphs"][0]["tasks"]:
        task["exec_times"] = {"NO-SUCH-PE": 0.0005}
    for request, problem in ((cyclic, "contains a cycle"),
                             (foreign, "names no PE type")):
        status, body = submit("127.0.0.1", harness.port, request)
        assert status == 400, body
        assert body["error"]["kind"] == "bad-request"
        (error,) = body["error"]["errors"]
        assert error.startswith("spec:") and problem in error, error
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.rejected.invalid"] == 2
    assert "service.errors.internal" not in counters
    assert not [name for name in counters if name.startswith("service.jobs.")]


def test_non_finite_spec_value_is_a_400_before_dispatch(harness_factory):
    """A NaN WCET (``json`` reads the ``NaN`` token) is refused at
    admission, naming the field, and never reaches the shard pool."""
    harness = harness_factory(workers=1, retries=1)
    request = build_request(service_spec())
    request["spec"]["graphs"][0]["tasks"][0]["exec_times"]["MC68040"] = (
        float("nan")
    )
    status, body = submit("127.0.0.1", harness.port, request)
    assert status == 400, body
    assert body["error"]["kind"] == "bad-request"
    (error,) = body["error"]["errors"]
    assert error == (
        "spec: task 'a' WCET on PE type 'MC68040' must be finite, got nan"
    )
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.rejected.invalid"] == 1
    assert not [name for name in counters if name.startswith("service.jobs.")]


def test_oversized_declared_body_is_a_413(harness_factory):
    harness = harness_factory(pool=FakePool())
    raw = (b"POST /synthesize HTTP/1.1\r\n"
           b"Content-Length: 99999999999\r\n\r\n")
    answer = raw_exchange(harness.port, raw)
    assert answer.startswith(b"HTTP/1.1 413 ")
    assert b"payload-too-large" in answer


def test_header_line_past_the_stream_limit_is_a_400(harness_factory):
    """A header line longer than the stream reader's 64 KiB limit gets
    the same counted 400 as one just past ``MAX_LINE_BYTES``."""
    harness = harness_factory(pool=FakePool())
    raw = (b"POST /synthesize HTTP/1.1\r\n"
           b"X-Big: " + b"x" * 69991 + b"\r\n\r\n")
    answer = raw_exchange(harness.port, raw)
    assert answer.startswith(b"HTTP/1.1 400 ")
    assert b"header line too long" in answer
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.rejected"] == 1


def test_bare_tcp_probe_is_tolerated(harness_factory):
    harness = harness_factory(pool=FakePool())
    assert raw_exchange(harness.port, b"") == b""
    assert healthz("127.0.0.1", harness.port)["status"] == "ok"


# ----------------------------------------------------------------------
# the synthesis path (real workers, real store)
# ----------------------------------------------------------------------
def test_cache_miss_then_exact_hit_is_byte_identical(harness_factory, tmp_path):
    harness = harness_factory(workers=1, cache_dir=str(tmp_path / "store"))
    request = build_request(service_spec())
    status1, first = submit("127.0.0.1", harness.port, request)
    status2, second = submit("127.0.0.1", harness.port, request)
    assert (status1, status2) == (200, 200)
    assert first["status"] == second["status"] == "done"
    assert first["cache_hit"] is False
    assert second["cache_hit"] is True
    assert first["key"] == second["key"]
    assert result_bytes(first) == result_bytes(second)
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.cache.miss"] == 1
    assert counters["service.cache.hit"] == 1
    assert counters["service.jobs.done"] == 1


def test_store_filled_by_crusade_serves_the_first_request(harness_factory,
                                                          tmp_path):
    """``crusade()`` and the service probe agree on the result key."""
    from repro import CrusadeConfig, crusade
    from repro.perf.store import SynthesisStore, join_result_key
    from repro.resources.catalog import default_library

    store_dir = str(tmp_path / "store")
    spec = service_spec()
    crusade(spec, config=CrusadeConfig(cache_dir=store_dir))
    pool = FakePool()
    harness = harness_factory(pool=pool, cache_dir=store_dir)
    harness.run(_set_event(pool))
    status, body = submit("127.0.0.1", harness.port, build_request(spec))
    assert status == 200
    assert body["cache_hit"] is True
    assert pool.calls == []
    assert join_result_key(**body["key"]) == SynthesisStore(
        store_dir
    ).result_key(spec, default_library(), CrusadeConfig())


def test_config_overrides_shift_the_key_by_their_semantics(harness_factory,
                                                           tmp_path):
    harness = harness_factory(workers=1, cache_dir=str(tmp_path / "store"))
    base = build_request(service_spec())
    baseline = build_request(service_spec(), {"reconfiguration": False})
    restated = build_request(service_spec(), {"reconfiguration": True})
    _, first = submit("127.0.0.1", harness.port, base)
    _, second = submit("127.0.0.1", harness.port, baseline)
    _, third = submit("127.0.0.1", harness.port, restated)
    # A semantic knob is a different synthesis: new key, cache miss.
    assert second["cache_hit"] is False
    assert first["key"]["config"] != second["key"]["config"]
    assert first["key"]["spec"] == second["key"]["spec"]
    # An override restating the default is the *same* synthesis.
    assert third["cache_hit"] is True
    assert third["key"] == first["key"]


def test_failed_job_degrades_to_a_structured_response(harness_factory):
    verdict = {
        "status": "failed", "attempts": 2,
        "error": {"kind": "crash", "detail": "worker process died"},
        "queue_wait_s": 0.0, "shard": 0,
    }
    pool = FakePool(verdict=verdict)
    harness = harness_factory(pool=pool)
    harness.run(_set_event(pool))
    status, body = submit(
        "127.0.0.1", harness.port, build_request(service_spec())
    )
    assert status == 200  # the request was valid; the job failed
    assert body["status"] == "failed"
    assert body["error"]["kind"] == "crash"


async def _set_event(pool):
    pool.release.set()


def test_duplicate_inflight_requests_coalesce_onto_one_job(harness_factory):
    pool = FakePool()
    harness = harness_factory(pool=pool)
    request = build_request(service_spec())
    results = {}

    def worker(slot):
        results[slot] = submit("127.0.0.1", harness.port, request,
                               timeout_s=60.0)

    leader = threading.Thread(target=worker, args=("leader",))
    leader.start()
    _await_counter(harness, "service.cache.miss", 1)
    follower = threading.Thread(target=worker, args=("follower",))
    follower.start()
    _await_counter(harness, "service.coalesced", 1)
    harness.run(_set_event(pool))
    leader.join(30.0)
    follower.join(30.0)
    documents = [results["leader"][1], results["follower"][1]]
    assert len(pool.calls) == 1  # one synthesis for two requests
    assert sorted(d["coalesced"] for d in documents) == [False, True]
    assert all(d["status"] == "done" for d in documents)
    assert result_bytes(documents[0]) == result_bytes(documents[1])


def _await_counter(harness, name, value, timeout_s=30.0):
    """Poll /stats until ``name`` reaches ``value``."""
    import time

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        counters = stats("127.0.0.1", harness.port)["counters"]
        if counters.get(name, 0) >= value:
            return
        time.sleep(0.02)
    raise AssertionError("counter %s never reached %d" % (name, value))


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_drain_refuses_new_work_but_keeps_answering_probes(harness_factory):
    harness = harness_factory(workers=1)
    request = build_request(service_spec())
    _, first = submit("127.0.0.1", harness.port, request)
    assert first["status"] == "done"
    drained = drain("127.0.0.1", harness.port)
    assert drained["status"] == "drained"
    status, body = submit("127.0.0.1", harness.port, request)
    assert status == 503
    assert body["error"]["kind"] == "draining"
    assert healthz("127.0.0.1", harness.port)["status"] == "drained"
    counters = stats("127.0.0.1", harness.port)["counters"]
    assert counters["service.rejected.draining"] == 1


def test_cli_submit_prints_the_error_kind_and_every_problem(
    harness_factory, tmp_path, capsys,
):
    """``repro submit`` reads the ``error`` object a ``crusade-error``
    document nests: one status line, then one line per problem."""
    from repro.cli import main
    from repro.io.spec_json import save_spec_file

    harness = harness_factory(pool=FakePool())
    spec_path = tmp_path / "spec.json"
    save_spec_file(service_spec(), spec_path)
    code = main([
        "submit", str(spec_path), "--port", str(harness.port),
        "--set", "bogus=1", "--set", "max_cluster_size=0",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "HTTP 400 bad-request: request failed validation",
        "  - config.bogus: unknown or non-overridable field",
        "  - config: max_cluster_size must be >= 1",
    ]
