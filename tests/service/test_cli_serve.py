"""``repro serve`` as a real process: bind, cache, count, drain on SIGTERM.

The in-process harness (``conftest.ServerHarness``) never runs the
CLI's own event loop, so this is the one test of ``_cmd_serve``'s
signal handling and graceful drain, driven through ``repro submit``
exactly as an operator would.  The settings ``repro serve`` and
``repro submit`` refuse are checked in-process, with worker spawning,
socket binding and connecting made to fail the test.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pathlib
import re
import select
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.io.service_json import result_bytes
from repro.io.spec_json import save_spec_file
from repro.service.client import stats
from repro.service.pool import ShardPool

from tests.service.conftest import service_spec

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
_SERVING = re.compile(r"serving on http://([^:\s]+):(\d+)\s")


def _env() -> dict:
    """The test's environment with this checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


def _read_until_serving(proc: subprocess.Popen, timeout_s: float) -> tuple:
    """(host, port) from the server's "serving on" line.

    Reads the raw pipe, so ``select`` sees every byte not yet read
    (a buffered ``readline`` could strand the line in its buffer).
    """
    deadline = time.monotonic() + timeout_s
    text = ""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if not ready:
            continue
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            break  # the server exited before binding
        text += chunk.decode("utf-8", "replace")
        match = _SERVING.search(text)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError("server never reported its port:\n" + text)


def _submit(port: int, spec_path: pathlib.Path, out: pathlib.Path) -> dict:
    """``repro submit`` one spec; returns the response document."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "submit", str(spec_path),
         "--port", str(port), "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_serve_caches_counts_and_drains_on_sigterm(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_spec_file(service_spec(), spec_path)
    # A session of its own, so cleanup can reach the shard workers
    # too: they hold the output pipe open if the server dies alone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "store")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=_env(), start_new_session=True,
    )
    try:
        host, port = _read_until_serving(proc, timeout_s=60.0)

        first = _submit(port, spec_path, tmp_path / "first.json")
        second = _submit(port, spec_path, tmp_path / "second.json")
        assert first["status"] == "done" and first["cache_hit"] is False
        assert second["status"] == "done" and second["cache_hit"] is True
        assert result_bytes(first) == result_bytes(second)

        counters = stats(host, port)["counters"]
        assert counters["service.cache.miss"] == 1, counters
        assert counters["service.cache.hit"] == 1, counters
        assert counters["service.jobs.done"] == 1, counters

        proc.send_signal(signal.SIGTERM)
        output = proc.communicate(timeout=60)[0].decode("utf-8", "replace")
        assert proc.returncode == 0, output
        assert "drained" in output, output
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # drained: the whole group already exited
        proc.communicate()


REFUSED_SETTINGS = [
    (["--workers", "0"], "needs >= 1 worker"),
    (["--workers", "-1"], "needs >= 1 worker"),
    (["--retries", "-1"], "retries must be >= 0"),
    (["--timeout", "-5"], "timeout must be positive"),
    (["--timeout", "0"], "timeout must be positive"),
    (["--port", "70000"], "port must be in 0-65535"),
    (["--port", "-1"], "port must be in 0-65535"),
]


@pytest.mark.parametrize(
    "flags, message", REFUSED_SETTINGS,
    ids=[" ".join(flags) for flags, _ in REFUSED_SETTINGS],
)
def test_serve_refuses_bad_settings_before_starting(
    flags, message, monkeypatch, capsys
):
    """A setting no server can run with is one ``error:`` line and
    exit 2, before any shard worker is spawned or socket bound."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("serve started with a refused setting")

    monkeypatch.setattr(ShardPool, "start", must_not_run)
    monkeypatch.setattr(asyncio, "start_server", must_not_run)
    assert main(["serve"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


REFUSED_SUBMITS = [
    (["--timeout", "-1"], "timeout must be a positive finite number"),
    (["--timeout", "0"], "timeout must be a positive finite number"),
    (["--timeout", "inf"], "timeout must be a positive finite number"),
    (["--timeout", "nan"], "timeout must be a positive finite number"),
    (["--port", "0"], "port must be in 1-65535"),
    (["--port", "65536"], "port must be in 1-65535"),
    (["--port", "-1"], "port must be in 1-65535"),
]


@pytest.mark.parametrize(
    "flags, message", REFUSED_SUBMITS,
    ids=[" ".join(flags) for flags, _ in REFUSED_SUBMITS],
)
def test_submit_refuses_bad_settings_before_connecting(
    flags, message, tmp_path, monkeypatch, capsys
):
    """A timeout or port no exchange can use is one ``error:`` line
    and exit 2, before any connection is made."""

    def must_not_connect(*args, **kwargs):
        raise AssertionError("submit connected with a refused setting")

    monkeypatch.setattr(http.client, "HTTPConnection", must_not_connect)
    spec_path = tmp_path / "spec.json"
    save_spec_file(service_spec(), spec_path)
    assert main(["submit", str(spec_path)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
