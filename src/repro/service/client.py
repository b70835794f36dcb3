"""A blocking stdlib client for the synthesis service.

``repro submit`` (and the CI smoke job, and the tests) talk to a
running :class:`~repro.service.server.SynthesisServer` through these
helpers -- plain :mod:`http.client` over one connection per exchange,
matching the server's ``Connection: close`` protocol subset.  Nothing
here retries or load-balances: the client is deliberately the
simplest correct speaker of the wire contract documented in
docs/SERVICE.md, the reference a richer client would be tested
against.
"""

from __future__ import annotations

import http.client
import json
import math
from typing import Any, Dict, Optional, Tuple

from repro.errors import SpecificationError


class ServiceUnreachable(ConnectionError):
    """The server did not accept a TCP connection or answer HTTP."""


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout_s: float = 600.0,
) -> Tuple[int, Dict[str, Any]]:
    """One request/response exchange: ``(status, decoded body)``.

    A port outside 1-65535, or a timeout that is not a positive finite
    number, raises :class:`SpecificationError` before connecting.
    """
    if not 1 <= port <= 65535:
        raise SpecificationError("port must be in 1-65535, got %r" % (port,))
    if not (timeout_s > 0 and math.isfinite(timeout_s)):
        raise SpecificationError(
            "timeout must be a positive finite number of seconds, got %r"
            % (timeout_s,)
        )
    body = None
    headers = {}
    if payload is not None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceUnreachable(
                "%s:%d %s %s failed: %s" % (host, port, method, path, exc)
            ) from exc
    finally:
        conn.close()
    try:
        decoded = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceUnreachable(
            "%s:%d %s %s returned undecodable body (%s)"
            % (host, port, method, path, exc)
        ) from exc
    return response.status, decoded


def submit(
    host: str,
    port: int,
    request: Dict[str, Any],
    timeout_s: float = 600.0,
) -> Tuple[int, Dict[str, Any]]:
    """POST one ``crusade-request`` to ``/synthesize``.

    Returns ``(http status, document)`` -- a ``crusade-response`` on
    200, a ``crusade-error`` otherwise.  ``timeout_s`` must cover a
    full cold synthesis; cache hits return in milliseconds.
    """
    return _request(host, port, "POST", "/synthesize", request, timeout_s)


def healthz(host: str, port: int, timeout_s: float = 10.0) -> Dict[str, Any]:
    """GET the liveness document from ``/healthz``."""
    status, payload = _request(host, port, "GET", "/healthz",
                               timeout_s=timeout_s)
    if status != 200:
        raise ServiceUnreachable("/healthz answered %d" % status)
    return payload


def stats(host: str, port: int, timeout_s: float = 10.0) -> Dict[str, Any]:
    """GET the counters document from ``/stats``."""
    status, payload = _request(host, port, "GET", "/stats",
                               timeout_s=timeout_s)
    if status != 200:
        raise ServiceUnreachable("/stats answered %d" % status)
    return payload


def drain(host: str, port: int, timeout_s: float = 600.0) -> Dict[str, Any]:
    """POST ``/drain`` and block until the server reports drained."""
    status, payload = _request(host, port, "POST", "/drain",
                               timeout_s=timeout_s)
    if status != 200:
        raise ServiceUnreachable("/drain answered %d" % status)
    return payload
