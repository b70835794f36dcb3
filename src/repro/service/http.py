"""A deliberately small HTTP/1.1 layer over asyncio streams.

The service has four endpoints, JSON bodies, no keep-alive, no TLS,
no chunked encoding -- a stdlib-only subset chosen so the server adds
**zero** hard dependencies (the ROADMAP's constraint).  What is here
is exactly what the contract needs:

* request parsing with hard limits (request-line/header size, header
  count, a ``Content-Length`` body cap) so a malformed or hostile
  client costs bounded memory and is answered with a structured
  error instead of an exception;
* canonical-JSON responses (:func:`repro.io.campaign_json.
  canonical_dumps`) with ``Connection: close`` semantics, so every
  exchange is one self-delimiting request/response pair.

Anything fancier (pipelining, compression, websockets) belongs behind
a real reverse proxy, which is how docs/SERVICE.md says to deploy.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.io.campaign_json import canonical_dumps

#: Upper bound on one request body; a synthesis spec is < 1 MB even at
#: NGXM scale, so 32 MB is generous without being a memory hazard.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Upper bound on the request line and on any single header line.
MAX_LINE_BYTES = 16 * 1024

#: Upper bound on the number of header lines.
MAX_HEADERS = 100

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that could not be parsed into (method, path, body).

    ``status`` is the HTTP status to answer with; ``detail`` becomes
    the ``crusade-error`` document's human-readable field.
    """

    def __init__(self, status: int, detail: str) -> None:
        """Record the response ``status`` and human ``detail``."""
        super().__init__(detail)
        self.status = status
        self.detail = detail


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request: ``(method, path, headers, body)``.

    Returns ``None`` for a connection closed before a request line
    (a health-checker's TCP probe); raises :class:`HttpError` for
    anything that fails the subset's limits.  Header names are
    lower-cased; duplicate headers keep the last value.
    """
    line = await reader.readline()
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(400, "request line too long")
    try:
        method, path, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "unsupported protocol %r" % (version,))
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if len(line) > MAX_LINE_BYTES:
            raise HttpError(400, "header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise HttpError(400, "too many headers")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "undecodable header") from None
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(400, "chunked transfer encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, "bad Content-Length %r" % (length_text,)) from None
    if length < 0:
        raise HttpError(400, "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, "body of %d bytes exceeds the %d byte limit"
            % (length, MAX_BODY_BYTES)
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "body shorter than Content-Length") from None
    return method.upper(), path, headers, body


def render_response(status: int, payload) -> bytes:
    """One complete canonical-JSON HTTP response, ready to write.

    ``payload`` is serialized with :func:`canonical_dumps`, so equal
    payloads are byte-identical on the wire -- the property
    ``tests/service/test_cli_serve.py`` compares.
    """
    body = canonical_dumps(payload).encode("utf-8")
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "Connection: close\r\n"
        "\r\n" % (status, REASONS.get(status, "Unknown"), len(body))
    )
    return head.encode("ascii") + body
