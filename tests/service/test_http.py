"""The HTTP/1.1 subset's request parser, fed bytes directly."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.http import HttpError, read_request


def parse(raw: bytes):
    """``read_request`` over a reader holding ``raw`` and then EOF."""
    async def run():
        reader = asyncio.StreamReader()  # the default 64 KiB limit
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


# 20 000 bytes passes MAX_LINE_BYTES (16 KiB); 70 000 also passes the
# stream reader's own 64 KiB limit, where readline raises ValueError.
@pytest.mark.parametrize("size", [20000, 70000])
@pytest.mark.parametrize("kind, build", [
    ("request", lambda big: b"GET /" + big + b" HTTP/1.1\r\n\r\n"),
    ("header", lambda big: b"GET / HTTP/1.1\r\nX-Big: " + big + b"\r\n\r\n"),
], ids=["request", "header"])
def test_overlong_line_is_a_400(kind, build, size):
    with pytest.raises(HttpError) as info:
        parse(build(b"x" * size))
    assert info.value.status == 400
    assert info.value.detail == "%s line too long" % kind
