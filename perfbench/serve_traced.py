"""Start the synthesis service with per-layer spans installed.

The traced counterpart of ``python -m repro serve --port 0 --workers 1
--cache-dir DIR``: the same :class:`~repro.service.server.
SynthesisServer`, with the store, digest and service wrappers of
:mod:`layers` installed before ``start()`` and a tracer whose memory
sink keeps the ``service.request`` events.  On SIGTERM it drains like
the real server, then writes its spans, events and counters to
``--out`` once::

    python3 perfbench/serve_traced.py --cache-dir DIR --out FILE
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import signal
import sys

from common import clock, prepare_path
from layers import Recorder, preload_modules


def main(argv=None) -> int:
    """Serve until SIGTERM, then write the trace; returns exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not prepare_path():
        print("serve_traced: src/repro not found", file=sys.stderr)
        return 2
    preload_modules()
    recorder = Recorder()
    recorder.install_store()
    recorder.install_service()

    from repro.obs import MemorySink, Tracer
    from repro.service.server import SynthesisServer

    sink = MemorySink()
    tracer = Tracer(sinks=[sink])

    async def serve() -> float:
        server = SynthesisServer(host="127.0.0.1", port=0, workers=1,
                                 cache_dir=args.cache_dir, tracer=tracer)
        started = clock()
        await server.start()
        print("serving on http://%s:%d" % (server.host, server.port),
              flush=True)
        loop = asyncio.get_running_loop()
        stop = loop.create_future()

        def request_stop() -> None:
            if not stop.done():
                stop.set_result(None)

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, request_stop)
        try:
            await stop
        finally:
            await server.close()
        return clock() - started

    wall = asyncio.run(serve())
    payload = {
        "wall_s": wall,
        "layers": recorder.snapshot(),
        "events": [event.fields for event in sink.named("service.request")],
        "counters": tracer.counters.as_dict(),
    }
    pathlib.Path(args.out).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
