"""``python -m repro.serve MODELS_DIR [--port 8000] [--workers 4]``.

Serves every saved model under ``MODELS_DIR`` over HTTP until
interrupted.  SIGTERM stops it like Ctrl-C (SIGINT): the pools are
closed, their workers exit, and the port is released.  See
:mod:`repro.serve.http` for the endpoint reference.
"""

from __future__ import annotations

import argparse
import signal

from .http import DEFAULT_STREAM_THRESHOLD, SynthesisServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve saved synthesizers over HTTP.")
    parser.add_argument("root", help="model-store directory "
                                     "(one saved model per subdirectory)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes per model pool "
                             "(0 = inline, no multiprocessing)")
    parser.add_argument("--stream-threshold", type=int,
                        default=DEFAULT_STREAM_THRESHOLD,
                        help="CSV responses with n >= this stream chunked")
    parser.add_argument("--degraded", choices=("reject", "inline"),
                        default="reject",
                        help="behaviour while a model's circuit is "
                             "open: 'reject' fails fast with 503, "
                             "'inline' serves slower in-process "
                             "(bit-identical) until the pool heals")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request")
    args = parser.parse_args(argv)

    server = SynthesisServer(args.root, host=args.host, port=args.port,
                             workers=args.workers,
                             stream_threshold=args.stream_threshold,
                             verbose=args.verbose,
                             degraded=args.degraded)
    print(f"serving models from {args.root!r} at {server.url} "
          f"({args.workers} workers/model; Ctrl-C to stop)", flush=True)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
