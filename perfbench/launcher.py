"""Server process of the serve workloads.

Runs what ``python -m repro.serve ROOT --workers 2`` runs (a
:class:`repro.serve.SynthesisServer` on the main thread, stopped by
SIGINT), except that it binds an ephemeral port and prints it, and that
it records, for the benchmark:

* its own peak RSS and CPU time, and those of each ``fork``ed worker,
  written as ``server-<pid>.json`` / ``worker-<pid>.json`` in ``--out``
  when each process ends;
* with ``--trace 1``, spans around the serving and engine layers
  (:mod:`perfbench.layers`), installed before the pool forks its
  workers so the workers inherit them.

Usage: ``python -m perfbench.launcher STORE_ROOT --out DIR --trace 0|1``
"""

from __future__ import annotations

import argparse

#: Sampling workers of the server, as ``--workers 2`` gives them.
WORKERS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.launcher")
    parser.add_argument("root")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from .spans import Tracer

    tracer = Tracer(args.out, role="server")
    server = None
    try:
        if args.trace:
            from .layers import install_engine, install_server

            install_engine(tracer)
            install_server(tracer)
        tracer.follow_forks("worker")
        from repro.serve import SynthesisServer

        server = SynthesisServer(args.root, port=0, workers=WORKERS)
        print(f"PORT {server.port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.close()
        tracer.dump()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
