"""Benchmark of the repro synthesis stack: one command per workload.

    python3 perfbench/run.py --workload publish|serve-small|serve-bulk \\
        --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the program under ``src/``.
With ``--trace 0`` it measures the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it times calls into each layer
and reports the per-layer metrics, the self-time breakdown and the
tracing overhead.  Either way it checks the program's outputs, prints a
human-readable report plus one ``report`` JSON line, and ends with the
result line ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Benchmark modules are imported as ``perfbench.*`` from ROOT, never as
# top-level names from this directory.
if sys.path and os.path.abspath(sys.path[0]) == HERE:
    del sys.path[0]

WORKLOADS = ("publish", "serve-small", "serve-bulk")
#: A run gives up (exit 1, no result) after this many seconds.
DEADLINE_S = 170


def declared() -> dict:
    """``BENCHMARK.json``: the names, units and directions of the
    metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nowhere
    else), or exit 2."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize_publish(result: dict, trace: bool) -> dict:
    from perfbench.common import median
    from perfbench.publish import SAMPLE_ROWS, SAMPLES_PER_CYCLE

    cycles = result["cycles"]
    plain = [c for c in cycles if not c["traced"]]
    fit_s = median([c["fit_s"] for c in plain])
    rows_per_s = median([SAMPLE_ROWS / s for c in plain
                         for s in c["sample_s"]])
    checks = result["checks"]
    attempted = len(cycles) * (3 + SAMPLES_PER_CYCLE)
    report = {
        "dtype": result["dtype"], "cycles": len(cycles),
        "setups_s": result["setups_s"],
        "fit_s": fit_s, "sample_rows_per_s": rows_per_s,
        "fits_s": [c["fit_s"] for c in plain],
        "failed_share": 0.0,
        "checks": {
            "bit_identical": all(c["bit_identical"] for c in checks),
            "tv_ok": all(c["tv_ok"] for c in checks),
            "rows_ok": all(c["rows_ok"] for c in checks),
            "mean_marginal_tv": [c["mean_marginal_tv"] for c in checks],
            "uniform_mean_marginal_tv": result["uniform_tv"],
        },
    }
    correct = all(report["checks"][k] for k in
                  ("bit_identical", "tv_ok", "rows_ok"))
    end_to_end = {"setup_s": result["setup_s"],
                  "peak_rss_mb": result["rusage"]["maxrss_mb"],
                  "latency_ms.p50": 1000 * fit_s,
                  "rows_per_s": rows_per_s}
    layers = None
    if trace:
        from perfbench.analysis import publish_metrics
        from perfbench.spans import load_dump

        layers = publish_metrics(load_dump(result["trace_file"]))
        traced = [c["wall_s"] for c in cycles if c["traced"]]
        layers["metrics"]["obs.trace_overhead_share"] = (
            median(traced) / median([c["wall_s"] for c in plain]) - 1.0)
    return {"correct": correct, "attempted": attempted, "failed": 0,
            "end_to_end": end_to_end, "report": report, "layers": layers}


def _phase_report(phase: dict) -> dict:
    return {k: v for k, v in phase.items() if k not in ("records",)}


def summarize_serve(kind: str, result: dict) -> dict:
    from perfbench.common import median

    phases = result["phases"]
    attempted = sum(p["sent"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    report = {"dtype": "float64",
              "phases": {name: _phase_report(p) for name, p in
                         phases.items()},
              "failed_share": failed / attempted,
              "checks": result["checks"]}
    end_to_end = {}
    if kind == "serve-small":
        if "base" in phases:
            report.update({
                "base.latency_ms.p50": phases["base"]["latency_ms.p50"],
                "base.latency_ms.p95": phases["base"]["latency_ms.p95"],
                "busy.latency_ms.p95": phases["busy"]["latency_ms.p95"]})
        # The declared figures come from the closed-loop burst: the
        # open-loop median moved by a third from run to run on a 2-CPU
        # box whose speed drifts, because queueing amplifies the drift.
        end_to_end["rows_per_s"] = phases["burst"]["rows_per_s"]
        end_to_end["latency_ms.p50"] = phases["burst"]["latency_ms.p50"]
    else:
        bulk = phases["bulk"]
        ttfb = [r["first_byte"] - r["sent"] for r in bulk["records"]
                if r["first_byte"] is not None]
        report.update({"rows_per_s": bulk["rows_per_s"],
                       "ttfb_ms.p50": 1000 * median(ttfb),
                       "ttfb_ms": [1000 * t for t in ttfb],
                       "request_s": [r["service"] for r in bulk["records"]]})
        # Time to first byte is reported, not declared: it follows the
        # first chunk through two workers' contended BLAS threads, and
        # its median over one run's few requests moved by a quarter
        # from seed to seed.  Whole-request latency averages over the
        # stream.
        end_to_end.update({"rows_per_s": bulk["rows_per_s"],
                           "latency_ms.p50": bulk["latency_ms.p50"]})
    end_to_end["peak_rss_mb"] = result["peak_rss_mb"]
    if "setup_s" in result:
        end_to_end["setup_s"] = result["setup_s"]
        report["setups_s"] = result["setups_s"]
    return {"correct": bool(result["checks"]["ok"]), "attempted": attempted,
            "failed": failed, "end_to_end": end_to_end, "report": report,
            "layers": result.get("layers")}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(workload: str, seed: int, trace: bool, summary: dict,
                 machine: dict, spec: dict) -> None:
    from perfbench.analysis import MOVES

    report = summary["report"]
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"cpus={machine['cpus']}  blas={machine.get('blas')} "
          f"{machine.get('blas_version')} threads="
          f"{machine.get('blas_threads')}  dtype={report['dtype']}")
    for metric in spec["end_to_end"]:
        # A traced serve run starts one server, so it times no set-up.
        if metric["name"] in summary["end_to_end"]:
            print(f"  {metric['name']:<28} "
                  f"{summary['end_to_end'][metric['name']]:14.4f} "
                  f"{metric['unit']}")
    for name, unit in (("fit_s", "s"), ("sample_rows_per_s", "rows/s"),
                       ("base.latency_ms.p50", "ms"),
                       ("base.latency_ms.p95", "ms"),
                       ("busy.latency_ms.p95", "ms"), ("ttfb_ms.p50", "ms"),
                       ("failed_share", "ratio")):
        if name in report:
            print(f"  {name:<28} {report[name]:14.4f} {unit}")
    for name, phase in report.get("phases", {}).items():
        extra = ""
        if phase["kind"] == "open":
            extra = (f" p50={phase['latency_ms.p50']:.2f}ms "
                     f"p95={phase['latency_ms.p95']:.2f}ms "
                     f"(n={phase['samples']}, {phase['beyond_p95']} beyond "
                     f"p95) late.p99={phase['client.late_ms.p99']:.2f}ms "
                     f"backlog mid/end={phase['backlog_mid']}/"
                     f"{phase['backlog_end']} valid={phase['valid']}")
        else:
            extra = (f" p50={phase['latency_ms.p50']:.2f}ms "
                     f"(n={phase['samples']}) "
                     f"rows/s={phase['rows_per_s']:.1f}")
        print(f"  phase {name}: sent={phase['sent']} "
              f"ok={phase['succeeded']} failed={phase['failed']}{extra}")
    print(f"  checks: {json.dumps(report['checks'])}")
    layers = summary["layers"]
    if layers is not None:
        print("  per-layer metric                    value       unit    "
              "should move / on / flat on")
        for metric in spec["per_layer"]:
            name = metric["name"]
            moves, on, flat = MOVES[name]
            print(f"  {name:<34} {layers['metrics'][name]:11.4f} "
                  f"{metric['unit']:<8} {moves} / {on} / {flat}")
        parts = layers["breakdown"]
        print(f"  self-time breakdown over {layers['roots']} roots "
              f"(wall {parts['wall']:.3f}s, layers plus unattributed "
              f"{parts['sum']:.3f}s):")
        for layer, seconds in parts.items():
            if layer not in ("wall", "sum"):
                share = seconds / parts["wall"] if parts["wall"] else 0.0
                print(f"    {layer:<16} {seconds:9.3f}s {100 * share:6.2f}%")
        print(f"  premise: {json.dumps(layers['premise'])}")
        print(f"  linkage [linked, all]: {json.dumps(layers['linkage'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    spec = declared()

    def give_up(signum, frame):
        raise TimeoutError(f"run passed its {DEADLINE_S}s deadline")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(DEADLINE_S)
    from perfbench import publish, serving
    from perfbench.analysis import linked, premise_holds
    from perfbench.common import machine_shape

    run_dir = os.path.join(ROOT, ".perfbench-run", f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        started = time.perf_counter()
        if args.workload == "publish":
            summary = summarize_publish(
                publish.run(ROOT, run_dir, args.seed, args.seconds,
                            bool(args.trace)), bool(args.trace))
        else:
            summary = summarize_serve(
                args.workload,
                serving.run(args.workload, ROOT, run_dir, args.seed,
                            args.seconds, bool(args.trace)))
        elapsed = time.perf_counter() - started
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    machine = machine_shape()
    layers = summary["layers"]
    checks_ok = summary["correct"]
    if layers is not None:
        # The breakdown is only as good as the trees it sums: every
        # traced span must have found its request or cycle.
        summary["report"]["checks"]["spans_linked"] = linked(
            layers["linkage"])
        checks_ok = checks_ok and summary["report"]["checks"]["spans_linked"]
        layers["premise"]["holds"] = premise_holds(args.workload,
                                                   layers["premise"])
    print_report(args.workload, args.seed, bool(args.trace), summary,
                 machine, spec)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": elapsed, "machine": machine, **summary["report"]}
    if layers is not None:
        report["breakdown"] = layers["breakdown"]
        report["worker_breakdown"] = layers.get("worker_breakdown")
        report["premise"] = layers["premise"]
        report["traced_roots"] = layers["roots"]
        report["linkage"] = layers["linkage"]
    print("report " + json.dumps(report, default=str))
    if args.trace:
        values, declared_metrics = layers["metrics"], spec["per_layer"]
    else:
        values, declared_metrics = summary["end_to_end"], spec["end_to_end"]
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in declared_metrics}
    print(json.dumps({"correct": bool(checks_ok),
                      "attempted": int(summary["attempted"]),
                      "failed": int(summary["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
