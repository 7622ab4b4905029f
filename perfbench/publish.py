"""The ``publish`` workload: fit, save, load and sample in one process.

The parent side (:func:`run`) starts the workload process several
times to time its set-up, from process launch until the table is
generated and the synthesizer is built, and lets the last one measure.
The workload process (``python -m perfbench.publish``) then repeats
cycles of ``fit`` at the fixed budget -> ``save`` -> ``load_synthesizer``
-> ``sample(N, seed=...)`` until ``--seconds`` have passed, checking
every cycle's output.  Training runs in float32, the mode the
quickstart tells users to switch to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from .common import child_env, derive, median, read_line, rusage_self, stop

#: Synthetic table: the Adult stand-in (6 numeric, 8 categorical
#: attributes and a binary label).
DATASET, RECORDS = "adult", 4000
#: Fit budget: the paper's 10 epochs of 40 iterations.
EPOCHS, ITERATIONS = 10, 40
#: Rows per timed ``sample`` call.
SAMPLE_ROWS = 65536
#: Timed ``sample`` calls per cycle (their median is the cycle's rate).
SAMPLES_PER_CYCLE = 3
#: Rows of the save/load bit-identity check.
CHECK_ROWS = 4096
#: How far a fitted model's mean marginal total-variation distance to
#: the real table may exceed that of a uniform draw over the schema,
#: measured in the same run.  Over 30 seeds a fit at this budget read
#: -0.01 to +0.06 above the uniform draw (0.26-0.31), which is as close
#: as marginal TV tells them apart: a generator with random weights
#: reads about +0.3 and one that collapses to constant rows about +0.5.
TV_MARGIN = 0.1
#: Workload processes started per run; set-up time is their median.
SETUPS = 5


def run(root: str, run_dir: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """Time the set-ups and run the measured process; returns its
    result plus ``setup_s``."""
    env = child_env(root, run_dir)
    command = [sys.executable, "-m", "perfbench.publish", "--seed",
               str(seed), "--seconds", str(seconds), "--trace",
               str(int(trace)), "--out", run_dir]
    setups = []
    proc = None
    try:
        for attempt in range(SETUPS):
            launched = time.perf_counter()
            proc = subprocess.Popen(command, cwd=root, env=env, text=True,
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE)
            line = read_line(proc, 120)
            if line != "READY":
                raise RuntimeError(f"publish process said {line!r}")
            setups.append(time.perf_counter() - launched)
            if attempt < SETUPS - 1:
                proc.stdin.write("exit\n")
                proc.stdin.flush()
                if stop(proc) != 0:
                    raise RuntimeError("publish process failed to exit")
                proc = None
        proc.stdin.write("run\n")
        proc.stdin.flush()
        result = json.loads(read_line(proc, max(150, 4 * seconds)))
        if stop(proc) != 0:
            raise RuntimeError("publish process failed")
        proc = None
    finally:
        stop(proc, grace=5, signum=9)
    result["setups_s"] = setups
    result["setup_s"] = median(setups)
    return result


# ----------------------------------------------------------------------
# Workload process
# ----------------------------------------------------------------------
def _cycle(synth, table, path, seed, index, load_synthesizer):
    """One fit -> save -> load -> sample cycle; returns its timings and
    the loaded model plus the last sampled table."""
    started = time.perf_counter()
    synth.fit(table)
    fitted = time.perf_counter()
    synth.save(path)
    saved = time.perf_counter()
    loaded = load_synthesizer(path)
    done_load = time.perf_counter()
    samples, cpu = [], 0.0
    for k in range(SAMPLES_PER_CYCLE):
        cpu0, t0 = time.process_time(), time.perf_counter()
        sampled = loaded.sample(SAMPLE_ROWS,
                                seed=derive(seed, "sample", index, k))
        samples.append(time.perf_counter() - t0)
        cpu += time.process_time() - cpu0
    ended = time.perf_counter()
    timings = {"fit_s": fitted - started, "save_s": saved - fitted,
               "load_s": done_load - saved, "sample_s": samples,
               "sample_cpu_s": cpu, "wall_s": ended - started}
    return timings, loaded, sampled


def uniform_table(table, rows: int, seed: int):
    """``rows`` rows over ``table``'s schema, every column independent
    and uniform: categories equally likely, numbers over the real
    column's range."""
    import numpy as np
    from repro.datasets import Table

    rng = np.random.default_rng(seed)
    columns = {}
    for attr in table.schema:
        real = table.columns[attr.name]
        columns[attr.name] = (
            rng.integers(0, attr.domain_size, rows) if attr.is_categorical
            else rng.uniform(real.min(), real.max(), rows))
    return Table(table.schema, columns)


def _check(synth, loaded, table, sampled, seed, index, fidelity_summary,
           tv_limit):
    """Output checks of one cycle: save/load bit-identity, and marginal
    fidelity against the real table no worse than ``tv_limit``."""
    check_seed = derive(seed, "check", index)
    a = loaded.sample(CHECK_ROWS, seed=check_seed)
    b = synth.sample(CHECK_ROWS, seed=check_seed)
    identical = a.schema.names == b.schema.names and all(
        a.columns[name].dtype == b.columns[name].dtype
        and a.columns[name].tobytes() == b.columns[name].tobytes()
        for name in a.schema.names)
    tv = fidelity_summary(table, sampled)["mean_marginal_tv"]
    return {"bit_identical": bool(identical), "mean_marginal_tv": tv,
            "tv_ok": bool(tv < tv_limit),
            "rows_ok": len(sampled) == SAMPLE_ROWS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.publish")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro import datasets, nn
    from repro.api import load_synthesizer
    from repro.core import DesignConfig
    from repro.core.statistics import fidelity_summary
    from repro.gan import GANSynthesizer

    nn.set_default_dtype("float32")
    table = datasets.load(DATASET, n_records=RECORDS,
                          seed=derive(args.seed, "table") % 2**32)
    synth = GANSynthesizer(config=DesignConfig(), epochs=EPOCHS,
                           iterations_per_epoch=ITERATIONS,
                           seed=derive(args.seed, "model") % 2**32)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    uniform_tv = fidelity_summary(table, uniform_table(
        table, SAMPLE_ROWS, derive(args.seed, "uniform")))["mean_marginal_tv"]
    tracer = None
    if args.trace:
        from .layers import install_engine
        from .spans import Tracer

        tracer = Tracer(args.out, role="publish")
    cycles, checks = [], []
    started = time.perf_counter()
    index = 0
    # Traced runs alternate untraced and traced cycles, so the two kinds
    # see the same host conditions; their wall times give the overhead.
    while index < 2 or time.perf_counter() - started < args.seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            install_engine(tracer)
            span = tracer.begin("bench.cycle")
        path = os.path.join(args.out, f"publish-model-{index}")
        try:
            timings, loaded, sampled = _cycle(synth, table, path, args.seed,
                                              index, load_synthesizer)
        finally:
            if traced:
                tracer.end(span)
                tracer.uninstall()
        timings["traced"] = traced
        cycles.append(timings)
        checks.append(_check(synth, loaded, table, sampled, args.seed,
                             index, fidelity_summary,
                             uniform_tv + TV_MARGIN))
        index += 1
    result = {"cycles": cycles, "checks": checks, "rusage": rusage_self(),
              "uniform_tv": uniform_tv,
              "dtype": str(nn.get_default_dtype().__name__)}
    if tracer is not None:
        result["trace_file"] = tracer.dump()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
