"""perfbench's wrappers still find every program name they time.

A traced perfbench run wraps functions of the program by name
(``perfbench/layers.py``) and fails to start when one of them is
renamed or removed.  Installing both sets of wrappers here turns that
into a tier-1 failure, and uninstalling them must leave every wrapped
attribute as it was.
"""

from perfbench import spans
from perfbench.layers import install_engine, install_server


def test_perfbench_hooks_install_and_uninstall():
    tracer = spans.Tracer()
    try:
        install_engine(tracer)
        install_server(tracer)
        patched = list(tracer._patches)
        wrapped = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _ in patched}
    finally:
        tracer.uninstall()
    assert {("repro.serve.http", "columns_payload"),
            ("repro.serve.http", "schema_payload"),
            ("repro.serve.encoding", "csv_rows"),
            ("MicroBatcher", "submit"),
            ("WorkerPool", "sample"), ("WorkerPool", "sample_iter"),
            ("SynthesisService", "sample"),
            ("SynthesisService", "sample_iter")} <= wrapped
    for owner, attr, original in patched:
        # An attribute the owner only inherited is wrapped on the owner
        # and deleted again, so the inherited one shows through.
        restored = vars(owner).get(attr, spans._MISSING)
        assert restored is original, (owner, attr)
