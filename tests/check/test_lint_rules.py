"""Rule-by-rule fixtures for the ``repro.check.lint`` static rules.

Each rule gets at least one positive fixture (the rule fires), one
negative fixture (the sanctioned idiom passes), and a pragma-suppressed
variant.  Fixtures are linted as in-memory source via
:func:`repro.check.lint.lint_source`.
"""

import textwrap

from repro.check.lint import lint_source

HOT_PATH = "src/repro/nn/fixture.py"
COLD_PATH = "src/repro/core/fixture.py"


def run(source, path=HOT_PATH, profile="library"):
    return lint_source(textwrap.dedent(source), path, profile)


def rules(found):
    return [f.rule for f in found]


class TestRC001Determinism:
    def test_global_numpy_draw_fires(self):
        found = run("""
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """)
        assert rules(found) == ["RC001"]
        assert "numpy.random.rand" in found[0].message
        assert found[0].scope == "sample"

    def test_stdlib_random_fires(self):
        found = run("""
            import random

            def pick(items):
                return random.choice(items)
            """)
        assert rules(found) == ["RC001"]

    def test_wall_clock_fires_in_library(self):
        found = run("""
            import time

            def stamp():
                return time.time()
            """)
        assert rules(found) == ["RC001"]
        assert "wall-clock" in found[0].message

    def test_builtin_hash_fires_in_library(self):
        source = """
            import numpy as np

            def table_rng(name, seed):
                return np.random.default_rng(hash((name, seed)) % 2 ** 32)
            """
        found = run(source)
        assert rules(found) == ["RC001"]
        assert "hash()" in found[0].message
        assert found[0].scope == "table_rng"
        assert run(source, profile="scripts") == []

    def test_seeded_generator_is_sanctioned(self):
        found = run("""
            import numpy as np

            def sample(n, seed):
                rng = np.random.default_rng(seed)
                return rng.standard_normal(n)
            """)
        assert found == []

    def test_pragma_suppresses(self):
        found = run("""
            import numpy as np

            def sample(n):
                return np.random.rand(n)  # repro-check: disable=RC001
            """)
        assert found == []

    def test_scripts_profile_allows_wall_clock(self):
        found = run("""
            import time

            def stamp():
                return time.time()
            """, profile="scripts")
        assert found == []

    def test_scripts_profile_requires_module_seed(self):
        source = """
            import numpy as np

            def sample(n):
                return np.random.rand(n)
            """
        assert rules(run(source, profile="scripts")) == ["RC001"]
        seeded = "import numpy as np\nnp.random.seed(0)\n" + \
            textwrap.dedent(source)
        assert lint_source(seeded, HOT_PATH, "scripts") == []


class TestRC002ForkSafety:
    LOCK_CLASS = """
        import threading

        class Holder:
            def __init__(self):
                self._lock = threading.Lock()
        """

    def test_lock_without_escape_hook_fires(self):
        found = run(self.LOCK_CLASS)
        assert rules(found) == ["RC002"]
        assert "Holder" in found[0].message
        assert found[0].scope == "Holder"

    def test_getstate_hook_passes(self):
        found = run("""
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()

                def __getstate__(self):
                    raise TypeError("Holder is not picklable")
            """)
        assert found == []

    def test_worker_reset_hook_passes(self):
        found = run("""
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.RLock()

                def spawn_sampler(self, worker_id=0):
                    self._lock = threading.RLock()
                    return self
            """)
        assert found == []

    def test_make_lock_counts_as_lock(self):
        found = run("""
            from repro.check.lockorder import make_lock

            class Holder:
                def __init__(self):
                    self._lock = make_lock("holder.lock")
            """)
        assert rules(found) == ["RC002"]

    def test_conditional_lock_detected(self):
        found = run("""
            import threading

            class Holder:
                def __init__(self, reentrant):
                    self._lock = (threading.RLock() if reentrant
                                  else threading.Lock())
            """)
        assert rules(found) == ["RC002"]

    def test_scripts_profile_skips(self):
        assert run(self.LOCK_CLASS, profile="scripts") == []


class TestRC003PoolDiscipline:
    def test_never_donated_fires(self):
        found = run("""
            def forward(x, pool):
                buf = pool.take(x.shape, x.dtype)
                y = x + 1
                return y
            """)
        assert rules(found) == ["RC003"]
        assert "never donated" in found[0].message

    def test_closure_only_donation_fires_as_no_grad_leak(self):
        found = run("""
            def forward(x, pool):
                buf = pool.take(x.shape, x.dtype)

                def backward(grad):
                    pool.put(buf)
                    return grad

                return backward
            """)
        assert rules(found) == ["RC003"]
        assert "nested closure" in found[0].message

    def test_body_donation_passes(self):
        found = run("""
            def forward(x, pool):
                buf = pool.take(x.shape, x.dtype)
                out = x * 2
                pool.put(buf)
                return out
            """)
        assert found == []

    def test_returned_buffer_passes(self):
        found = run("""
            def forward(x, pool):
                buf = pool.take(x.shape, x.dtype)
                return buf
            """)
        assert found == []

    def test_holder_alias_donation_passes(self):
        found = run("""
            from repro.nn.tensor import _donate_mask, _take_sign_mask

            def forward(x):
                mask = _take_sign_mask(x)
                state = [mask]
                _donate_mask(state)
                return x
            """)
        assert found == []

    def test_pragma_suppresses(self):
        found = run("""
            def forward(x, pool):
                buf = pool.take(x.shape, x.dtype)  # repro-check: disable=RC003
                return x
            """)
        assert found == []


class TestRC004DtypeDiscipline:
    def test_hard_dtype_in_hot_path_fires(self):
        found = run("""
            import numpy as np

            def forward(n):
                return np.zeros(n, dtype=np.float32)
            """)
        assert rules(found) == ["RC004"]
        assert "np.float32" in found[0].message

    def test_astype_in_hot_path_fires(self):
        found = run("""
            import numpy as np

            def forward(x):
                return x.astype(np.float64)
            """)
        assert rules(found) == ["RC004"]

    def test_string_dtype_fires(self):
        found = run("""
            import numpy as np

            def forward(n):
                return np.empty(n, dtype="float32")
            """)
        assert rules(found) == ["RC004"]

    def test_default_dtype_passes(self):
        found = run("""
            import numpy as np
            from repro.nn.tensor import get_default_dtype

            def forward(n):
                return np.zeros(n, dtype=get_default_dtype())
            """)
        assert found == []

    def test_cold_path_exempt(self):
        found = run("""
            import numpy as np

            def report(n):
                return np.zeros(n, dtype=np.float64)
            """, path=COLD_PATH)
        assert found == []

    def test_parity_scope_exempt(self):
        found = run("""
            import numpy as np

            def forward_parity(n):
                return np.zeros(n, dtype=np.float64)
            """)
        assert found == []


class TestRC005ErrorDiscipline:
    def test_anonymous_validation_raise_fires(self):
        found = run("""
            def fit(epochs):
                if epochs < 1:
                    raise ValueError("need a positive count")
            """)
        assert rules(found) == ["RC005"]
        assert "epochs" in found[0].message

    def test_fstring_naming_argument_passes(self):
        found = run("""
            def fit(epochs):
                if epochs < 1:
                    raise ValueError(f"epochs={epochs} must be >= 1")
            """)
        assert found == []

    def test_literal_naming_argument_passes(self):
        found = run("""
            def split(ratios):
                if len(ratios) != 3:
                    raise ValueError("ratios must have three terms")
            """)
        assert found == []

    def test_unguarded_raise_not_flagged(self):
        found = run("""
            def load(path):
                raise ValueError("unconditional, not argument validation")
            """)
        assert found == []

    def test_pragma_suppresses(self):
        found = run("""
            def fit(epochs):
                if epochs < 1:
                    raise ValueError("bad")  # repro-check: disable=RC005
            """)
        assert found == []


class TestRC006SilentFailureDiscipline:
    SERVE_PATH = "src/repro/serve/fixture.py"

    def test_swallowed_broad_except_fires(self):
        found = run("""
            def supervise():
                try:
                    poke()
                except Exception:
                    pass
            """, path=self.SERVE_PATH)
        assert rules(found) == ["RC006"]
        assert "swallows" in found[0].message

    def test_bare_except_fires(self):
        found = run("""
            def drain(readers):
                for reader in readers:
                    try:
                        reader.recv()
                    except:
                        continue
            """, path=self.SERVE_PATH)
        assert rules(found) == ["RC006"]
        assert "bare except" in found[0].message

    def test_broad_member_of_tuple_fires(self):
        found = run("""
            def supervise():
                try:
                    poke()
                except (OSError, BaseException):
                    pass
            """, path=self.SERVE_PATH)
        assert rules(found) == ["RC006"]

    def test_narrow_except_passes(self):
        found = run("""
            def wake(pipe):
                try:
                    pipe.send_bytes(b"w")
                except (OSError, ValueError):
                    pass
            """, path=self.SERVE_PATH)
        assert found == []

    def test_reraise_passes(self):
        found = run("""
            def supervise():
                try:
                    poke()
                except Exception:
                    raise
            """, path=self.SERVE_PATH)
        assert found == []

    def test_recording_to_state_passes(self):
        found = run("""
            def supervise(slot):
                try:
                    poke()
                except Exception as exc:
                    slot.last_error = str(exc)
            """, path=self.SERVE_PATH)
        assert found == []

    def test_del_scope_exempt(self):
        found = run("""
            class Pool:
                def __del__(self):
                    try:
                        self.close()
                    except Exception:
                        pass
            """, path=self.SERVE_PATH)
        assert found == []

    def test_outside_serving_layer_passes(self):
        found = run("""
            def tolerant():
                try:
                    poke()
                except Exception:
                    pass
            """, path=COLD_PATH)
        assert found == []

    def test_scripts_profile_exempt(self):
        found = run("""
            def tolerant():
                try:
                    poke()
                except Exception:
                    pass
            """, path=self.SERVE_PATH, profile="scripts")
        assert found == []

    def test_pragma_on_except_line_suppresses(self):
        found = run("""
            def supervise():
                try:
                    poke()
                except Exception:  # repro-check: disable=RC006
                    pass
            """, path=self.SERVE_PATH)
        assert found == []

    def test_pragma_on_body_line_suppresses(self):
        found = run("""
            def supervise():
                try:
                    poke()
                except Exception:
                    pass  # repro-check: disable=RC006 -- best-effort wake
            """, path=self.SERVE_PATH)
        assert found == []


class TestRC007ClockDiscipline:
    def test_raw_monotonic_read_fires(self):
        found = run("""
            import time

            def elapsed(start):
                return time.monotonic() - start
            """)
        assert rules(found) == ["RC007"]
        assert "time.monotonic" in found[0].message
        assert "repro.obs.clock" in found[0].message

    def test_perf_counter_and_ns_variants_fire(self):
        found = run("""
            import time

            def stamp():
                return (time.perf_counter(), time.perf_counter_ns(),
                        time.monotonic_ns())
            """)
        assert rules(found) == ["RC007", "RC007", "RC007"]

    def test_aliased_import_fires(self):
        found = run("""
            from time import perf_counter as tick

            def stamp():
                return tick()
            """)
        assert rules(found) == ["RC007"]

    def test_obs_clock_route_is_sanctioned(self):
        found = run("""
            from repro.obs import clock as _obs_clock

            def elapsed(start):
                return _obs_clock.monotonic() - start
            """)
        assert found == []

    def test_sleep_is_not_a_clock_read(self):
        found = run("""
            import time

            def backoff():
                time.sleep(0.1)
            """)
        assert found == []

    def test_obs_package_is_exempt(self):
        found = run("""
            import time

            def monotonic():
                return time.monotonic()
            """, path="src/repro/obs/clock.py")
        assert found == []

    def test_pragma_suppresses(self):
        found = run("""
            import time

            def stamp():
                return time.monotonic()  # repro-check: disable=RC007
            """)
        assert found == []

    def test_scripts_profile_is_exempt(self):
        found = run("""
            import time

            def stamp():
                return time.monotonic()
            """, profile="scripts")
        assert found == []
