"""Static invariant lint: ``python -m repro.check.lint src/``.

An AST-based analyzer with project-specific rules for the contracts
that generic linters cannot see:

* **RC001 determinism** — library code must not consume global-state
  RNG (``np.random.rand`` and friends, ``random.*``), wall-clock time
  (``time.time``, ``datetime.now``) or the builtin ``hash()``, whose
  value for ``str``/``bytes`` is salted per process (derive keys with
  ``hashlib``).  Seeded generators
  (``np.random.default_rng(seed)``, ``SeedSequence``) and monotonic
  clocks (``time.monotonic``, ``time.perf_counter``) are the sanctioned
  APIs.  Under ``--profile scripts`` (for ``examples/`` and
  ``benchmarks/``) wall-clock is allowed and global-state draws are
  allowed *if the script seeds the global RNG* — demo code stays honest
  without being forced into library discipline.
* **RC002 fork-safety** — a class that stores a ``threading.Lock`` /
  ``RLock`` / ``Condition`` on ``self`` can silently cross a
  pickle/fork boundary into ``serve.pool`` workers.  Such classes must
  either refuse naive pickling (``__getstate__`` / ``__reduce__``) or
  provide the worker reset hook (``spawn_sampler`` /
  ``reset_worker_state``).
* **RC003 pool discipline** — every ``ArrayPool.take`` must be paired
  with a donate (``.put`` or a ``_donate_*`` helper) reachable on all
  control-flow paths.  Two shapes are flagged: a take with no donation
  anywhere, and a take whose only donation lives inside a nested
  closure (the backward hook) — the no-grad path then leaks the buffer.
* **RC004 dtype discipline** — no hard-coded ``np.float32`` /
  ``np.float64`` array construction in hot paths (``nn``, ``gan``,
  ``stream``, ``api``, ``serve``); route through
  ``repro.nn.get_default_dtype()`` so the float64 bit-exact parity mode
  and the float32 fast-math mode stay honest.  Scopes whose qualified
  name contains ``parity`` are exempt (they pin float64 by design), as
  are the report-layer ``core``/``privacy`` modules and this tooling.
* **RC005 error discipline** — an argument-validation ``raise`` (a
  ``ValueError``/``TypeError`` guarded by a test on a parameter) must
  name the offending argument in its message, either literally or by
  formatting a parameter into it.
* **RC006 silent-failure discipline** — in the serving layer
  (``serve/``), a broad ``except`` (bare, ``Exception``, or
  ``BaseException``) whose body neither re-raises, nor calls anything,
  nor records state is a swallowed failure: supervision code that eats
  an exception with ``pass`` turns a worker crash into an undiagnosable
  hang.  Handlers in ``__del__`` are exempt (interpreter teardown).
* **RC007 clock discipline** — library code must not read the raw
  monotonic clocks (``time.monotonic`` / ``time.perf_counter`` and
  their ``_ns`` variants) directly; route through
  :mod:`repro.obs.clock` (``monotonic()`` / ``perf()``), whose active
  clock is injectable, so timeout and latency logic stays testable
  under a manual clock.  ``repro.obs`` itself is exempt — it is the
  one sanctioned wrapper.

Findings print as ``path:line: RCnnn in scope: message (hint)``.
Suppression, in ratchet order of preference: fix the code; add an
inline ``# repro-check: disable=RCnnn`` pragma on the offending line;
or record it in the checked-in baseline file (``.repro-lint-baseline``,
auto-discovered in the working directory, one
``RCnnn path::scope`` entry per line).  The process exits 0 when every
finding is suppressed and 1 otherwise; stale baseline entries are
reported so the baseline only ever shrinks.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["Finding", "lint_paths", "lint_source", "load_baseline", "main"]

# ----------------------------------------------------------------------
# Rule tables
# ----------------------------------------------------------------------
#: numpy.random functions backed by the hidden global RNG state.
_NP_GLOBAL_RNG = {
    "seed", "random", "ranf", "sample", "random_sample", "rand", "randn",
    "randint", "random_integers", "bytes", "choice", "shuffle",
    "permutation", "uniform", "normal", "standard_normal",
    "standard_cauchy", "standard_exponential", "standard_gamma", "beta",
    "binomial", "poisson", "exponential", "gamma", "geometric", "laplace",
    "logistic", "lognormal", "gumbel", "dirichlet", "multinomial",
    "multivariate_normal", "vonmises", "chisquare", "triangular",
    "noncentral_chisquare", "negative_binomial", "hypergeometric",
    "logseries", "pareto", "power", "rayleigh", "wald", "weibull", "zipf",
    "f", "get_state", "set_state",
}

#: stdlib ``random`` module-level functions (``random.Random(seed)`` is
#: fine — it is an owned, seedable instance).
_STDLIB_RANDOM = {
    "random", "seed", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getrandbits", "randbytes", "getstate", "setstate",
}

_RC001_RNG = (
    {f"numpy.random.{name}" for name in _NP_GLOBAL_RNG}
    | {f"random.{name}" for name in _STDLIB_RANDOM}
)
_RC001_WALLCLOCK = {
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
_SEEDING_CALLS = {"numpy.random.seed", "random.seed"}

_LOCK_FACTORIES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
}
_LOCK_FACTORY_NAMES = {"make_lock", "make_condition"}
_RC002_ESCAPE_HOOKS = {
    "__getstate__", "__reduce__", "__reduce_ex__",
    "spawn_sampler", "reset_worker_state",
}

_TAKE_HELPERS = {"_take_sign_mask"}
_DONATE_NAMES = {
    "put", "_donate_mask", "_donate_scratch", "_mask_for_backward",
}

_NP_CTOR_DTYPE_ARG = {
    "numpy.array": 1, "numpy.asarray": 1, "numpy.asanyarray": 1,
    "numpy.ascontiguousarray": 1, "numpy.zeros": 1, "numpy.ones": 1,
    "numpy.empty": 1, "numpy.full": 2, "numpy.zeros_like": 1,
    "numpy.ones_like": 1, "numpy.empty_like": 1, "numpy.full_like": 2,
    "numpy.arange": 4, "numpy.linspace": 5, "numpy.frombuffer": 1,
    "numpy.fromiter": 1,
}
_HARD_DTYPES = {"numpy.float32", "numpy.float64"}
_HARD_DTYPE_STRINGS = {"float32", "float64"}
#: Hot-path package fragments RC004 applies to; everything else is
#: report/tooling layer where an explicit dtype is a documentation, not
#: a parity hazard.
_RC004_HOT_FRAGMENTS = ("/nn/", "/gan/", "/stream/", "/api/", "/serve/")

_RC005_EXC_NAMES = {"ValueError", "TypeError"}

#: RC006 applies only to the serving layer: supervision code there must
#: never eat an exception silently, or a worker crash degrades into an
#: undiagnosable request hang.
_RC006_FRAGMENT = "/serve/"
_RC006_BROAD = {"Exception", "BaseException"}

#: RC007: raw monotonic reads scattered across library modules cannot
#: be faked in tests; they must route through the injectable
#: ``repro.obs.clock``.  The obs package itself is the wrapper.
_RC007_TIMING = {
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
}
_RC007_EXEMPT_FRAGMENT = "/obs/"

_HINTS = {
    "RC001": "draw from a keyed substream (repro.api.seeding.substream / "
             "np.random.default_rng(seed)), key on a hashlib digest, or "
             "use a monotonic clock instead",
    "RC002": "define __getstate__/__reduce__ to refuse pickling, or the "
             "spawn_sampler/reset_worker_state worker hook",
    "RC003": "donate with pool.put()/_donate_* on every path, including "
             "the no-grad path where backward never runs",
    "RC004": "route through repro.nn.get_default_dtype() so parity and "
             "fast-math modes agree",
    "RC005": "name the offending argument in the exception message",
    "RC006": "re-raise, or record the failure to pool state/events so "
             "supervision stays observable",
    "RC007": "route timing through repro.obs.clock (monotonic()/perf()) "
             "so tests can inject a clock",
}

_PRAGMA = "# repro-check: disable="


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    scope: str
    message: str

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path.replace(os.sep, "/"), self.scope)

    def render(self) -> str:
        hint = _HINTS.get(self.rule, "")
        suffix = f" ({hint})" if hint else ""
        return (f"{self.path}:{self.line}: {self.rule} in {self.scope}: "
                f"{self.message}{suffix}")


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------
def _collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted module paths.

    ``import numpy as np`` → ``np: numpy``; ``from datetime import
    datetime`` → ``datetime: datetime.datetime``; ``from threading
    import Lock`` → ``Lock: threading.Lock``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                aliases[local] = item.asname and item.name or local
                if item.asname:
                    aliases[item.asname] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name for a Name/Attribute chain, if resolvable."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _last_segment(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# ----------------------------------------------------------------------
# Per-function pool-discipline analysis (RC003)
# ----------------------------------------------------------------------
def _is_pool_receiver(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """Heuristic: does this expression denote an ArrayPool?"""
    resolved = _resolve(node, aliases)
    if resolved and resolved.startswith("numpy"):
        return False
    seg = _last_segment(node)
    return bool(seg) and "pool" in seg.lower()


def _take_calls_in(node: ast.AST, aliases: Dict[str, str],
                   skip_nested: bool) -> List[ast.Call]:
    calls = []
    for sub in _walk_scope(node, skip_nested):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr == "take" and \
                _is_pool_receiver(func.value, aliases):
            calls.append(sub)
        elif _last_segment(func) in _TAKE_HELPERS:
            calls.append(sub)
    return calls


def _walk_scope(root: ast.AST, skip_nested: bool) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function scopes.

    Nested ``def``/``lambda`` nodes are still *yielded* (so callers can
    recurse into them explicitly); only their bodies are skipped.
    """
    if not skip_nested:
        yield from ast.walk(root)
        return
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not root and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _names_in(node: ast.AST) -> Set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


class _PoolAnalysis:
    """Escape analysis for taken buffers inside one function scope."""

    def __init__(self, func: ast.FunctionDef, aliases: Dict[str, str]):
        self.func = func
        self.aliases = aliases
        # taken var -> line of the take
        self.taken: Dict[str, int] = {}
        # var -> set of container/alias names that hold it
        self.holders: Dict[str, Set[str]] = {}
        self.body_discharged: Set[str] = set()
        self.closure_discharged: Set[str] = set()

    def run(self) -> List[Tuple[str, int, str]]:
        self._collect_takes_and_aliases()
        if not self.taken:
            return []
        self._collect_discharges(self.func, in_closure=False)
        findings = []
        for var, line in sorted(self.taken.items(), key=lambda kv: kv[1]):
            if var in self.body_discharged:
                continue
            if var in self.closure_discharged:
                findings.append((var, line, (
                    f"buffer {var!r} from ArrayPool.take is donated only "
                    f"inside a nested closure (the gradient path); the "
                    f"no-grad path leaks it")))
            else:
                findings.append((var, line, (
                    f"buffer {var!r} from ArrayPool.take is never donated "
                    f"back on any path")))
        return findings

    def _collect_takes_and_aliases(self) -> None:
        for node in _walk_scope(self.func, skip_nested=True):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if _take_calls_in(node.value, self.aliases, skip_nested=False):
                self.taken[target.id] = node.lineno
        # one alias pass: state = [mask] / state = (mask, y)
        for node in _walk_scope(self.func, skip_nested=True):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name) or \
                    not isinstance(node.value, (ast.List, ast.Tuple)):
                continue
            for var in _names_in(node.value) & set(self.taken):
                self.holders.setdefault(var, set()).add(target.id)

    def _watched(self, var: str) -> Set[str]:
        return {var} | self.holders.get(var, set())

    def _collect_discharges(self, scope: ast.AST, in_closure: bool) -> None:
        bucket = (self.closure_discharged if in_closure
                  else self.body_discharged)
        for node in _walk_scope(scope, skip_nested=True):
            if isinstance(node, ast.Call):
                name = _last_segment(node.func)
                if name in _DONATE_NAMES:
                    arg_names = set()
                    for arg in node.args:
                        arg_names |= _names_in(arg)
                    for var in self.taken:
                        if arg_names & self._watched(var):
                            bucket.add(var)
            elif isinstance(node, ast.Return) and node.value is not None:
                returned = _names_in(node.value)
                for var in self.taken:
                    if returned & self._watched(var):
                        bucket.add(var)
        for node in _walk_scope(scope, skip_nested=True):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not scope:
                self._collect_discharges(node, in_closure=True)


# ----------------------------------------------------------------------
# Module linter
# ----------------------------------------------------------------------
class _ModuleLinter(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.Module, lines: List[str],
                 profile: str):
        self.path = path
        self.tree = tree
        self.lines = lines
        self.profile = profile
        self.aliases = _collect_aliases(tree)
        self.scope_stack: List[str] = []
        self.findings: List[Finding] = []
        self.module_seeds_global_rng = self._seeds_global_rng()

    # -- helpers -------------------------------------------------------
    def _seeds_global_rng(self) -> bool:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                resolved = _resolve(node.func, self.aliases)
                if resolved in _SEEDING_CALLS:
                    return True
        return False

    def _scope(self) -> str:
        return ".".join(self.scope_stack) or "<module>"

    def _suppressed(self, rule: str, line: int) -> bool:
        if 1 <= line <= len(self.lines):
            text = self.lines[line - 1]
            idx = text.find(_PRAGMA)
            if idx >= 0:
                tags = text[idx + len(_PRAGMA):].split()[0].split(",")
                return rule in tags or "all" in tags
        return False

    def _report(self, rule: str, node: ast.AST, message: str,
                scope: Optional[str] = None) -> None:
        line = getattr(node, "lineno", 1)
        if self._suppressed(rule, line):
            return
        self.findings.append(Finding(
            rule=rule, path=self.path, line=line,
            scope=scope or self._scope(), message=message))

    # -- traversal -----------------------------------------------------
    def run(self) -> List[Finding]:
        self.visit(self.tree)
        return self.findings

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.profile == "library":
            self._check_rc002(node)
        self.scope_stack.append(node.name)
        self.generic_visit(node)
        self.scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope_stack.append(node.name)
        if self.profile == "library":
            self._check_rc003(node)
            self._check_rc005(node)
        self.generic_visit(node)
        self.scope_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rc001(node)
        if self.profile == "library":
            self._check_rc004(node)
            self._check_rc007(node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.profile == "library":
            self._check_rc006(node)
        self.generic_visit(node)

    # -- RC001 ---------------------------------------------------------
    def _check_rc001(self, node: ast.Call) -> None:
        resolved = _resolve(node.func, self.aliases)
        if resolved is None:
            return
        if resolved in _RC001_RNG:
            if self.profile == "scripts" and self.module_seeds_global_rng:
                return
            what = ("global-state RNG draw" if self.profile == "library"
                    else "unseeded global-state RNG draw")
            self._report("RC001", node,
                         f"{what} {resolved}() breaks the sharded-seed "
                         f"determinism contract")
        elif resolved in _RC001_WALLCLOCK and self.profile == "library":
            self._report("RC001", node,
                         f"wall-clock read {resolved}() in library code; "
                         f"results must not depend on when they run")
        elif resolved == "hash" and self.profile == "library":
            self._report("RC001", node,
                         "builtin hash() in library code is salted per "
                         "process for str/bytes; results must not depend "
                         "on which process computes them")

    # -- RC002 ---------------------------------------------------------
    def _check_rc002(self, node: ast.ClassDef) -> None:
        lock_line = None
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            target = sub.targets[0] if len(sub.targets) == 1 else None
            if not (isinstance(target, ast.Attribute) and
                    isinstance(target.value, ast.Name) and
                    target.value.id == "self"):
                continue
            for call in ast.walk(sub.value):
                if not isinstance(call, ast.Call):
                    continue
                resolved = _resolve(call.func, self.aliases)
                if resolved in _LOCK_FACTORIES or \
                        _last_segment(call.func) in _LOCK_FACTORY_NAMES:
                    lock_line = lock_line or sub.lineno
        if lock_line is None:
            return
        methods = {m.name for m in node.body
                   if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if methods & _RC002_ESCAPE_HOOKS:
            return
        self._report(
            "RC002", node,
            f"class {node.name} stores a threading lock on self (line "
            f"{lock_line}) but defines no fork/pickle escape hook "
            f"({', '.join(sorted(_RC002_ESCAPE_HOOKS))})",
            scope=".".join(self.scope_stack + [node.name]))

    # -- RC003 ---------------------------------------------------------
    def _check_rc003(self, node: ast.FunctionDef) -> None:
        for _var, line, message in _PoolAnalysis(node, self.aliases).run():
            if self._suppressed("RC003", line):
                continue
            self.findings.append(Finding(
                rule="RC003", path=self.path, line=line,
                scope=self._scope(), message=message))

    # -- RC004 ---------------------------------------------------------
    def _rc004_applies(self) -> bool:
        posix = "/" + self.path.replace(os.sep, "/")
        if not any(frag in posix for frag in _RC004_HOT_FRAGMENTS):
            return False
        return "parity" not in self._scope().lower()

    def _hard_dtype(self, node: ast.AST) -> Optional[str]:
        resolved = _resolve(node, self.aliases)
        if resolved in _HARD_DTYPES:
            return resolved.replace("numpy.", "np.")
        if isinstance(node, ast.Constant) and \
                node.value in _HARD_DTYPE_STRINGS:
            return repr(node.value)
        return None

    def _check_rc004(self, node: ast.Call) -> None:
        if not self._rc004_applies():
            return
        resolved = _resolve(node.func, self.aliases)
        dtype_node = None
        if resolved in _NP_CTOR_DTYPE_ARG:
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dtype_node = kw.value
            pos = _NP_CTOR_DTYPE_ARG[resolved]
            if dtype_node is None and len(node.args) > pos:
                dtype_node = node.args[pos]
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr == "astype" and node.args:
            dtype_node = node.args[0]
        if dtype_node is None:
            return
        hard = self._hard_dtype(dtype_node)
        if hard is not None:
            self._report("RC004", node,
                         f"hard-coded {hard} array construction in a hot "
                         f"path pins one precision mode")

    # -- RC005 ---------------------------------------------------------
    def _check_rc005(self, node: ast.FunctionDef) -> None:
        params = {a.arg for a in (node.args.posonlyargs + node.args.args +
                                  node.args.kwonlyargs)} - {"self", "cls"}
        if not params:
            return
        self._walk_rc005(node, node, params, guard_params=set())

    def _walk_rc005(self, scope: ast.FunctionDef, node: ast.AST,
                    params: Set[str], guard_params: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            if isinstance(child, ast.If):
                tested = _names_in(child.test) & params
                for stmt in child.body:
                    self._walk_rc005(scope, stmt, params,
                                     guard_params | tested)
                    self._rc005_stmt(stmt, params, guard_params | tested)
                for stmt in child.orelse:
                    self._walk_rc005(scope, stmt, params, guard_params)
                    self._rc005_stmt(stmt, params, guard_params)
                continue
            self._rc005_stmt(child, params, guard_params)
            self._walk_rc005(scope, child, params, guard_params)

    def _rc005_stmt(self, stmt: ast.AST, params: Set[str],
                    guard_params: Set[str]) -> None:
        if not isinstance(stmt, ast.Raise) or not guard_params:
            return
        exc = stmt.exc
        if not isinstance(exc, ast.Call) or \
                _last_segment(exc.func) not in _RC005_EXC_NAMES:
            return
        if exc.args and self._message_names_arg(exc.args[0], params,
                                                guard_params):
            return
        self._report(
            "RC005", stmt,
            f"validation raise for argument(s) "
            f"{', '.join(sorted(guard_params))} does not name the "
            f"offending argument in its message")

    @staticmethod
    def _message_names_arg(msg: ast.AST, params: Set[str],
                           guard_params: Set[str]) -> bool:
        if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
            return any(name in msg.value for name in guard_params)
        if isinstance(msg, ast.JoinedStr):
            for part in msg.values:
                if isinstance(part, ast.Constant) and \
                        isinstance(part.value, str) and \
                        any(name in part.value for name in guard_params):
                    return True
                if isinstance(part, ast.FormattedValue) and \
                        _names_in(part.value) & params:
                    return True
            return False
        # computed message (``msg % args``, helper call): give the
        # benefit of the doubt when a parameter flows into it.
        return bool(_names_in(msg) & params)

    # -- RC007 ---------------------------------------------------------
    def _check_rc007(self, node: ast.Call) -> None:
        resolved = _resolve(node.func, self.aliases)
        if resolved not in _RC007_TIMING:
            return
        posix = "/" + self.path.replace(os.sep, "/")
        if _RC007_EXEMPT_FRAGMENT in posix:
            return
        self._report("RC007", node,
                     f"raw monotonic read {resolved}() bypasses the "
                     f"injectable repro.obs.clock")

    # -- RC006 ---------------------------------------------------------
    def _check_rc006(self, node: ast.ExceptHandler) -> None:
        posix = "/" + self.path.replace(os.sep, "/")
        if _RC006_FRAGMENT not in posix:
            return
        if "__del__" in self.scope_stack:
            # Interpreter teardown: anything can fail and nothing can
            # be recorded — swallowing is the only correct move.
            return
        caught = self._rc006_broad_catch(node)
        if caught is None or self._rc006_handler_acts(node):
            return
        # The pragma may sit on the ``except`` line or on any statement
        # of the (typically one-line ``pass``) handler body.
        lines = [node.lineno] + [stmt.lineno for stmt in node.body]
        if any(self._suppressed("RC006", line) for line in lines):
            return
        self.findings.append(Finding(
            rule="RC006", path=self.path, line=node.lineno,
            scope=self._scope(),
            message=f"{caught} in the serving layer swallows the "
                    f"failure silently; supervision code must re-raise "
                    f"or record it"))

    @staticmethod
    def _rc006_broad_catch(node: ast.ExceptHandler) -> Optional[str]:
        if node.type is None:
            return "bare except"
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for item in types:
            name = _last_segment(item)
            if name in _RC006_BROAD:
                return f"except {name}"
        return None

    @staticmethod
    def _rc006_handler_acts(node: ast.ExceptHandler) -> bool:
        """True when the handler does anything observable.

        A re-raise, any call (logging, event recording, cleanup), or an
        assignment (state mutation such as ``slot.dead = True``) counts;
        a body made solely of ``pass``/``continue``/``break``/constant
        expressions does not.
        """
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Raise, ast.Call, ast.Assign,
                                    ast.AugAssign, ast.AnnAssign,
                                    ast.Return, ast.Delete)):
                    return True
        return False


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>",
                profile: str = "library") -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return _ModuleLinter(path, tree, lines, profile).run()


def iter_py_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames
                           if d not in ("__pycache__", ".git")]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(paths: Sequence[str],
               profile: str = "library") -> List[Finding]:
    findings: List[Finding] = []
    for filename in iter_py_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise SystemExit(f"repro.check.lint: cannot read {filename}: "
                             f"{exc}")
        findings.extend(lint_source(source, filename, profile))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def load_baseline(path: str) -> List[Tuple[str, str, str]]:
    """Baseline entries as ``(rule, posix-path, scope)`` triples."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rule, location = line.split(None, 1)
                file_part, scope = location.split("::", 1)
            except ValueError:
                raise SystemExit(
                    f"repro.check.lint: malformed baseline entry "
                    f"{raw.strip()!r} in {path} (expected "
                    f"'RCnnn path::scope')")
            entries.append((rule, file_part.replace(os.sep, "/"), scope))
    return entries


def _baseline_matches(entry: Tuple[str, str, str],
                      finding: Finding) -> bool:
    rule, file_part, scope = entry
    f_rule, f_path, f_scope = finding.baseline_key
    if rule != f_rule or scope != f_scope:
        return False
    return (f_path.endswith(file_part) or file_part.endswith(f_path))


def _split_by_baseline(findings: List[Finding],
                       baseline: List[Tuple[str, str, str]]):
    used = [False] * len(baseline)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        hit = False
        for i, entry in enumerate(baseline):
            if _baseline_matches(entry, finding):
                used[i] = True
                hit = True
        (suppressed if hit else active).append(finding)
    stale = [baseline[i] for i, u in enumerate(used) if not u]
    return active, suppressed, stale


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.lint",
        description="Project invariant lint (rules RC001-RC007).")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    parser.add_argument("--profile", choices=("library", "scripts"),
                        default="library",
                        help="'library' enforces every rule; 'scripts' "
                             "relaxes to seeded-determinism checks for "
                             "examples/ and benchmarks/")
    parser.add_argument("--baseline", default=None,
                        help="baseline file of suppressed findings "
                             "(default: .repro-lint-baseline if present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file, including the "
                             "auto-discovered one (use when linting a "
                             "tree the baseline does not describe)")
    parser.add_argument("--write-baseline", metavar="FILE", default=None,
                        help="write the current findings to FILE as a new "
                             "baseline and exit 0")
    args = parser.parse_args(argv)

    baseline_path = None if args.no_baseline else args.baseline
    if (baseline_path is None and not args.no_baseline
            and os.path.exists(".repro-lint-baseline")):
        baseline_path = ".repro-lint-baseline"
    baseline = load_baseline(baseline_path) if baseline_path else []

    findings = lint_paths(args.paths, profile=args.profile)

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write("# repro.check.lint baseline -- each entry "
                         "suppresses one finding; ratchet down, never "
                         "up.\n")
            for finding in findings:
                rule, path, scope = finding.baseline_key
                handle.write(f"{rule} {path}::{scope}\n")
        print(f"wrote {len(findings)} baseline entries to "
              f"{args.write_baseline}")
        return 0

    active, suppressed, stale = _split_by_baseline(findings, baseline)

    for finding in active:
        print(finding.render())
    status = 0
    if active:
        status = 1
    if stale:
        status = 1
        for rule, file_part, scope in stale:
            print(f"stale baseline entry (no longer fires -- delete it): "
                  f"{rule} {file_part}::{scope}")
    print(f"repro.check.lint: {len(active)} finding(s), "
          f"{len(suppressed)} baselined, {len(stale)} stale baseline "
          f"entr{'y' if len(stale) == 1 else 'ies'}, profile="
          f"{args.profile}")
    return status


if __name__ == "__main__":
    sys.exit(main())
