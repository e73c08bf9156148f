"""Span tracer that wraps the engine's public functions from outside.

``Tracer.installed()`` replaces each target function in every
``poisson_ortho`` module that binds it (``jacobian`` is bound in
geometry, metric, context and poisson, for example), and each public
method on the target classes, with a wrapper; leaving the block restores
the originals. A target the engine no longer has is skipped and listed in
``Tracer.missing``, so metrics built on it read as absent.

Three kinds of wrapper:

* span: records a row (name, start, end, parent row, thread, check id) and
  accumulates calls, self time (its duration minus the time its child spans
  cover) and inclusive time (outermost call of that name only);
* leaf: for ``dsl.evaluate``, which is called millions of times and calls
  nothing else that is traced. Its calls and time are accumulated without a
  row, and its time counts as child time of the enclosing span;
* count: ``partial_derivative`` (split into exact and stencil calls by the
  engine's own predicate) and ``TensorField.components``.

Span stacks, rows and counters live per thread, so work done by the
engine's warm-up pool is attributed to the pool threads and no counter is
shared between threads.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import threading
import time
from array import array

PACKAGE = "poisson_ortho"

# (module, attribute, span name); "Class.*" wraps every public method
SPANS = (
    ("scenarios", "load_scenario", "scenarios.load_scenario"),
    ("scenarios", "run", "scenarios.run"),
    ("scenarios", "RunReport.json_text", "scenarios.json_text"),
    ("poisson", "validate_poisson", "poisson.validate_poisson"),
    ("poisson", "check_gram_nondegenerate", "poisson.check_gram_nondegenerate"),
    ("poisson", "coframe_fields", "poisson.coframe_fields"),
    ("integrability", "verdict", "integrability.verdict"),
    ("integrability", "equivalence_condition_values", "integrability.equivalence"),
    ("integrability", "sufficient_condition_values", "integrability.sufficient"),
    ("integrability", "covanishing_values", "integrability.covanishing"),
    ("integrability", "canonical_chart_symmetry", "integrability.canonical_chart_symmetry"),
    ("context", "ChartContext.*", "context"),
    ("metric", "christoffel", "metric.christoffel"),
    ("metric", "inverse_metric", "metric.inverse_metric"),
    ("metric", "covariant_derivative_oneform", "metric.covariant_derivative_oneform"),
    ("metric", "covariant_derivative_bivector", "metric.covariant_derivative_bivector"),
    ("metric", "lie_derivative_metric", "metric.lie_derivative_metric"),
    ("metric", "laplacian", "metric.laplacian"),
    ("metric", "sharp_field", "metric.sharp_field"),
    ("geometry", "jacobian", "geometry.jacobian"),
    ("geometry", "lie_bracket", "geometry.lie_bracket"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "expr_field", "dsl.expr_field"),
    ("dsl", "gradient_field", "dsl.gradient_field"),
    ("liepoisson", "builtin_algebra", "liepoisson.builtin_algebra"),
    ("liepoisson", "linear_poisson", "liepoisson.linear_poisson"),
    ("liepoisson", "validate_constants", "liepoisson.validate_constants"),
    ("liepoisson", "killing_form", "liepoisson.killing_form"),
    ("liepoisson", "casimir_lie_bracket", "liepoisson.casimir_lie_bracket"),
    ("liepoisson", "verify_integral_surface", "liepoisson.verify_integral_surface"),
    ("liepoisson", "ensure_regular_grid", "liepoisson.ensure_regular_grid"),
)
LEAVES = (("dsl", "evaluate", "dsl.evaluate"),)
PARTIAL = ("geometry", "partial_derivative")
FIELD_EVAL = ("geometry", "TensorField.components")

_clock = time.perf_counter


class _ThreadLog:
    """Rows, open-span stack and counters of one thread."""

    def __init__(self, index: int, main: bool):
        self.index = index
        self.main = main
        self.names = array("i")
        self.parents = array("i")
        self.checks = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []     # open rows
        self.covered = []   # child time inside each open row
        self.depth = {}     # name id -> open spans of that name
        self.stats = {}     # name id -> [calls, self_s, inclusive_s, off-main calls]
        self.counts = {}    # counter name -> value
        self.root_s = 0.0   # time covered by root spans

    def stat(self, nid):
        st = self.stats.get(nid)
        if st is None:
            st = self.stats[nid] = [0, 0.0, 0.0, 0]
        return st

    def bump(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.logs: list[_ThreadLog] = []
        self.check_id = -1
        self.missing: list[str] = []
        self.wrapped: set[str] = set()  # span and leaf names ever installed
        self.sites: set[str] = set()    # "site:<name>@<module>" bindings wrapped
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # -- per-thread state ----------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self.logs),
                                 threading.current_thread() is threading.main_thread())
                self.logs.append(log)
            self._local.log = log
        return log

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, site: str):
        tracer, nid, site_key = self, self._name_id(name), f"site:{name}@{site}"
        self.wrapped.add(name)
        self.sites.add(site_key)

        def wrapper(*args, **kwargs):
            log = tracer._log()
            row = len(log.names)
            log.names.append(nid)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.checks.append(tracer.check_id)
            log.ends.append(0.0)
            log.stack.append(row)
            log.covered.append(0.0)
            depth = log.depth.get(nid, 0)
            log.depth[nid] = depth + 1
            log.counts[site_key] = log.counts.get(site_key, 0) + 1
            start = _clock()
            log.starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                log.ends[row] = end
                log.stack.pop()
                covered = log.covered.pop()
                log.depth[nid] = depth
                duration = end - start
                if log.covered:
                    log.covered[-1] += duration
                elif log.main:
                    log.root_s += duration
                st = log.stat(nid)
                st[0] += 1
                st[1] += duration - covered
                if depth == 0:
                    st[2] += duration
                if not log.main:
                    st[3] += 1

        return wrapper

    def _leaf(self, fn, name: str, site: str):
        tracer, nid = self, self._name_id(name)
        self.wrapped.add(name)

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                log = tracer._log()
                if log.covered:
                    log.covered[-1] += duration
                st = log.stat(nid)
                st[0] += 1
                st[1] += duration
                st[2] += duration

        return wrapper

    def _partial_counter(self, fn, symbolic, scheme_default):
        tracer = self

        def wrapper(*args, **kwargs):
            field = args[0] if args else kwargs["field"]
            scheme = args[3] if len(args) > 3 else kwargs.get("scheme", scheme_default)
            exact = scheme.kind == symbolic and field.has_exact_derivative
            tracer._log().bump("partial.exact" if exact else "partial.stencil")
            return fn(*args, **kwargs)

        return wrapper

    def _field_counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._log().bump("field_evals")
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_function(self, module: str, attr: str, make) -> bool:
        """Wrap every module-level binding of ``module.attr``; False if absent."""
        try:
            home = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return False
        fn = getattr(home, attr, None)
        if not callable(fn):
            return False
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, key, fn))
                    setattr(mod, key, make(fn, mod.__name__.rpartition(".")[2]))
        return True

    def _replace_methods(self, module: str, spec: str, make) -> list:
        """Wrap ``Class.method`` or every public method for ``Class.*``."""
        cls_name, _, method = spec.partition(".")
        try:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name)
        except (ImportError, AttributeError):
            return []
        wanted = [k for k, v in vars(cls).items()
                  if inspect.isfunction(v) and not k.startswith("_")
                  and (method == "*" or k == method)]
        for key in wanted:
            fn = vars(cls)[key]
            self._restore.append((cls, key, fn))
            setattr(cls, key, make(fn, key))
        return wanted

    def install(self) -> None:
        self.missing = []
        for module, attr, name in SPANS:
            if "." in attr:
                star = attr.endswith(".*")
                found = self._replace_methods(
                    module, attr,
                    lambda fn, key, name=name, star=star:
                        self._span(fn, f"{name}.{key}" if star else name, module))
                if not found:
                    self.missing.append(name if not star else f"{module}.{attr}")
            elif not self._replace_function(
                    module, attr, lambda fn, site, name=name: self._span(fn, name, site)):
                self.missing.append(name)
        for module, attr, name in LEAVES:
            if not self._replace_function(
                    module, attr, lambda fn, site, name=name: self._leaf(fn, name, site)):
                self.missing.append(name)
        self._install_partial_counter()
        if not self._replace_methods(FIELD_EVAL[0], FIELD_EVAL[1],
                                     lambda fn, key: self._field_counter(fn)):
            self.missing.append("geometry.field_evals")

    def _install_partial_counter(self) -> None:
        # the classification reads (field, p, axis, scheme) and the scheme
        # kind constant; an engine without them leaves the counts absent
        module, attr = PARTIAL
        try:
            geometry = importlib.import_module(f"{PACKAGE}.{module}")
            symbolic = geometry.SYMBOLIC
            params = inspect.signature(getattr(geometry, attr)).parameters
            scheme_default = params["scheme"].default
        except (ImportError, AttributeError, KeyError):
            params = {}
        if list(params)[:4] != ["field", "p", "axis", "scheme"]:
            self.missing.append("geometry.partial_derivative")
            return
        self._replace_function(
            module, attr,
            lambda fn, site: self._partial_counter(fn, symbolic, scheme_default))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Merged per-name stats and counters over every thread so far."""
        stats: dict = {}
        counts: dict = {}
        root_s = 0.0
        for log in list(self.logs):
            root_s += log.root_s
            for nid, (calls, self_s, incl_s, off_main) in list(log.stats.items()):
                acc = stats.setdefault(self.names[nid], [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += incl_s
                acc[3] += off_main
            for key, value in list(log.counts.items()):
                counts[key] = counts.get(key, 0) + value
        return {"stats": stats, "counts": counts, "root_s": root_s}

    def write(self, path: str) -> int:
        """Write every span row to a compressed .npz file; returns the row count.

        ``name`` indexes ``names``; ``parent`` is a row of the file, -1 for a
        root span; ``check`` is the check id the benchmark set.
        """
        import numpy as np

        columns = {k: [] for k in ("thread", "name", "parent", "check", "start", "end")}
        offset = 0
        for log in self.logs:
            n = len(log.names)
            parents = np.frombuffer(log.parents, dtype=np.int32)
            columns["thread"].append(np.full(n, log.index, dtype=np.int32))
            columns["name"].append(np.frombuffer(log.names, dtype=np.int32))
            columns["parent"].append(np.where(parents >= 0, parents + offset, -1))
            offset += n
            columns["check"].append(np.frombuffer(log.checks, dtype=np.int32))
            columns["start"].append(np.frombuffer(log.starts, dtype=np.float64))
            columns["end"].append(np.frombuffer(log.ends, dtype=np.float64))
        arrays = {k: np.concatenate(v) if v else np.zeros(0) for k, v in columns.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)
        return int(arrays["name"].size)
