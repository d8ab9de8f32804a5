"""Per-layer spans recorded from outside the kronmesh package.

The layers are the modules in LAYERS.  Installing a Tracer wraps every
public function of each layer (a module-level function whose name has no
leading underscore and whose __module__ is the layer) and rebinds the
wrapper in every kronmesh module that holds the same function object, so
calls made through `from .x import y` bindings are seen as well.  Each call
becomes a span (name, start, end, parent span, request id).  A layer's self
time is the duration of its spans minus the time covered by their child
spans.  Interval arithmetic is deliberately not wrapped: its cost counts
toward the caller, because a span per Interval operation would cost more
than the operation itself.

The tracer reads only public names and attributes.  A public function that
no longer exists is reported as absent rather than failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

PACKAGE = "kronmesh"
LAYERS = ("cli", "metrics", "sequences", "threegap", "contfrac", "intervals")
# helpers that only Interval operators call (see module docstring)
EXCLUDED = frozenset({"intervals.intersection_free_mul"})

# (metric name, unit) reported by a traced run, per request list
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sequences.points", "count"),
    ("sequences.kronecker.self_s", "s"),
    ("sequences.greedy_packing.self_s", "s"),
    ("sequences.self_s", "s"),
    ("metrics.sorted_gaps.calls", "count"),
    ("metrics.sorted_gaps.self_s", "s"),
    ("metrics.sweep.self_s", "s"),
    ("metrics.sweep.rows", "count"),
    ("metrics.kronecker_bounds.calls", "count"),
    ("metrics.kronecker_bounds.self_s", "s"),
    ("metrics.kronecker_bounds.distinct_ratio", "ratio"),
    ("metrics.mesh_ratio_structural.calls", "count"),
    ("metrics.mesh_ratio_structural.self_s", "s"),
    ("metrics.self_s", "s"),
    ("metrics.sweep_to_csv.self_s", "s"),
    ("metrics.metrics_to_json.self_s", "s"),
    ("contfrac.alpha_tail.calls", "count"),
    ("contfrac.alpha_tail.self_s", "s"),
    ("contfrac.alpha_tail.distinct_ratio", "ratio"),
    ("contfrac.digits", "count"),
    ("contfrac.self_s", "s"),
    ("threegap.eta.calls", "count"),
    ("threegap.eta.self_s", "s"),
    ("threegap.form_interval.calls", "count"),
    ("threegap.form_interval.self_s", "s"),
    ("threegap.decompose.self_s", "s"),
    ("threegap.self_s", "s"),
    ("intervals.fraction_to_decimal.calls", "count"),
    ("intervals.self_s", "s"),
    ("cli.requests", "count"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def public_functions(module) -> Dict[str, object]:
    """name -> function for the module's own public functions."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Span recorder; install() patches, uninstall() restores every binding.

    Spans are kept in memory for one request at a time and folded into
    per-function totals when the request ends, so a long traced run holds
    only totals.
    """

    def __init__(self):
        self.originals: Dict[str, object] = {}   # "layer.func" -> function
        self._patches: List[Tuple[object, str, object]] = []
        self.spans: List[Optional[tuple]] = []
        self._stack: List[Tuple[int, str]] = []
        self.request = -1
        # per-function totals: calls and self seconds
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_count = 0
        # counts taken at layer boundaries
        self.points = 0
        self.rows = 0
        self.digits = 0
        self.bounds_keys: set = set()
        self.tail_keys: set = set()
        self._expansions: list = []
        self.has_expansion_hook = False

    # -- patching ------------------------------------------------------------

    def _package_modules(self):
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(mod).items():
                qual = f"{layer}.{name}"
                if qual not in EXCLUDED:
                    self.originals[qual] = fn
        wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in self.originals.items()}
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        self._hook_expansions()
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _hook_expansions(self) -> None:
        # contfrac.digits: every CFExpansion built during a request
        # contributes its public depth + 1 when the request ends
        cls = getattr(sys.modules.get(f"{PACKAGE}.contfrac"), "CFExpansion", None)
        if cls is None or "__init__" not in vars(cls):
            return
        original = vars(cls)["__init__"]
        made = self._expansions

        @functools.wraps(original)
        def __init__(exp, *args, **kwargs):
            original(exp, *args, **kwargs)
            made.append(exp)

        self._patches.append((cls, "__init__", original))
        cls.__init__ = __init__
        self.has_expansion_hook = True

    def _wrap(self, qual: str, fn):
        layer = qual.split(".", 1)[0]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = self._observer(qual, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else (-1, "")
            idx = len(spans)
            spans.append(None)
            stack.append((idx, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qual, start, end, parent[0], self.request)
            if observe is not None:
                observe(args, kwargs, result, parent[1])
            return result

        return wrapper

    def _observer(self, qual: str, fn):
        """Count hook for the functions whose work is counted, else None."""
        if qual.startswith("sequences."):
            point_set = getattr(sys.modules.get(f"{PACKAGE}.sequences"), "PointSet", None)
            if point_set is None:
                return None

            def count_points(args, kwargs, result, parent_layer):
                # only the outermost sequences call, so generate -> kronecker
                # counts its points once
                if parent_layer != "sequences" and isinstance(result, point_set):
                    self.points += result.n
            return count_points
        if qual == "metrics.sweep":
            def count_rows(args, kwargs, result, parent_layer):
                self.rows += len(result)
            return count_rows
        if qual == "metrics.kronecker_bounds":
            def bounds_key(args, kwargs, result, parent_layer):
                alpha = args[0] if args else kwargs.get("exp")
                self.bounds_keys.add((getattr(alpha, "spec", alpha), result.m, result.h))
            return bounds_key
        if qual == "contfrac.alpha_tail":
            default_ctx = (fn.__defaults__ or (None,))[-1]

            def tail_key(args, kwargs, result, parent_layer):
                exp = args[0] if args else kwargs.get("exp")
                m = args[1] if len(args) > 1 else kwargs.get("m")
                ctx = args[2] if len(args) > 2 else kwargs.get("ctx", default_ctx)
                self.tail_keys.add((exp.spec, m, getattr(ctx, "bits", None)))
            return tail_key
        return None

    # -- requests --------------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id

    def end_request(self) -> None:
        """Fold the request's spans into per-function totals."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name = span[0]
            self.calls[name] += 1
            self.self_s[name] += (span[2] - span[1]) - covered[i]
        self.span_count += len(spans)
        spans.clear()
        self.digits += sum(exp.depth + 1 for exp in self._expansions)
        self._expansions.clear()
        self.request = -1

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, lists: int) -> Tuple[Dict[str, float], List[str]]:
        """(values per request list, names of absent metrics)."""
        values: Dict[str, float] = {}
        absent: List[str] = []
        per = 1.0 / max(lists, 1)

        def func_stat(qual: str, stat: str) -> Optional[float]:
            if qual not in self.originals:
                return None
            if stat == "calls":
                return self.calls[qual] * per
            if stat == "self_s":
                return self.self_s[qual] * per
            if stat == "distinct_ratio":
                keys = self.bounds_keys if qual == "metrics.kronecker_bounds" else self.tail_keys
                calls = self.calls[qual]
                return len(keys) / calls if calls else 0.0
            raise KeyError(stat)

        def layer_self(layer: str) -> float:
            return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer) * per

        special = {
            "sequences.points": lambda: self.points * per
            if any(q.startswith("sequences.") for q in self.originals) else None,
            "metrics.sweep.rows": lambda: self.rows * per
            if "metrics.sweep" in self.originals else None,
            "contfrac.digits": lambda: self.digits * per if self.has_expansion_hook else None,
            "cli.requests": lambda: self.calls["cli.main"] * per
            if "cli.main" in self.originals else None,
            "trace.spans": lambda: self.span_count * per,
        }
        for name, _unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue  # filled in by the caller, which has both runs
            if name in special:
                value = special[name]()
            else:
                head, stat = name.rsplit(".", 1)
                value = layer_self(head) if head in LAYERS and stat == "self_s" \
                    else func_stat(head, stat)
            if value is None:
                absent.append(name)
                value = 0.0
            values[name] = value
        return values, absent
