"""Per-layer tracing of the semiflat package from outside it.

``Tracer.install()`` wraps every public module-level function of each
layer module (plain functions and ``lru_cache`` objects alike) and
rebinds the wrapper in every ``semiflat.*`` namespace that holds the
original, including ``from .x import y`` copies and module-level tuples
such as the suite table.  The wrapper sits outside the cache, so a cache
hit counts as a call, and ``cache_info`` deltas give the hit ratios.

A wrapper keeps a stack of open calls: a function's self time is its
duration minus the time spent in wrapped calls it made.  A layer's self
time is the sum over its functions.  Installation fails loudly when a
required entry point is missing or a binding stays unwrapped.
"""
from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("structures", "subsets", "congruence", "homology", "tensor",
          "limits", "flatness", "catalog", "workspace", "cli", "suite")

# Entry points the per-layer metrics are computed from.
REQUIRED = {
    "structures": ("build_semiring", "build_semimodule", "build_morphism"),
    "subsets": ("enumerate_subsemimodules",),
    "congruence": ("congruence_closure",),
    "homology": ("hom_module", "end_comp"),
    "tensor": ("tensor_product",),
    "limits": ("sum_morphism",),
    "flatness": ("is_uniformly_flat", "search_counterexamples"),
    "catalog": ("enumerate_semimodules",),
    "workspace": ("parse_workspace", "emit_workspace"),
    "cli": ("main",),
    "suite": ("run_suites",),
}
VALIDATORS = ("build_semiring", "build_semimodule", "build_morphism")


class TracingError(RuntimeError):
    pass


class FnStats:
    __slots__ = ("layer", "name", "calls", "returned", "total", "self_time",
                 "payload", "cache")

    def __init__(self, layer, name, cache):
        self.layer = layer
        self.name = name
        self.cache = cache          # the lru_cache object, or None
        self.calls = 0
        self.returned = 0
        self.total = 0.0
        self.self_time = 0.0
        self.payload = {}


def _observe_miss(stats: FnStats, args, kwargs, result) -> None:
    """Record what a cache miss (or an uncached call) produced."""
    p = stats.payload
    name = stats.name
    if name == "hom_module":
        p["maps"] = p.get("maps", 0) + len(result.maps)
    elif name == "tensor_product":
        p["presentations"] = p.get("presentations", 0) + 1
        p["box_max"] = max(p.get("box_max", 0), result.box_size)
        p["box_total"] = p.get("box_total", 0) + result.box_size
    elif name == "enumerate_semimodules":
        p["modules"] = p.get("modules", 0) + len(result)
    elif name == "congruence_closure":
        size = args[0] if args else kwargs["size"]
        p["elems"] = p.get("elems", 0) + size
    elif name == "parse_workspace":
        p["objects"] = p.get("objects", 0) + sum(
            len(getattr(result, kind)) for kind in
            ("semirings", "semimodules", "morphisms", "systems", "diagrams"))


OBSERVED = ("hom_module", "tensor_product", "enumerate_semimodules",
            "congruence_closure", "parse_workspace")


class Tracer:
    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.wrappers: dict[int, object] = {}      # id(original) -> wrapper
        self.originals: dict[int, object] = {}     # keeps ids valid
        self.cache_start: dict[str, tuple[int, int]] = {}
        self.stack = [[0.0]]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        cache = fn if hasattr(fn, "cache_info") else None
        stats = FnStats(layer, name, cache)
        self.stats[f"{layer}.{name}"] = stats
        stack = self.stack
        clock = time.perf_counter
        observe = name in OBSERVED

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            missed_before = cache.cache_info().misses if (observe and cache) else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[0]
            stats.returned += 1
            if observe and (cache is None or cache.cache_info().misses != missed_before):
                _observe_miss(stats, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"semiflat.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            missing = [n for n in REQUIRED[layer] if not callable(getattr(mod, n, None))]
            if missing:
                raise TracingError(f"semiflat.{layer} lacks entry points {missing}")
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__ or id(obj) in self.wrappers:
                    continue        # imported, or an alias of a function already wrapped
                name = obj.__name__
                self.originals[id(obj)] = obj
                self.wrappers[id(obj)] = self._wrap(layer, name, obj)
                if hasattr(obj, "cache_info"):
                    info = obj.cache_info()
                    self.cache_start[f"{layer}.{name}"] = (info.hits, info.misses)
        for mod in self._namespaces():
            for name, value in list(vars(mod).items()):
                new = self._rebind(value)
                if new is not value:
                    setattr(mod, name, new)
            self._rebind_defaults(mod)
        self.verify()

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "semiflat" or n.startswith("semiflat."))]

    def _rebind(self, value):
        wrapper = self.wrappers.get(id(value))
        if wrapper is not None and self.originals[id(value)] is value:
            return wrapper
        if isinstance(value, (tuple, list)):
            items = [self._rebind(v) for v in value]
            if any(a is not b for a, b in zip(items, value)):
                return type(value)(items)
        if isinstance(value, dict):
            items = {k: self._rebind(v) for k, v in value.items()}
            if any(items[k] is not v for k, v in value.items()):
                return items
        return value

    def _rebind_defaults(self, mod) -> None:
        for value in vars(mod).values():
            fn = getattr(value, "__wrapped__", value)
            defaults = getattr(fn, "__defaults__", None)
            if defaults:
                new = self._rebind(tuple(defaults))
                if new is not defaults:
                    fn.__defaults__ = new

    def _unwrapped(self, value) -> bool:
        if self.originals.get(id(value), self) is value:
            return True
        if isinstance(value, (tuple, list, set, frozenset)):
            return any(self._unwrapped(v) for v in value)
        if isinstance(value, dict):
            return any(self._unwrapped(v) for v in value.values())
        return False

    def verify(self) -> None:
        left = []
        for mod in self._namespaces():
            for name, value in vars(mod).items():
                if self._unwrapped(value):
                    left.append(f"{mod.__name__}.{name}")
                fn = getattr(value, "__wrapped__", value)
                if self._unwrapped(tuple(getattr(fn, "__defaults__", None) or ())):
                    left.append(f"{mod.__name__}.{name} (default argument)")
        if left:
            raise TracingError(f"bindings left unwrapped: {sorted(set(left))}")

    # -- results ------------------------------------------------------------

    def _layer(self, layer):
        return [s for s in self.stats.values() if s.layer == layer]

    def _fn(self, layer, name) -> FnStats:
        return self.stats[f"{layer}.{name}"]

    def _cache_counts(self, layer):
        hits = misses = entries = 0
        for key, s in self.stats.items():
            if s.layer != layer or s.cache is None:
                continue
            info = s.cache.cache_info()
            h0, m0 = self.cache_start[key]
            hits += info.hits - h0
            misses += info.misses - m0
            entries += info.currsize
        return hits, misses, entries

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since ``install``."""
        out = {}

        def ratio(num, den):
            return num / den if den else 0.0

        for layer in LAYERS:
            fns = self._layer(layer)
            hits, misses, entries = self._cache_counts(layer)
            out[f"{layer}.calls"] = sum(s.calls for s in fns)
            out[f"{layer}.self_s"] = sum(s.self_time for s in fns)
            out[f"{layer}.cache_hit_ratio"] = ratio(hits, hits + misses)
            out[f"{layer}.cache_entries"] = entries
        validators = [self._fn("structures", n) for n in VALIDATORS]
        morph = self._fn("structures", "build_morphism")
        out["structures.validate_calls"] = sum(s.calls for s in validators)
        out["structures.validate_s"] = sum(s.total for s in validators)
        out["structures.morphism_accept_ratio"] = ratio(morph.returned, morph.calls)
        hom = self._fn("homology", "hom_module")
        out["homology.hom_calls"] = hom.calls
        out["homology.hom_maps"] = hom.payload.get("maps", 0)
        out["homology.end_comp_s"] = self._fn("homology", "end_comp").total
        tp = self._fn("tensor", "tensor_product")
        out["tensor.presentations"] = tp.payload.get("presentations", 0)
        out["tensor.box_max"] = tp.payload.get("box_max", 0)
        out["tensor.box_total"] = tp.payload.get("box_total", 0)
        cc = self._fn("congruence", "congruence_closure")
        out["congruence.closure_calls"] = cc.calls
        out["congruence.closure_elems"] = cc.payload.get("elems", 0)
        enum = self._fn("catalog", "enumerate_semimodules")
        out["catalog.enumerate_s"] = enum.total
        out["catalog.modules"] = enum.payload.get("modules", 0)
        parse = self._fn("workspace", "parse_workspace")
        out["workspace.parse_s"] = parse.total
        out["workspace.objects"] = parse.payload.get("objects", 0)
        out["workspace.emit_s"] = self._fn("workspace", "emit_workspace").total
        out["cli.import_s"] = 0.0          # measured by the traced CLI child
        out["cli.command_s"] = sum(s.total for s in self._layer("cli")
                                   if s.name.startswith("cmd_"))
        return out
