"""Span recorder that wraps qlatwit's public functions from outside the package.

A layer is one module of ``qlatwit``. Every public function defined in a layer
module is replaced by a wrapper that records a span, and the wrapper is bound
wherever a qlatwit module holds the original: under its own name (the
``from .qcore import expectation`` imports) and as a value of a module-level
dict (the CLI's command table). The ``__post_init__`` validation of the three
value classes is wrapped as well. Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "qcore", "spinchain", "bosonic", "criteria", "channels", "optimize")
VALIDATED_CLASSES = ("PureState", "DensityMatrix", "LinearOperator")
SOLVERS = ("qcore.matrix_exponential", "qcore.ground_state", "qcore.negativity")
LRU_CACHE_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))


def returned_bytes(obj) -> int:
    """Bytes of the array a call returned, bare or held by a state or operator."""
    for arr in (obj, getattr(obj, "matrix", None), getattr(obj, "amplitudes", None)):
        if hasattr(arr, "nbytes") and hasattr(arr, "shape"):
            return int(arr.nbytes)
    return 0


def qlatwit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qlatwit" or name.startswith("qlatwit."))]


def cache_totals(modules) -> dict:
    """Summed ``cache_info()`` of every lru_cache found at module level, found
    by its type, so renaming or deleting a cache needs no change here."""
    caches = {id(obj): obj for mod in modules for obj in vars(mod).values()
              if isinstance(obj, LRU_CACHE_TYPE)}
    hits = sum(c.cache_info().hits for c in caches.values())
    misses = sum(c.cache_info().misses for c in caches.values())
    return {"caches": len(caches), "hits": hits, "misses": misses}


class Tracer:
    """Records one span per wrapped call: name, layer, start, end, parent
    (index into ``spans``) and the bytes of the returned arrays."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer,
                    "parent": stack[-1] if stack else None, "bytes": 0}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            span["bytes"] = returned_bytes(result)
            return result

        return traced

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def install(self) -> dict:
        """Wrap the layers of the imported qlatwit package; returns the
        wrapper of each original function."""
        modules = {m.__name__: m for m in qlatwit_modules()}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"qlatwit.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", layer, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        qcore = modules["qlatwit.qcore"]
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(qcore, cls_name)
            self._patch(cls, "__post_init__",
                        self.wrap(f"qcore.validate.{cls_name}", "qcore", cls.__post_init__))
        return wrappers

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer calls and self time (duration minus direct child spans), plus
    the counters named after the costs later changes target."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    out["qcore.validate_s"] = out["qcore.solve_s"] = 0.0
    for key in ("qcore.validate.calls", "spinchain.bytes_built", "bosonic.bytes_built",
                "channels.experiments", "optimize.evals"):
        out[key] = 0
    for i, span in enumerate(spans):
        layer, name = span["layer"], span["name"]
        duration = span["end"] - span["start"]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += duration - child_s[i]
        if name.startswith("qcore.validate."):
            out["qcore.validate_s"] += duration
            out["qcore.validate.calls"] += 1
        elif name in SOLVERS:
            out["qcore.solve_s"] += duration
        elif name == "channels.decoherence_experiment":
            out["channels.experiments"] += 1
        elif name == "optimize.pulse_generator":
            out["optimize.evals"] += 1
        if layer in ("spinchain", "bosonic"):
            out[f"{layer}.bytes_built"] += span["bytes"]
    return out
