"""Span tracing around the public functions of the ``verlinde`` modules.

The tracer wraps each function named in ``LAYERS`` and rebinds the wrapper
in every module namespace that holds the original, so calls made inside the
package (``quantization.from_idempotent``, ``prequant.check_prequantization``
through ``require_admissible``) are traced as well.  The package source is
not modified.

Each call becomes a span (name, start, end, parent, op id), kept in compact
arrays in memory and written out by ``write_spans`` at the end of a pass.
A span's self time is its duration minus the time its direct child spans
cover; calls are single-threaded, so children nest inside their parent and
never overlap each other.
"""

from __future__ import annotations

import inspect
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = {
    "prequant": ("check_prequantization", "canonicalize_choice", "enumerate_choices",
                 "enumerate_gamma", "phase_factor"),
    "fusion_ring": ("multiply_coeff_vectors", "from_idempotent", "round_to_integer",
                    "s_matrix"),
    "quantization": ("quantize_surface", "fs_formula", "reduced_quantization"),
    "oracles": ("sweep_surfaces",),
}

# lru caches whose hit ratios are reported; all live in ``quantization``.
FS_CACHE = "_fs_gamma_data"
BLOCK_CACHES = ("_star_block", "_star_and_doubles", "_label_product", "tau_power",
                "quantize_double_so3")

# Module namespaces searched for bindings of a wrapped function.
NAMESPACES = ("verlinde", "verlinde.fusion_ring", "verlinde.prequant",
              "verlinde.quantization", "verlinde.oracles", "verlinde.cli")

SPAN_LAYOUT = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
            units[f"{module}.{fn}.failed"] = "count"
    units.update({
        "prequant.enumerate_gamma.elements": "count",
        "fusion_ring.multiply_coeff_vectors.max_level": "level",
        "fusion_ring.multiply_coeff_vectors.coeff_bits_max": "bit",
        "fusion_ring.round_to_integer.worst_margin": "ratio",
        "quantization.fs_gamma_cache.hit_ratio": "ratio",
        "quantization.fs_gamma_cache.hits": "count",
        "quantization.fs_gamma_cache.misses": "count",
        "quantization.block_cache.hit_ratio": "ratio",
        "quantization.block_cache.hits": "count",
        "quantization.block_cache.misses": "count",
        "cli.import_s": "s",
        "trace.spans": "count",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Records spans and per-function counters for the wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in SPAN_LAYOUT}
        self.stack: list[int] = []
        self.op_id = -1
        self.calls: list[int] = []
        self.failed: list[int] = []
        self.gamma_elements = 0
        self.max_level = 0
        self.coeff_bits_max = 0
        self.worst_margin = 0.0

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.failed.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        spans = self.spans
        idx = len(spans["start"])
        spans["name"].append(nid)
        spans["parent"].append(self.stack[-1] if self.stack else -1)
        spans["op"].append(self.op_id)
        spans["end"].append(0.0)
        self.stack.append(idx)
        spans["start"].append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.spans["end"][idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced stand-in for ``fn``; ``before``/``after`` see the arguments
        (and the result) outside the span's own interval."""
        nid = self._name_id(name)

        if inspect.isgeneratorfunction(fn):
            # One span per step of the generator, so the caller's work between
            # items is not billed to it.
            def traced_generator(*args, **kwargs):
                self.calls[nid] += 1
                iterator = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    except BaseException:
                        self.failed[nid] += 1
                        raise
                    finally:
                        self._close(idx)
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.calls[nid] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[nid] += 1
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- hooks for the extra per-layer counters --------------------------

    def _count_gamma(self, args, kwargs, result):
        self.gamma_elements += len(result)

    def _product_size(self, args, kwargs, result):
        self.max_level = max(self.max_level, int(args[0]))
        ints = [c for c in result if isinstance(c, int)]
        if ints:
            self.coeff_bits_max = max(self.coeff_bits_max, max(map(abs, ints)).bit_length())

    def _rounding_margin(self, fusion_ring):
        # The seed-state allowance of round_to_integer: min(tol*(1+|v|), 0.499).
        def hook(args, kwargs):
            value = float(args[0])
            tol = args[1] if len(args) > 1 else kwargs.get("tol")
            if tol is None:
                tol = fusion_ring.integrality_tolerance()
            allowed = min(tol * (1.0 + abs(value)), 0.499)
            if math.isfinite(value) and allowed > 0:
                self.worst_margin = max(self.worst_margin, abs(value - round(value)) / allowed)
        return hook

    def install(self) -> None:
        """Rebind every wrapped function in every namespace that holds it."""
        fusion_ring = sys.modules["verlinde.fusion_ring"]
        hooks = {
            "enumerate_gamma": (None, self._count_gamma),
            "multiply_coeff_vectors": (None, self._product_size),
            "round_to_integer": (self._rounding_margin(fusion_ring), None),
        }
        namespaces = [sys.modules[name] for name in NAMESPACES]
        for module, functions in LAYERS.items():
            home = sys.modules[f"verlinde.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                before, after = hooks.get(fn_name, (None, None))
                wrapper = self.wrap(f"{module}.{fn_name}", original, before, after)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Total self time per span name."""
        spans = self.spans
        name, parent, start, end = spans["name"], spans["parent"], spans["start"], spans["end"]
        n = len(start)
        child_cover = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_cover[p] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[name[i]] += end[i] - start[i] - child_cover[i]
        return totals

    def layer_metrics(self, quantization) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, (name, self_s) in enumerate(zip(self.names, self.self_times())):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s
            out[f"{name}.failed"] = self.failed[nid]
        out["prequant.enumerate_gamma.elements"] = self.gamma_elements
        out["fusion_ring.multiply_coeff_vectors.max_level"] = self.max_level
        out["fusion_ring.multiply_coeff_vectors.coeff_bits_max"] = self.coeff_bits_max
        out["fusion_ring.round_to_integer.worst_margin"] = self.worst_margin
        out.update(cache_metrics("quantization.fs_gamma_cache",
                                 [getattr(quantization, FS_CACHE)]))
        out.update(cache_metrics("quantization.block_cache",
                                 [getattr(quantization, name) for name in BLOCK_CACHES]))
        out["trace.spans"] = len(self.spans["start"])
        return out

    def write_spans(self, path: Path) -> dict:
        """Write the spans as consecutive native arrays; return their layout."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for field, _ in SPAN_LAYOUT:
                self.spans[field].tofile(fh)
        return {"file": path.name, "count": len(self.spans["start"]), "names": self.names,
                "layout": [[field, array(code).itemsize, code] for field, code in SPAN_LAYOUT]}


def cache_metrics(prefix: str, caches) -> dict[str, float]:
    hits = sum(c.cache_info().hits for c in caches)
    misses = sum(c.cache_info().misses for c in caches)
    return {f"{prefix}.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            f"{prefix}.hits": hits, f"{prefix}.misses": misses}
