"""Span tracer that measures the sparsesums layers from outside the package.

`Tracer.install` replaces the public functions of each package module with
wrappers that record one span per call: name, start, end, parent span and the
id of the pass that made it. Because the package imports many of its
functions by name (`sweep` does `from .energy import d_times`), every module
namespace that holds the original function object is patched, not only the
defining module; that is what catches calls made inside the package.

Besides time, the wrappers record counts computed from the arguments and
results (work pairs, sum terms, budget skips, FFT-route calls, context table
bytes). With `track_alloc` set they also record, for the `sums` and
`energy` layers, the `tracemalloc` peak of a call. Allocation tracing slows
the Python-level loops of those layers severalfold (the exactly rounded sums
create one traced object per term), so the caller times layers in passes
without it and measures allocation peaks in a pass of their own, and in that
pass only the first call per `_alloc_key` is measured. Spans stay in memory;
the caller writes them out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# Traced functions, by the package module that defines them.
LAYERS = {
    "field": ("make_field_ctx",),
    "subgroups": ("subgroup_of_order", "product_set"),
    "sums": ("sum_exact", "sum_decomposed", "bilinear_sum"),
    "energy": (
        "diff_counts",
        "mult_energy",
        "shifted_energy",
        "d_times",
        "n_triples",
        "i_distribution",
        "j_distribution",
        "lambda_square_sum",
        "cauchy_step_report",
    ),
    "bounds": ("compare_bounds",),
    "sweep": ("run_sweep", "ratio_scan", "execute_task", "cached_ctx"),
}

# Layers whose calls also get a per-call tracemalloc peak.
ALLOC_LAYERS = ("sums", "energy")


# Work pairs of each counter, computed from its input sizes. Each is the
# enumeration size the counter itself checks against its budget.
PAIRS = {
    "energy.diff_counts": lambda a: len(a["u"]) ** 2,
    "energy.mult_energy": lambda a: len(a["us"]) * len(a["vs"]),
    "energy.shifted_energy": lambda a: len(a["g"]) ** 2,
    "energy.d_times": lambda a: len(a["us"]) ** 2,
    "energy.n_triples": lambda a: len(a["fs"]) * (len(a["gs"]) ** 2 + len(a["hs"]) ** 2),
    "energy.i_distribution": lambda a: len(a["ws"]) ** 2 * len(a["zs"]),
    "energy.j_distribution": lambda a: len(a["xs"]) ** 2 * len(a["ys"]) ** 2,
    "energy.lambda_square_sum": lambda a: len(a["s"]) * len(a["g"]),
    "energy.cauchy_step_report": lambda a: len(a["f"]) * (len(a["g"]) ** 2 + len(a["h"]) ** 2),
}

_COUNT_QUANTITIES = ("calls", "skipped", "pairs", "terms", "fft_calls", "exact_evaluated")


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    specs = [
        ("field.make_field_ctx.calls", "count", "lower"),
        ("field.make_field_ctx.self_s", "s", "lower"),
        ("field.ctx_table_bytes", "B", "lower"),
        ("sweep.cached_ctx.hit_ratio", "frac", "higher"),
    ]
    for fn in ("subgroup_of_order", "product_set"):
        specs += [(f"subgroups.{fn}.calls", "count", "lower"),
                  (f"subgroups.{fn}.self_s", "s", "lower")]
    for fn in LAYERS["sums"]:
        specs += [(f"sums.{fn}.calls", "count", "lower"),
                  (f"sums.{fn}.self_s", "s", "lower"),
                  (f"sums.{fn}.terms", "count", "lower"),
                  (f"sums.{fn}.peak_alloc_mb", "MB", "lower")]
    for fn in LAYERS["energy"]:
        specs += [(f"energy.{fn}.calls", "count", "lower"),
                  (f"energy.{fn}.self_s", "s", "lower"),
                  (f"energy.{fn}.skipped", "count", "lower"),
                  (f"energy.{fn}.pairs", "count", "lower"),
                  (f"energy.{fn}.peak_alloc_mb", "MB", "lower")]
    specs += [
        ("energy.d_times.fft_calls", "count", "lower"),
        ("bounds.compare_bounds.calls", "count", "lower"),
        ("bounds.compare_bounds.self_s", "s", "lower"),
        ("bounds.compare_bounds.exact_evaluated", "count", "higher"),
        ("sweep.run_sweep.self_s", "s", "lower"),
        ("sweep.ratio_scan.self_s", "s", "lower"),
        ("sweep.execute_task.calls", "count", "lower"),
        ("sweep.execute_task.skipped", "count", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
    return specs


def _alloc_key(qual: str, args: tuple, kwargs: dict) -> tuple:
    """Calls with equal keys allocate the same arrays: same p, set sizes and route."""
    first = args[0]
    p = first if isinstance(first, int) else first.p
    sizes = tuple(len(a) for a in args[1:] if hasattr(a, "__len__") and not isinstance(a, str))
    routes = tuple(a for a in (*args, *kwargs.values()) if isinstance(a, str))
    return (qual, p, sizes, routes)


def patch_everywhere(original, replacement) -> list[tuple]:
    """Rebind `original` to `replacement` in every loaded sparsesums module.

    Returns the undo list for `unpatch`.
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sparsesums" or mod_name.startswith("sparsesums.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class _Frame:
    __slots__ = ("span_id", "child_s", "alloc_base", "alloc_max", "owns_tracing")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0
        self.alloc_base = None  # set only for allocation-tracked calls
        self.alloc_max = 0
        self.owns_tracing = False


class Tracer:
    """Records spans and per-function counts while installed."""

    def __init__(self, package: dict, budget_error: type, direct_conv_max: int):
        self.package = package  # module short name -> module object
        self.budget_error = budget_error
        self.direct_conv_max = direct_conv_max
        self.epoch = time.perf_counter()
        self.spans: list[tuple] = []  # (run_id, span_id, parent_id, name, start, end)
        self.run_id = ""
        self.track_alloc = False
        self._stack: list[_Frame] = []
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a new pass: clear the per-function aggregates (spans are kept)."""
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.self_s: Counter = Counter()
        self.peak_alloc: Counter = Counter()
        self.table_bytes = 0
        self._alloc_seen: set[tuple] = set()

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = self.package[layer]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original, layer in ALLOC_LAYERS)
                self._undo += patch_everywhere(original, wrapper)

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, qual: str, fn, alloc_layer: bool):
        pairs = PAIRS.get(qual)
        sig = inspect.signature(fn) if pairs is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            return tracer._call(qual, fn, args, kwargs, bound, pairs, alloc_layer)

        return traced

    def _call(self, qual, fn, args, kwargs, bound, pairs, alloc_layer):
        track_alloc = False
        if alloc_layer and self.track_alloc:
            key = _alloc_key(qual, args, kwargs)
            track_alloc = key not in self._alloc_seen
            self._alloc_seen.add(key)
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = _Frame(span_id)
        if track_alloc:
            self._alloc_enter(frame)
        self._stack.append(frame)
        skipped = False
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except self.budget_error:
            skipped = True
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            elapsed = t1 - t0
            if parent is not None:
                parent.child_s += elapsed
            self.spans[span_id] = (
                self.run_id, span_id, parent.span_id if parent else -1, qual,
                t0 - self.epoch, t1 - self.epoch,
            )
            self.self_s[qual] += elapsed - frame.child_s
            c = self.counts[qual]
            c["calls"] += 1
            if skipped:
                c["skipped"] += 1
            if track_alloc:
                self._alloc_exit(qual, frame)
            if not skipped and result is not None:
                self._observe(qual, c, bound, pairs, result)

    def _observe(self, qual, c, bound, pairs, result) -> None:
        if pairs is not None:
            c["pairs"] += pairs(bound.arguments)
        if qual.startswith("sums."):
            c["terms"] += result.term_count
        elif qual == "energy.d_times":
            a = bound.arguments
            if a["method"] == "optimized" and a["ctx"].p - 1 > self.direct_conv_max:
                c["fft_calls"] += 1
        elif qual == "bounds.compare_bounds":
            if result.exact_magnitude is not None:
                c["exact_evaluated"] += 1
        elif qual == "field.make_field_ctx":
            self.table_bytes += sum(
                t.nbytes for t in (result.dlog, result.g_pow, result.e_table, result.chi_unit)
            )
        elif qual == "sweep.execute_task":
            if result[1]["skipped"]:
                c["skipped"] += 1

    # tracemalloc is switched on only while an allocation-tracked call runs,
    # so the other layers' times are not inflated by allocation tracing.
    def _enclosing_alloc(self) -> _Frame | None:
        for frame in reversed(self._stack):
            if frame.alloc_base is not None:
                return frame
        return None

    def _alloc_enter(self, frame: _Frame) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            frame.owns_tracing = True
        current, peak = tracemalloc.get_traced_memory()
        outer = self._enclosing_alloc()
        if outer is not None:
            outer.alloc_max = max(outer.alloc_max, peak)
        tracemalloc.reset_peak()
        frame.alloc_base = current
        frame.alloc_max = current

    def _alloc_exit(self, qual: str, frame: _Frame) -> None:
        _, peak = tracemalloc.get_traced_memory()
        frame.alloc_max = max(frame.alloc_max, peak)
        outer = self._enclosing_alloc()
        if outer is not None:
            outer.alloc_max = max(outer.alloc_max, frame.alloc_max)
        call_peak = frame.alloc_max - frame.alloc_base
        if call_peak > self.peak_alloc[qual]:
            self.peak_alloc[qual] = call_peak
        if frame.owns_tracing:
            tracemalloc.stop()

    def pass_metrics(self, cache_info) -> tuple[dict, dict]:
        """(timings, counts) of the pass since the last reset.

        Counts are exact-repeat quantities: a rerun of the same inputs must
        reproduce them identically. cache_info is `cached_ctx.cache_info()`.
        """
        timings: dict[str, float] = {}
        counts: dict[str, float] = {}
        lookups = cache_info.hits + cache_info.misses
        counts["sweep.cached_ctx.hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
        counts["field.ctx_table_bytes"] = self.table_bytes
        for name, _unit, _better in per_layer_specs():
            if name in counts or name == "trace_overhead_frac":
                continue
            qual, _, quantity = name.rpartition(".")
            if quantity == "self_s":
                timings[name] = self.self_s.get(qual, 0.0)
            elif quantity == "peak_alloc_mb":
                timings[name] = self.peak_alloc.get(qual, 0) / 2**20
            elif quantity in _COUNT_QUANTITIES:
                counts[name] = self.counts[qual][quantity]
        return timings, counts
