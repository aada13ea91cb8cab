"""Outside-in layer tracing for the benchmark worker.

The tracer replaces chosen public functions and methods of ``finslergbc``
with thin wrappers, at every module binding that holds them (so
``connection.metric_jets`` is wrapped as well as ``metric.metric_jets``),
and puts the originals back in ``restore``.  Spans live in memory as
``[name, parent, start, end, points]`` lists with a parent index, and are
written out by the caller once the traced call has finished.

This module imports nothing outside the standard library, so importing it
before the timed ``import finslergbc.cli`` adds nothing to ``setup_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "finslergbc"


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _nodes(result) -> int:
    return len(result[0])


# (span name, module, attribute or Class.method, points of one call or None)
SPANS = [
    ("metric.metric_jets", "metric", "metric_jets", lambda r: _size(r.F)),
    ("metric.fiber_volume_form", "metric", "fiber_volume_form", _size),
    ("metric.fundamental", "metric", "MinkowskiNorm.fundamental", None),
    ("metric.cartan", "metric", "MinkowskiNorm.cartan", None),
    ("connection.bundle_tensors", "connection", "bundle_tensors", None),
    ("connection.pi", "connection", "FrameConnection.pi", None),
    ("connection.omega", "connection", "CurvatureData.omega", None),
    ("chern_forms.volume", "chern_forms", "TransgressionForms.volume", None),
    ("chern_forms.dlog_volume", "chern_forms", "TransgressionForms.dlog_volume", None),
    ("algebra.bigraded_product", "algebra", "bigraded_product", None),
    ("algebra.exp_truncated", "algebra", "exp_truncated", None),
    ("algebra.pfaffian", "algebra", "pfaffian", None),
    ("algebra.berezin", "algebra", "berezin", None),
    ("quadrature.base_integral_excised", "quadrature", "base_integral_excised", None),
    ("topology.find_zeros", "topology", "find_zeros", None),
    ("manifolds.install_metric", "manifolds", "install_metric", None),
]

# Counted without a span: these are called too often, or are too cheap,
# for a span to mean anything.  Base points are the batches that enter the
# form pipeline from the top: quadrature nodes and sampled bundle points.
COUNTERS = [
    ("quadrature.base_points", "quadrature", "AnnulusRegion.nodes", _nodes),
    ("quadrature.base_points", "quadrature", "BoxRegion.nodes", _nodes),
    ("quadrature.base_points", "quadrature", "ChartPoints.of", _size),
    ("quadrature.displacements", "quadrature", "ChartPoints.shifted", None),
]

# Counting Dual constructions nearly doubles the time of scalar-heavy runs, so
# it runs in a pass of its own and never shares a call with span timing.
DUAL_COUNTER = [("ad.dual_new", "ad", "Dual.__init__", None)]


class Tracer:
    """Span stack, counters and the patches that feed them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- wrappers -------------------------------------------------------------
    def span(self, name: str, fn, points=None):
        """Wrap fn so each call records a span, with a parent link to the
        span open when it was called."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if points is not None:
                rec[4] = points(result)
            return result

        return wrapper

    def counter(self, name: str, fn, points=None):
        """Wrap fn so each call adds its points (or 1) to counts[name]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if points is None else points(result)
            return result

        return wrapper

    # --- patching -------------------------------------------------------------
    def install(self, table, make) -> None:
        """Patch every target of table with make(name, fn, points).  A target
        the program no longer has is listed in ``missing`` and reads 0."""
        for name, module, attr, points in table:
            owner_name, _, member = attr.rpartition(".")
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None or member not in vars(owner):
                self.missing.append(f"{module}.{attr}")
            elif owner_name:
                self._patch_method(owner, member, lambda fn: make(name, fn, points))
            else:
                original = vars(owner)[member]
                self._patch_function(original, make(name, original, points))

    def _patch_function(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, member: str, wrap) -> None:
        original = cls.__dict__[member]
        if isinstance(original, classmethod):
            patched = classmethod(wrap(original.__func__))
        else:
            patched = wrap(original)
        self._patches.append((cls, member, original))
        setattr(cls, member, patched)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_stats(spans) -> dict:
    """Per span name: calls, total_s, self_s and points.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for idx, (name, _, start, end, points) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child[idx]
        st["points"] += points
    return out


def _rate(points: int, seconds: float) -> float:
    return points / seconds if seconds > 0.0 else 0.0


def layer_metrics(stats: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced call, by name.

    ``cli`` is the root span around the scenario call; ``ad.dual_new`` comes
    from the separate counting pass and is added by the caller."""

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for name in ("metric.metric_jets", "metric.fiber_volume_form"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.points"] = get(name, "points")
        out[f"{name}.self_s"] = get(name, "self_s")
        out[f"{name}.points_per_s"] = _rate(get(name, "points"), get(name, "self_s"))
    for name in ("metric.fundamental", "metric.cartan", "connection.bundle_tensors",
                 "connection.pi", "connection.omega", "chern_forms.volume",
                 "algebra.bigraded_product", "topology.find_zeros"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    tensors = get("connection.bundle_tensors", "calls")
    out["connection.tensor_cache_hit_ratio"] = (
        1.0 - get("metric.metric_jets", "calls") / tensors if tensors else 0.0)
    out["chern_forms.dlog_volume.calls"] = get("chern_forms.dlog_volume", "calls")
    out["chern_forms.dlog_volume.total_s"] = get("chern_forms.dlog_volume", "total_s")
    base = counts["quadrature.base_points"]
    out["chern_forms.fiber_evals_per_point"] = (
        get("metric.fiber_volume_form", "points") / base if base else 0.0)
    for name in ("algebra.exp_truncated", "algebra.pfaffian", "algebra.berezin"):
        out[f"{name}.calls"] = get(name, "calls")
    out["quadrature.base_points"] = base
    out["quadrature.displacements"] = counts["quadrature.displacements"]
    out["quadrature.base_integral_excised.self_s"] = get("quadrature.base_integral_excised", "self_s")
    out["manifolds.install_metric.self_s"] = get("manifolds.install_metric", "self_s")
    out["cli.self_s"] = get("cli", "self_s")
    return out
