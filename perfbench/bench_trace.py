"""Per-layer timing of the cxtcat package, installed from outside.

``LayerTracer.install()`` replaces the public functions, methods,
classmethods, cached properties and ``__post_init__`` validators of each
layer module with wrappers that count calls and time them;
``restore()`` puts the exact original objects back.  A function imported by
name into other cxtcat modules (``from .canon import set_id``) is replaced
in every module that holds it, so calls across layers are seen too.

Nothing is recorded per call: each wrapped function keeps a call count, its
self time (duration minus the time of wrapped callees) and its inclusive
time.  Memory therefore stays bounded however often a leaf such as
``FinitePoset.le`` or ``set_id`` runs.  Everything runs in one thread, so no
layer ever waits on another and no wait time exists to report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from functools import cached_property

# Layer = module of the package, in the order reports list them.
LAYERS = (
    "cli",
    "formats",
    "context",
    "kernels",
    "canon",
    "order",
    "mappings",
    "category",
    "logic",
    "topology",
    "laws",
    "corpus",
)

# Private module functions that are wrapped because a metric needs them.
_PRIVATE_TARGETS = {"corpus": ("_rejection",)}

_ORDER_VALIDATORS = tuple(
    f"order.{cls}.__post_init__"
    for cls in ("FinitePoset", "JoinSemilattice", "MeetSemilattice", "FiniteLattice")
)
_CANON_IDS = ("canon.set_id", "canon.pair_id", "canon.pair_set_id")
_CLOSED_MASKS = ("kernels.closed_masks_powerset", "kernels.closed_masks_saturate")
_FS_CLOSURE = "category.FunctionSpaceContext.closure"
# Thin delegators to FinitePoset.le, which counts every comparison; wrapping
# them too would double the tracing cost of the most frequent call.
_SKIP = ("order.JoinSemilattice.le", "order.MeetSemilattice.le", "order.FiniteLattice.le")
_AM_VALIDATE = "mappings.ApproximableMapping.__post_init__"


class LayerTracer:
    """Wraps the layer modules of one imported cxtcat and aggregates timings."""

    def __init__(self):
        # Time covered by finished wrapped calls.  A call's callees advance it
        # while the call runs; the call then rewinds it and adds its own
        # duration, so no per-call frame is kept.
        self._covered = [0]
        self.stats: dict[str, list] = {}  # key -> [layer, calls, self_ns, incl_ns]
        self.patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.closed_sets = 0
        self.fs_closure_new = 0
        self._fs_seen: dict[int, tuple[object, set]] = {}
        self.formats_bytes_out = 0
        self.corpus_attempts = 0
        self.corpus_accepts = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, post=None):
        stat = self.stats.setdefault(key, [layer, 0, 0, 0])
        covered = self._covered
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            before = covered[0]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nested = covered[0] - before  # time of wrapped callees
                covered[0] = before + dur
                stat[1] += 1
                stat[2] += dur - nested
                stat[3] += dur
            if post is not None:
                post(args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _post_for(self, key: str):
        if key in _CLOSED_MASKS:
            return self._count_closed_sets
        if key == _FS_CLOSURE:
            return self._count_fs_closure
        if key.startswith(("formats.dump_", "formats.dot_")):
            return self._count_bytes_out
        return None

    def _count_closed_sets(self, args, out):
        self.closed_sets += len(out)

    def _count_fs_closure(self, args, out):
        fs = args[0]
        _, seen = self._fs_seen.setdefault(id(fs), (fs, set()))
        if out not in seen:
            seen.add(out)
            self.fs_closure_new += 1

    def _count_bytes_out(self, args, out):
        self.formats_bytes_out += len(out.encode("utf-8"))

    def _counting_rejection(self, original):
        tracer = self

        def _rejection(rng, build, tries=200):
            def counted():
                out = build()
                tracer.corpus_attempts += 1
                tracer.corpus_accepts += out is not None
                return out

            return original(rng, counted, tries)

        return functools.update_wrapper(_rejection, original)

    def install(self) -> None:
        """Wrap every target of every layer of the currently imported cxtcat."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items() if n == "cxtcat" or n.startswith("cxtcat.")]
        replaced: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"cxtcat.{layer}"]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name.startswith("_") and name not in _PRIVATE_TARGETS.get(layer, ()):
                        continue
                    key = f"{layer}.{name}"
                    inner = self._counting_rejection(obj) if key == "corpus._rejection" else obj
                    replaced[id(obj)] = (obj, self._wrap(inner, layer, key, self._post_for(key)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for mod in package:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _install_class(self, cls, layer: str) -> None:
        for name, val in list(vars(cls).items()):
            if name.startswith("_") and name != "__post_init__":
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if key in _SKIP:
                continue
            post = self._post_for(key)
            if inspect.isfunction(val):
                new = self._wrap(val, layer, key, post)
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(val.__func__, layer, key, post))
            elif isinstance(val, cached_property):
                new = cached_property(self._wrap(val.func, layer, key, post))
                new.__set_name__(cls, name)
            else:
                continue
            self.patches.append((cls, name, val))
            setattr(cls, name, new)

    def restore(self) -> None:
        """Put back the exact original objects, newest patch first."""
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def end_op(self) -> None:
        """Forget per-op state; function-space instances do not outlive an op."""
        self._fs_seen.clear()

    @property
    def wrapped_ns(self) -> int:
        """Total time spent inside outermost wrapped calls."""
        return self._covered[0]

    # -- reporting ----------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for s in self.stats.values() if s[0] == layer) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(s[1] for s in self.stats.values() if s[0] == layer)

    def per_layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """The per-layer metrics, each as ``{"value": ..., "unit": ...}``."""

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self_s(layer), "s")
        out["bench.self_s"] = (traced_wall_s - self.wrapped_ns / 1e9, "s")
        closure_calls = self.calls("context.attr_closure")
        out["context.attr_closure.calls"] = (closure_calls, "count")
        out["context.attr_closure_per_closed_set"] = (ratio(closure_calls, self.closed_sets), "ratio")
        out["canon.id.calls"] = (self.calls(*_CANON_IDS), "count")
        out["kernels.closure_mask.calls"] = (self.calls("kernels.closure_mask"), "count")
        out["kernels.closed_masks.calls"] = (self.calls(*_CLOSED_MASKS), "count")
        out["kernels.monotone_maps.calls"] = (self.calls("kernels.monotone_maps"), "count")
        out["order.validate.calls"] = (self.calls(*_ORDER_VALIDATORS), "count")
        out["order.le.calls"] = (self.calls("order.FinitePoset.le"), "count")
        out["order.ideal_completion.calls"] = (self.calls("order.ideal_completion"), "count")
        am_calls = self.calls(_AM_VALIDATE)
        am_ns = self.stats.get(_AM_VALIDATE, [None, 0, 0, 0])[3]
        out["mappings.validate.calls"] = (am_calls, "count")
        out["mappings.validate_us_per_mapping"] = (ratio(am_ns / 1e3, am_calls), "us")
        out["mappings.enumerate.calls"] = (self.calls("mappings.enumerate_mappings"), "count")
        fs_calls = self.calls(_FS_CLOSURE)
        out["category.fs_closure.calls"] = (fs_calls, "count")
        out["category.fs_closure_new_ratio"] = (ratio(self.fs_closure_new, fs_calls), "ratio")
        out["corpus.accept_ratio"] = (ratio(self.corpus_accepts, self.corpus_attempts), "ratio")
        out["formats.calls"] = (self.layer_calls("formats"), "count")
        out["formats.bytes_out"] = (self.formats_bytes_out, "B")
        out["trace.overhead_ratio"] = (ratio(traced_wall_s, untraced_wall_s), "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
