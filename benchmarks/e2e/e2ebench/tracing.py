"""Spans recorded from outside the program.

The tracer wraps *bound methods of live instances* (``db.manager``,
``manager.catalog``, ...) by setting an instance attribute that shadows
the class's method, so it depends on which objects exist at run time
and what their public methods are called, never on import paths: a
module split does not break it, and a method that no longer exists is
listed under :attr:`Tracer.untraced` instead of raising.

A span is one call of one wrapped method: its layer, its name, start,
end, the span that caused it, and the op it belongs to.  A layer's
*self time* is the sum over its spans of ``duration - time covered by
child spans`` — nested and adjacent children both subtract, and a child
of the same layer moves time between two spans of that layer without
changing the layer's total.

Spans stay in memory (aggregates always, raw spans up to
:data:`SPAN_CAP`) and are written out by :meth:`Tracer.dump` when the
run ends.  The store is driven by one client thread with serial
workers; a wrapped method called from another thread would start its
own stack and its time would stay in its caller's self time.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

#: Raw spans kept for the trace file; aggregates cover every span.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._next_id = 0
        self._op = 0
        self._roots: dict = {}
        #: Cleared when the measured phase ends: wrapped methods then
        #: pass straight through, so read-back and teardown add no spans.
        self.active = True
        #: layer -> [self seconds, calls]
        self.layers: dict[str, list] = {}
        #: (layer, method) -> [self seconds, total seconds, calls]
        self.methods: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.untraced: list[str] = []

    # ------------------------------------------------------------------
    # Attaching
    # ------------------------------------------------------------------
    def wrap(self, obj, layer: str, names) -> None:
        """Record a span around each named public method of ``obj``.

        ``obj`` may be None (the attribute that held it is gone): every
        name then lands in :attr:`untraced`, as does any name that is
        missing, not callable, or cannot be shadowed on the instance.
        """
        for name in names:
            method = getattr(obj, name, None)
            if not callable(method):
                self.untraced.append(f"{layer}.{name}")
                continue
            try:
                setattr(obj, name, self._wrapped(method, layer, name))
            except AttributeError:  # __slots__ / read-only instance
                self.untraced.append(f"{layer}.{name}")

    def _wrapped(self, method, layer: str, name: str):
        clock = self._clock
        layer_total = self.layers.setdefault(layer, [0.0, 0])
        method_total = self.methods.setdefault((layer, name),
                                               [0.0, 0.0, 0])

        def traced(*args, **kwargs):
            if not self.active:
                return method(*args, **kwargs)
            stack = self._stack()
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                layer_total[0] += own
                layer_total[1] += 1
                method_total[0] += own
                method_total[1] += duration
                method_total[2] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, self._op, layer,
                                       name, start, end))

        return traced

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def run(self, kind: str, call):
        """Run one benchmark op under a root span: every span opened
        inside shares its op number, and the root's own self time is
        the harness's (it is reported under the ``op`` layer)."""
        root = self._roots.get(kind)
        if root is None:
            root = self._roots[kind] = self._wrapped(
                lambda fn: fn(), "op", kind)
        self._op += 1
        return root(call)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_seconds(self, *layers: str) -> float:
        return sum(self.layers.get(layer, (0.0, 0))[0] for layer in layers)

    def calls(self, layer: str, name: str | None = None) -> int:
        if name is None:
            return self.layers.get(layer, (0.0, 0))[1]
        return self.methods.get((layer, name), (0.0, 0.0, 0))[2]

    def summary(self) -> dict:
        layers = {}
        for layer, (own, calls) in sorted(self.layers.items()):
            layers[layer] = {
                "self_s": own, "calls": calls,
                "methods": {
                    name: {"self_s": m_own, "total_s": m_total,
                           "calls": m_calls}
                    for (m_layer, name), (m_own, m_total, m_calls)
                    in sorted(self.methods.items())
                    if m_layer == layer and m_calls},
            }
        return {"layers": layers, "untraced": sorted(self.untraced)}

    def dump(self, path: Path, meta: dict) -> None:
        """Write aggregates and the kept raw spans as one JSON file."""
        origin = min((span[5] for span in self.spans), default=0.0)
        document = {
            "meta": meta,
            **self.summary(),
            "span_fields": ["id", "parent", "op", "layer", "name",
                            "start_us", "end_us"],
            "spans_kept": len(self.spans),
            "spans_total": self._next_id,
            "spans": [
                [span_id, parent, op, layer, name,
                 round((start - origin) * 1e6, 3),
                 round((end - origin) * 1e6, 3)]
                for span_id, parent, op, layer, name, start, end
                in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))

