"""Layer tracing from outside the library.

Each public function of a traced module is wrapped and the wrapper is bound
under every module-global name that referred to the original, in the
defining module and in every module that imported it.  Module globals are
looked up at call time, so intra-module and cross-module calls both go
through the wrapper and ``src/`` stays untouched.

A layer is a module; a span is one call of one of its public functions.  A
span's self time is its duration minus the durations of the wrapped calls
it made.  Inner helpers are counted but not timed, and their time stays in
the caller's self time: the Horner, determinant and index-check kernels run
tens of thousands of times per request for a few microseconds each, so a
timer would swamp them, and the coefficient-vector helpers are the
arithmetic of the backward pass and the forward recurrence that call them.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "inversesolver", "poly", "recurrence", "matrixkit", "spectral")

COUNT_ONLY = {
    "poly.poly_eval",
    "matrixkit.determinant",
    "matrixkit.check_index_set",
    "poly.lin_comb",
    "poly.shift_up",
    "poly.with_parity",
    "poly.parity_of_degree",
}

# Individual spans kept in memory for the span file; the aggregates cover all.
SPAN_RECORD_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id)
        self.dropped = 0
        self._stack: list[list] = []  # [span id, child seconds, request id]
        self._next_id = 0

    def _timed(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            frame = [sid, 0.0, stack[0][2] if stack else sid]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_RECORD_LIMIT:
                    spans.append((sid, name, start, end, parent, frame[2]))
                else:
                    self.dropped += 1

        return traced

    def _counted(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])

        def counted(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every public function of every traced layer; restore on exit."""
        package = sys.modules["antibidiag"]
        modules = [package] + [
            m for name, m in sys.modules.items() if name.startswith("antibidiag.")
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"antibidiag.{layer}"]
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{fname}"
                wrap = self._counted if name in COUNT_ONLY else self._timed
                wrappers[id(fn)] = (fn, wrap(name, fn))
        restore = []
        for module in modules:
            for gname, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    restore.append((module, gname, obj))
                    setattr(module, gname, wrappers[id(obj)][1])
        try:
            yield self
        finally:
            for module, gname, obj in restore:
                setattr(module, gname, obj)

    def layer_self(self):
        """Total self seconds per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("id", "name", "start_s", "end_s", "parent", "request"))
            w.writerows(self.spans)
