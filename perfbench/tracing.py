"""In-memory spans for the traced benchmark run.

A span records a layer name, start and end (perf_counter seconds), the
span that was open when it started, the job id and a dict of counts. Spans
stay in memory and are written out once, when the run ends.

`interpose` swaps the listed public functions of pathnorm's modules for
timing wrappers, in every pathnorm module that holds a reference to them,
so a call is seen whether the benchmark makes it or another layer does
(rewrite_to_relu calling approximate_activation, say). Nothing is patched
in an untraced run, and `restore` puts the originals back; the package's
source is not touched.
"""

import functools
import json
import statistics
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def interposed(self, layers):
        patched = interpose(self, layers)
        try:
            yield
        finally:
            restore(patched)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Tracing off: spans cost one generator and record nothing."""

    job = None

    @contextmanager
    def span(self, name, **counts):
        yield counts

    @contextmanager
    def interposed(self, layers):
        yield


def interpose(tracer, layers):
    """Wrap each (module, function name, layer name, count fn) in `layers`.

    count fn maps (args, kwargs, result) to a dict of counts stored on the
    span. Returns the list of (module, attribute, original) to restore.
    """
    patched = []
    for module, fname, layer, count in layers:
        original = getattr(module, fname)
        wrapper = _wrap(tracer, original, layer, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("pathnorm"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
    return patched


def restore(patched):
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


def _wrap(tracer, fn, layer, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer) as counts:
            result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, kwargs, result))
        return result

    return wrapper


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans of one thread nest and do not overlap, so the covered part is
    the sum of the children's durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_stats(spans):
    """Layer name -> {calls, busy_s (self time), p50_ms, durations, counts}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        st = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "durations": [], "spans": []})
        st["calls"] += 1
        st["busy_s"] += own[s["id"]]
        st["durations"].append(s["end"] - s["start"])
        st["spans"].append(s)
    for st in out.values():
        st["p50_ms"] = statistics.median(st["durations"]) * 1e3
    return out


def total(stats, layer, key):
    st = stats.get(layer)
    return sum(s["counts"].get(key, 0) for s in st["spans"]) if st else 0
