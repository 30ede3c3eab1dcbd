"""Outside-in span tracer for the goa benchmark.

The tracer never edits goa. It replaces public functions with wrappers
that record one span per call (name, parent span, start, end, attributes),
and rebinds every module attribute that pointed at the original, so a name
imported with ``from .designs import check_strength`` is traced too.

Spans stay in memory until the pass ends. A span's self time is its
duration minus the durations of its direct children, which the wrapper
accumulates on the parent as each child closes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Span record layout: [name, parent index (-1 for a root), start, end,
# time covered by direct children, attribute dict or None].
NAME, PARENT, START, END, CHILD_S, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Return a traced stand-in for fn.

        attrs(args, kwargs, result) -> dict adds numeric attributes to the
        span after it closes; a "bucket" key names a sub-bucket that also
        receives the span's self time.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, parent, clock(), 0.0, 0.0, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[END] = end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - record[START]
            if attrs is not None:
                record[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each (owner module, attribute, span name, attrs) target and
        rebind every reference to it in the already imported goa modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "goa" or n.startswith("goa."))]
        for owner, attr, name, attrs in targets:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def count_constructions(self, cls, counter):
        """Count instances of cls built while the tracer is active."""
        init = cls.__init__

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            if self.active:
                self.counts[counter] += 1
            return init(obj, *args, **kwargs)

        cls.__init__ = counted

    def aggregate(self) -> Counter:
        """Per-name totals: calls, self_s, total_s, summed attributes,
        bucketed self time and parent>child call counts."""
        agg: Counter = Counter(self.counts)
        for name, parent, start, end, child_s, attrs in self.spans:
            duration = end - start
            self_s = duration - child_s
            agg[name + ".calls"] += 1
            agg[name + ".self_s"] += self_s
            agg[name + ".total_s"] += duration
            if parent >= 0:
                agg[self.spans[parent][NAME] + ">" + name] += 1
            for key, value in (attrs or {}).items():
                if key == "bucket":
                    agg[f"{name}.{value}.self_s"] += self_s
                else:
                    agg[f"{name}.{key}"] += value
        return agg

    def write(self, path):
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end, _, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin,
                                     "attrs": attrs}) + "\n")
