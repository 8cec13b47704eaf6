"""In-memory span recorder that wraps the library's public functions.

A span is one call to a public function: its name, the module whose
attribute the caller resolved (``caller``), start and end on the
``perf_counter`` clock, the index of the enclosing span (-1 at top level),
the id of the benchmark op it belongs to, and the units of work the call
handled when the wrapper was given a way to count them. Wrappers replace
module attributes such as ``recolor.reconfig.beta_core``, so calls made
inside the library nest under their callers without any change to the
library. They are installed only for the traced run and always removed
afterwards. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

_NAME, _CALLER, _START, _END, _PARENT, _OP, _UNITS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, caller, start, end, parent, op, units]
        self.op = -1
        self.enabled = False
        self._stack = []
        self._patched = []   # (module, attr, original)

    @contextlib.contextmanager
    def span(self, name: str, caller: str = "bench"):
        """Record one span around the body of a ``with`` block; yields it."""
        stack = self._stack
        span = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        try:
            yield span
        finally:
            span[_END] = time.perf_counter()
            stack.pop()

    def install(self, module, attr: str, name: str, units=None) -> None:
        """Replace ``module.attr`` with a wrapper recording spans ``name``;
        ``units(args, result)``, if given, counts the work of one call."""
        fn = getattr(module, attr)
        caller = module.__name__.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, caller) as span:
                result = fn(*args, **kwargs)
            if units is not None:
                span[_UNITS] = units(args, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        self.enabled = False

    def self_times(self) -> list:
        """Per span, its duration minus the durations of its direct children."""
        own = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def summary(self, ops=None) -> dict:
        """{(name, caller): [calls, total_s, self_s, units]}, optionally
        restricted to the spans of some ops."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for s, own in zip(self.spans, self.self_times()):
            if ops is None or s[_OP] in ops:
                row = out[(s[_NAME], s[_CALLER])]
                row[0] += 1
                row[1] += s[_END] - s[_START]
                row[2] += own
                row[3] += s[_UNITS]
        return dict(out)

    def calls_under(self, name: str, ancestor: str, ops) -> int:
        """Spans called ``name`` inside a span called ``ancestor``."""
        n = 0
        for s in self.spans:
            if s[_NAME] == name and s[_OP] in ops:
                p = s[_PARENT]
                while p >= 0 and self.spans[p][_NAME] != ancestor:
                    p = self.spans[p][_PARENT]
                n += p >= 0
        return n

    def write(self, path) -> None:
        """Write one JSON object per span, with its self time."""
        keys = ("name", "caller", "start", "end", "parent", "op", "units")
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
                row = dict(zip(keys, s), id=i, self=own)
                fh.write(json.dumps(row) + "\n")
