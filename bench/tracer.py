"""In-memory spans around calls into condreach's layers.

A span is recorded by wrapping a function at the name its caller looks
it up by (a module global or a class attribute), so the package itself
is not changed.  Spans stay in memory until the run ends; self time is a
span's duration minus the durations of its direct children.

Spans live in flat typed arrays rather than one Python object each: an
invent1 section makes about 700,000 spans, and as objects they kept the
cyclic garbage collector busy enough to add a third to the traced time.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # Per span: name id, parent span (-1 at the top), start, end, and
        # the growth of a watched size over the call (0 when unwatched).
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.growth = array("q")
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, watch=None):
        """Replace owner.attr by a wrapper that records a span per call.

        watch(args) returns a size read before and after each call; the
        span keeps its growth.
        """
        fn = getattr(owner, attr)
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts = self.name, self.parent, self.start
        ends, growth, stack = self.end, self.growth, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            growth.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = watch(args) if watch is not None else 0
            starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if watch is not None:
                    growth[idx] = watch(args) - before

        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)

    def restore(self):
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def totals(self):
        """Per span name: [calls, seconds, self seconds]."""
        durations = self.durations()
        self_s = list(durations)
        for parent, d in zip(self.parent, durations):
            if parent >= 0:
                self_s[parent] -= d
        out = {}
        for nid, d, own in zip(self.name, durations, self_s):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += own
        return out

    def write_csv(self, path):
        """All spans, one per line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,growth\n")
            for i, (nid, parent, s, e, g) in enumerate(zip(
                self.name, self.parent, self.start, self.end, self.growth
            )):
                fh.write(f"{i},{parent},{self.names[nid]},{s!r},{e!r},{g}\n")
