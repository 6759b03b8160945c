"""Spans around the solver's layers, recorded from outside the package.

`installed(tracer)` rebinds the module attributes that `fbrs_solve` and
`run_sequence` look up at call time (for example `fbrs.newton.assemble_system`
or `scipy.linalg.cho_factor`) to timing wrappers, and restores the originals
on exit. Nothing inside `fbrs` is edited. An attribute that a later version of
the package no longer has is skipped, so its layer reads zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute) pairs rebound during a traced solve; the span name is
# the attribute name.
TRACED = (
    ("fbrs.newton", "residual_map"),
    ("fbrs.newton", "natural_residual"),
    ("fbrs.newton", "assemble_system"),
    ("fbrs.newton", "fb_coefficients"),
    ("fbrs.newton", "phi_eps"),
    ("fbrs.newton", "linesearch"),
    ("fbrs.newton", "merit"),
    ("fbrs.newton", "merit_gradient"),
    ("fbrs.newton", "solve_condensed"),
    ("fbrs.newton", "solve_full"),
    ("scipy.linalg", "cho_factor"),
    ("scipy.linalg", "cho_solve"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg", "lu_solve"),
    ("fbrs.mpc", "condense"),
    ("fbrs.mpc", "fbrs_solve"),
)


# Raw spans kept for `Tracer.write`; the per-name totals cover every span.
KEEP_SPANS = 100_000


class Tracer:
    """In-memory spans with online per-name totals.

    Every span adds to `stats[name] = [calls, total_s, self_s, errors]` and to
    `pairs[(parent, name)]`; self time is the span's duration minus the time
    covered by its direct children. The first KEEP_SPANS spans are also kept
    raw as [name, start, end, parent_index] for `write`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}
        self.pairs: Counter = Counter()
        self._stack: list[list] = []  # open frames: [name, child_s, span_index]

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = -1
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[2] if parent else -1])
        else:
            self.dropped += 1
        frame = [name, 0.0, index]
        self._stack.append(frame)
        failed = True
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if index >= 0:
                self.spans[index][1:3] = (start, end)
            st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[1]
            st[3] += failed
            if parent is not None:
                parent[1] += duration
            self.pairs[(parent[0] if parent else None, name)] += 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def errors(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def write(self, path) -> None:
        """Dump the per-name counts and the kept raw spans as JSON."""
        payload = {
            "stats": {k: dict(zip(("calls", "total_s", "self_s", "errors"), v)) for k, v in self.stats.items()},
            "pairs": [[p, c, n] for (p, c), n in sorted(self.pairs.items(), key=str)],
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind every attribute in TRACED to a wrapper feeding `tracer`."""
    saved = []
    try:
        for module_name, attr in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(tracer, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
