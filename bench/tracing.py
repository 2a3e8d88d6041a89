"""Spans around chordnoise's public calls, recorded from outside the package.

`instrument` rebinds every public function of the package's modules, in
the module that defines it and in every module that imported it (the cli
binds its own names), to a wrapper that records a span. Nothing under
src/ changes, and restoring puts the original bindings back. Spans stay in
memory as (name, start, end, parent, task) and are written out once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("phasespace", "states", "channels", "dynamics", "spectral", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.task = None

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.task)

        return traced

    @contextlib.contextmanager
    def instrument(self, package, task):
        """Trace every public chordnoise function for the duration of one task."""
        modules = [getattr(package, layer) for layer in LAYERS]
        names = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    names[obj] = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
        saved = []
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(names[obj], obj))
        self.task = task
        try:
            yield
        finally:
            self.task = None
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def task_totals(spans, task) -> dict:
    """Per span name: total seconds, self seconds and call count within one task.

    Self time is a span's duration minus the durations of its direct
    children. 'cli.library_s' is the time of the outermost library spans
    that a cli span encloses, so cli self time is cli.main minus it.
    """
    total = defaultdict(float)
    child = defaultdict(float)
    count = defaultdict(int)
    in_cli = 0.0
    for name, start, end, parent, t in spans:
        if t != task:
            continue
        dur = end - start
        total[name] += dur
        count[name] += 1
        if parent is not None:
            pname = spans[parent][0]
            child[pname] += dur
            if layer(pname) == "cli" and layer(name) != "cli":
                in_cli += dur
    return {
        "total_s": dict(total),
        "self_s": {name: total[name] - child[name] for name in total},
        "calls": dict(count),
        "cli_library_s": in_cli,
    }
