"""Span tracer for the ymvac package, installed from outside the package.

`Tracer.install()` wraps every public module-level function of the layer
modules and rebinds every reference to it in the package's modules, so a
call from one module into another (`from .bps_profiles import f01_bps`) is
traced too.  Each call records a span: name, start, end, parent span, report
id and whether it raised.  `uninstall()` puts the originals back.

Methods of classes are not wrapped: their time counts toward the layer whose
function called them, as does the time of the `algebra` helpers.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "ymvac"
LAYERS = ("cli", "bps_profiles", "topology", "greens", "rotator", "interference", "pheno")

# span tuple fields
NAME, START, END, PARENT, REPORT, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.report = -1
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.report, raised)

        return traced


def function_stats(spans: list, lo: int, hi: int) -> dict:
    """{span name: [calls, self seconds, raised]} over spans[lo:hi].

    Self time is a span's duration minus the durations of its child spans;
    the self times of all spans add up to the duration of the root spans.
    """
    child = defaultdict(float)
    for i in range(lo, hi):
        s = spans[i]
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = {}
    for i in range(lo, hi):
        s = spans[i]
        row = out.setdefault(s[NAME], [0, 0.0, 0])
        row[0] += 1
        row[1] += s[END] - s[START] - child[i]
        row[2] += s[RAISED]
    return out


def write_spans(path, spans: list, origin: float) -> None:
    """CSV of every span, times in seconds from `origin`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,parent,report,name,start_s,end_s,raised\n")
        for i, s in enumerate(spans):
            fh.write(
                f"{i},{s[PARENT]},{s[REPORT]},{s[NAME]},{s[START] - origin:.9f},{s[END] - origin:.9f},{int(s[RAISED])}\n"
            )
