"""In-memory span tracer that wraps functions by identity at module attributes.

A span records a name, a start and end time (process CPU clock, the clock the
benchmark times cells with), the index of its parent span and the benchmark
cell it ran in.  Wrappers are installed at every attribute of
the selected modules that holds a target function (so a function imported
into several modules is traced wherever it is called from) and are removed
again when the ``installed`` context ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``observers[name](args, kwargs, result)`` adds counts to a span."""

    def __init__(self, observers=None):
        self.spans: list[Span] = []
        self.cell: int | None = None
        self.observers = observers or {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.cell)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.process_time()
                self._stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        return traced


def module_attributes(prefix: str):
    """(module, attribute, value) for every attribute of the loaded ``prefix`` modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            yield mod, attr, value


@contextlib.contextmanager
def installed(tracer: Tracer, targets, prefix: str):
    """Replace each target function by its traced wrapper for the duration.

    ``targets`` pairs function objects with span names.  Every module
    attribute under ``prefix`` that *is* one of the functions is patched, and
    every patched attribute is restored on exit.
    """
    by_id = {id(fn): (fn, tracer.wrap(name, fn)) for fn, name in targets}
    patched = []
    try:
        for mod, attr, value in module_attributes(prefix):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
        yield patched
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.seconds - covered)
    return out
