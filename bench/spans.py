"""Spans recorded from outside the program, by wrapping module attributes.

A :class:`Tracer` replaces a public function of a ``peergrade`` module with a
wrapper that opens a span around each call.  Modules that bound the function
with ``from .x import f`` hold their own reference, so the tracer rebinds the
function in every ``peergrade`` module that refers to it: the wrapper sits
wherever the program looks the function up.  Spans are kept in memory with a
link to the span that was open when they started, and written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; single-threaded, so the open spans form a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.trace_id = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.trace_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, package: str, module: str, attr: str, name: str,
             attrs: Optional[Callable] = None) -> None:
        """Trace ``package.module.attr`` at every binding inside ``package``.

        ``attrs(args, kwargs, result)`` may return extra span attributes; it
        runs after the span has closed, so its cost is not in the span.
        """
        original = getattr(sys.modules[f"{package}.{module}"], attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        self._patches += rebind(package, original, traced)

    def restore(self) -> None:
        """Put every wrapped function back where it was found."""
        unbind(self._patches)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def rebind(package: str, original, replacement) -> list[tuple[object, str, object]]:
    """Replace ``original`` by ``replacement`` in every module of ``package``.

    Returns the patches made, for :func:`unbind`.
    """
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, key, original))
                setattr(mod, key, replacement)
    return patches


def unbind(patches: list[tuple[object, str, object]]) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential, so children of one span never overlap.
    """
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out
