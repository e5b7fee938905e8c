"""Timing of an iteration's steps, raw and normalised by the reference kernel."""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Iteration:
    phases: dict[str, float]
    normalised: dict[str, float]
    output: bytes
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())


class Clock:
    """Times the steps of one iteration, each under an end-to-end phase.

    ``kernel`` (untraced runs) is the reference kernel: it runs after every
    step, outside the timed interval, and each step is also recorded divided
    by the mean of the kernel times before and after it, in units of
    ``nominal_s``.  ``last`` is the kernel time measured just before the
    first step.  ``span`` (traced runs) opens a span around each labelled
    step.
    """

    def __init__(self, kernel=None, nominal_s: float = 1.0, last: float = 0.0, span=None):
        self.kernel, self.nominal_s, self.last, self.span = kernel, nominal_s, last, span
        self.phases: dict[str, float] = {}
        self.normalised: dict[str, float] = {}

    @contextlib.contextmanager
    def step(self, phase: str, label: str = ""):
        spanned = self.span(label) if self.span and label else contextlib.nullcontext()
        t0 = time.perf_counter()
        with spanned:
            yield
        took = time.perf_counter() - t0
        self.phases[phase] = self.phases.get(phase, 0.0) + took
        if self.kernel is not None:
            now = self.kernel()
            scaled = took * 2 * self.nominal_s / (self.last + now)
            self.normalised[phase] = self.normalised.get(phase, 0.0) + scaled
            self.last = now

    def iteration(self, output: bytes, problems=(), notes=()) -> Iteration:
        return Iteration(dict(self.phases), dict(self.normalised), output,
                         list(problems), list(notes))
