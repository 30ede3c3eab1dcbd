"""Host-speed probes: a fixed reference loop timed between operations.

On a shared host the speed of the machine drifts by a quarter or more over
tens of seconds (the sibling tenants' load), far more than one pass can
average out. Each stretch of work between two probes is divided by the
local loop time and multiplied by REF_LOOP_S. The result is the time the
work would take on a host where the loop takes REF_LOOP_S: reference
seconds. The drift cancels out of it, and what a program change does to its
own speed stays in. A single loop time is itself noisy (a preempted probe
can take four times as long), so the local loop time is the median of the
WINDOW probes nearest the stretch. Probe time is excluded from every figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_LOOP_ROUNDS = 1200
REF_LOOP_S = 0.010  # about what the loop takes on a quiet 2-core Xeon VM
WINDOW = 6  # probes; taken in threes around a pass and around set-up

# The loop has the instruction mix of goa's hot paths: a small numpy count
# per round, as check_strength does per column tuple, and Python-level
# integer arithmetic, as the alg42 restart scan does.
_A = np.arange(243) % 3
_B = (np.arange(243) // 3) % 3


def loop_sample() -> tuple[float, float]:
    """Run the reference loop once; returns its (start, end) perf_counter."""
    start = time.perf_counter()
    acc = 0
    for _ in range(REF_LOOP_ROUNDS):
        np.bincount(_A * 3 + _B, minlength=9)
        for j in range(50):
            acc += j * j % 7
    return start, time.perf_counter()


def loop_samples() -> list[tuple[float, float]]:
    """Half a window of probes, for the start or the end of a stretch."""
    return [loop_sample() for _ in range(WINDOW // 2)]


def to_reference(seconds: float, samples) -> float:
    """Scale seconds of work to reference seconds by the median loop time."""
    return seconds * REF_LOOP_S / statistics.median(end - start for start, end in samples)


class SpeedProbe:
    """Probes taken around one pass and, unless between_ops is False,
    between its operations."""

    def __init__(self, between_ops: bool):
        self.between_ops = between_ops
        self.samples: list[tuple[float, float]] = []

    def __call__(self):
        """The probe between operations."""
        if self.between_ops:
            self.samples.append(loop_sample())

    def bracket(self):
        """The probes at the start and at the end of a pass."""
        self.samples += loop_samples()

    def probe_s(self) -> float:
        return sum(end - start for start, end in self.samples)

    def work_s(self) -> float:
        """Time between the first and last probe, without the probes."""
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    def reference_s(self) -> float:
        """work_s in reference seconds, stretch by stretch."""
        half = WINDOW // 2
        return sum(to_reference(b[0] - a[1], self.samples[max(0, k + 1 - half):k + 1 + half])
                   for k, (a, b) in enumerate(zip(self.samples, self.samples[1:])))
