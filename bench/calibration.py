"""A fixed kernel, timed between the benchmark's operations, that scales a
run's times to a reference machine speed.

The benchmark runs on a few cores of a shared host. The speed the host gives
them drifts by a third or more over seconds to minutes, so raw times of the
same code differ more between runs than a regression bound allows. The
kernel below does the interpreter-bound work that cv_small and
predict_batch spend their time on (float parsing and formatting, many
small numpy calls) on fixed data, and no package code. A run of those
workloads samples it around its set-ups and after every operation, and
its times are multiplied by ``REFERENCE_S / median sample``. A slow spell
slows the kernel samples taken during it too, and cancels out, while a
change to the package moves the operations but not the kernel. fit_large,
dominated by dense n x n algebra, does not track the kernel and is left
unscaled.

The host also takes the virtual CPU away at times, for other guests; a
process's wall time then grows while its CPU time does not. The kernel's
per-sample median drops the calls this hits, so operations leave out that
time too: ``steal_seconds`` reads the host's running total of it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Wall seconds of one kernel call at the reference speed: the median on the
# 2-vCPU machine the bounds were set on. It only sets the scale of the
# reported seconds; scaled and raw times agree when the machine runs at
# that speed.
REFERENCE_S = 0.006

# Kernel calls per sample; a sample is their median, which drops a call
# that an interrupt or a page fault happened to hit.
CALLS_PER_SAMPLE = 5

_rng = np.random.default_rng(20160523)
_LINES = [",".join(repr(float(v)) for v in row) for row in _rng.standard_normal((200, 20))]
_FACTOR = _rng.standard_normal((10, 10))
_GRAM = _FACTOR @ _FACTOR.T + np.eye(10)
_RHS = _rng.standard_normal(10)


def kernel() -> float:
    """Parse and re-format a small feature CSV, as the CLI does, then take
    150 projected-gradient steps on a 10-variable box QP, which makes many
    small numpy calls, as the trainer's QP solves do."""
    rows = [[float(cell) for cell in line.split(",")] for line in _LINES]
    table = np.array(rows)
    total = len("\n".join(",".join(repr(float(v)) for v in row) for row in table[:50]))
    x = np.zeros(len(_RHS))
    for _ in range(150):
        gradient = _GRAM @ x - _RHS
        x = np.clip(x - 0.05 * gradient, -1.0, 1.0)
        total += float(np.abs(gradient).max())
    return total


def steal_seconds() -> float:
    """Seconds of CPU time the host has taken from this machine's virtual
    CPUs since boot (the ``steal`` column of /proc/stat), or 0 where the
    system does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Calibration:
    """Kernel samples of one run: median wall and CPU seconds of a call.
    A disabled calibration takes no samples and scales by 1."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, seconds: float = 0.0):
        """Take samples for ``seconds``, and at least one."""
        if not self.enabled:
            return
        started = time.perf_counter()
        while True:
            walls, cpus = [], []
            for _ in range(CALLS_PER_SAMPLE):
                cpu0, wall0 = time.process_time(), time.perf_counter()
                kernel()
                walls.append(time.perf_counter() - wall0)
                cpus.append(time.process_time() - cpu0)
            self.wall.append(statistics.median(walls))
            self.cpu.append(statistics.median(cpus))
            if time.perf_counter() - started >= seconds:
                return

    def wall_scale(self) -> float:
        """Factor that turns this run's wall seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.wall) if self.enabled else 1.0

    def cpu_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.cpu) if self.enabled else 1.0
