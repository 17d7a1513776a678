"""The host's speed during a run, sampled on the CPU the children run on.

    python3 speed.py LOG

runs the probe: every `PERIOD_S` it times `probe_once`, a fixed mix of
pure-Python arithmetic and Python-driven numpy row and column updates on a
128 x 128 and a 12 x 12 complex matrix (the kind of work the benchmarked
program does, in code of the benchmark's own), and appends
``<CLOCK_MONOTONIC> <seconds>`` to LOG until it is killed.

On a share of a busy machine the CPU's speed can change by 2x for seconds
to minutes at a time, so raw times of the same code differ by more between
runs than a regression worth catching.  `SpeedProbe` runs the
probe pinned to the same CPU as the measured children; `SpeedProbe.scale`
turns a raw time over an interval into seconds at the reference speed, at
which `probe_once` takes `REF_PROBE_S`.  The probe takes about 5% of that
CPU, the same share in every run.  No single kind of work tracks the host's
swings in every workload, so the probe mixes three.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

PERIOD_S = 0.02
REF_PROBE_S = 1e-3
# An interval shorter than this many samples borrows the nearest ones.
MIN_SAMPLES = 9
STARTUP_TIMEOUT_S = 30.0


def _rotate(a, count: int) -> None:
    """``count`` plane rotations of ``a`` in place, on neighbouring pivots."""
    n = a.shape[0]
    for k in range(count):
        p = k % (n - 1)
        q = p + 1
        w = a[p, q] / (abs(a[p, q]) + 1.0)
        wc = w.conjugate()
        col_p = a[:, p].copy()
        col_q = a[:, q].copy()
        a[:, p] = 0.8 * col_p - (0.6 * wc) * col_q
        a[:, q] = 0.6 * col_p + (0.8 * wc) * col_q
        row_p = a[p, :].copy()
        row_q = a[q, :].copy()
        a[p, :] = 0.8 * row_p - (0.6 * w) * row_q
        a[q, :] = 0.6 * row_p + (0.8 * w) * row_q


def _matrix(n: int):
    import numpy as np

    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def probe_once(large, small) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i
    _rotate(large.copy(), 20)
    _rotate(small.copy(), 30)
    return time.perf_counter() - start


def mean_probe_s(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """Probe time at the mean speed over [start, end], from ``(monotonic,
    seconds)`` samples.

    Work done in an interval is the integral of speed, so the samples are
    averaged as speeds: the harmonic mean of their times.  That also keeps
    a sample stretched by a preemption from counting for more than one.
    An interval with fewer than `MIN_SAMPLES` samples takes the ones
    nearest its middle.
    """
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = (start + end) / 2
        inside = [d for t, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    return statistics.harmonic_mean(inside)


def _pin(cpu: int):
    return lambda: os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """The probe process and the samples it has logged."""

    def __init__(self, log: Path, cpu: int) -> None:
        self.log = log
        self.preexec = _pin(cpu)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(log)],
            preexec_fn=self.preexec,
            stdout=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed probe did not start")
            time.sleep(PERIOD_S)

    def samples(self) -> List[Tuple[float, float]]:
        try:
            text = self.log.read_text()
        except FileNotFoundError:
            return []
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines.pop()  # still being written
        return [(float(t), float(d)) for t, d in (line.split() for line in lines)]

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], at the reference speed."""
        return seconds * REF_PROBE_S / mean_probe_s(self.samples(), start, end)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def main() -> None:
    large, small = _matrix(128), _matrix(12)
    with open(sys.argv[1], "a", encoding="utf-8") as log:
        while True:
            time.sleep(PERIOD_S)
            at = time.monotonic()
            log.write(f"{at:.6f} {probe_once(large, small):.9f}\n")
            log.flush()


if __name__ == "__main__":
    main()
