"""A fixed pure-Python kernel whose speed stands in for the machine's.

Shared virtual machines change speed by up to half, within seconds and for
minutes at a time, as other tenants load the cores. The benchmark runs this
kernel between operations and scales each operation's time by the kernel's
speed around it. The kernel is benchmark code, so a change to pcosync moves
only the operations.
"""

from __future__ import annotations

import multiprocessing
import statistics
import sys
import time

# About the kernel's time on a 2-core Intel Xeon VM under Python 3.11 when
# no other tenant loads the cores; timings are scaled to the speed at which
# the kernel takes this long.
REFERENCE_KERNEL_S = 0.15e-3


class _Oscillator:
    __slots__ = ("phase", "omega")

    def __init__(self, phase: float, omega: float):
        self.phase = phase
        self.omega = omega


def kernel() -> float:
    """Fixed interpreter work shaped like the simulator's event loop:
    pick the earliest threshold crossing, advance every phase, sort the
    phases for the widest gap, average the frequencies. Shared machines
    slow this down about as much as they slow pcosync."""
    oscs = [_Oscillator((i * 0.37) % 0.5, 1.0 + (i * 0.013) % 0.05) for i in range(32)]
    widest = 0.0
    for _ in range(12):
        dt, k = min(((1.0 - o.phase) / o.omega, i) for i, o in enumerate(oscs))
        for o in oscs:
            o.phase += o.omega * dt
        oscs[k].phase = 0.0
        pts = sorted(o.phase for o in oscs)
        widest += max(b - a for a, b in zip(pts, pts[1:]))
        oscs[k].omega = sum(o.omega for o in oscs) / len(oscs)
    return widest


def calibrate(seconds: float) -> list[float]:
    """Kernel run times, at least one run, until ``seconds`` have passed."""
    samples = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        kernel()
        now = time.perf_counter()
        samples.append(now - start)
        if now >= end:
            return samples


def speed(samples: list[float]) -> float:
    """How much faster than the reference speed the kernel ran; a timing
    multiplied by this is scaled to the reference speed. The slowest tenth
    of the runs is dropped: a run the scheduler preempted says nothing
    about the speed of the core."""
    kept = sorted(samples)[: max(1, len(samples) * 9 // 10)]
    return REFERENCE_KERNEL_S / statistics.fmean(kept)


class Helper:
    """A second process that runs the kernel alongside this one, so work
    spread over two cores is scaled by the speed of both. It is forked
    while this process runs no other thread (fork, unlike spawn, starts no
    resource-tracker process that could outlive the benchmark), and it
    talks over a pipe, which starts no thread either."""

    def __enter__(self) -> "Helper":
        sys.stdout.flush()
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_helper_main, args=(child,), daemon=True)
        self._process.start()
        child.close()
        return self

    def start(self, seconds: float) -> None:
        self._conn.send(seconds)

    def samples(self) -> list[float]:
        return self._conn.recv()

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send(None)
        finally:
            self._process.join(timeout=30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()
            self._conn.close()


def _helper_main(conn) -> None:
    while (seconds := conn.recv()) is not None:
        conn.send(calibrate(seconds))
