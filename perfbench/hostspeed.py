"""Host speed: a fixed calibration kernel, timed around every measured call.

On a shared virtual machine the host changes speed for stretches of seconds
to minutes, in CPU time as well as wall time, by up to 2x, and not by the
same factor for every kind of code. The kernel below does a fixed amount of
work in four parts of about equal time, each of a kind the program does:
tiny-matrix recurrences stepped from a Python loop (``--d-h 2``, one
sequence), batched small-matrix recurrences (``--d-h 8``, 64 windows), plain
interpreter work, and a window gather and array copy that stream memory. It
never calls ``tbptt``, so a change to the program leaves it unchanged.
A command that runs on several threads is bracketed by the kernel run on as
many threads.
``scaled`` turns a measured time into the time it would have taken on a host
that runs the kernel in ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np

# Kernel time on the reference host: median on a 2-vCPU virtual machine
# (Intel Xeon, 2.1 GHz) with Python 3.11.7, numpy 2.4.6 and scipy-openblas
# 0.3.31, in its faster state.
REFERENCE_S = 0.1
# ``start_seconds`` on the same host
START_REFERENCE_S = 0.15

_rng = np.random.default_rng(20260211)
_W2 = _rng.standard_normal((2, 2)) * 0.3
_U2 = _rng.standard_normal((400, 2))
_W8 = _rng.standard_normal((8, 8)) * 0.3
_U8 = _rng.standard_normal((40, 64, 8))
_SERIES = _rng.standard_normal(4000)
_WINDOWS = np.arange(1980)[:, None] + np.arange(21)[None, :]
_BLOCK = _rng.standard_normal(1 << 18)  # 2 MB: larger than a core's L2 cache


def _kernel() -> float:
    total = 0.0
    for _ in range(18):
        h = np.zeros(2)
        for t in range(_U2.shape[0]):
            h = np.tanh(_W2 @ h + _U2[t])
            total += float(h[0] * (1.0 - h[0] * h[0]))
    for _ in range(160):
        h = np.zeros((64, 8))
        for t in range(_U8.shape[0]):
            h = np.tanh(h @ _W8 + _U8[t])
    total += float(h[0, 0])
    slots = {}
    for i in range(300000):
        total += i * 0.5e-9
        slots[i & 255] = total
    for _ in range(180):
        total += float(_SERIES[_WINDOWS].sum()) + float(_BLOCK.sum())
    return total


def kernel_seconds(threads: int = 1) -> float:
    """Wall time of one run of the calibration kernel in each of ``threads``
    threads at once, divided by ``threads``. A command that keeps two threads busy is slowed by
    contention on both processors and by the interpreter lock; a kernel run
    in as many threads sees the same."""
    others = [threading.Thread(target=_kernel) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for thread in others:
        thread.start()
    _kernel()
    for thread in others:
        thread.join()
    return (time.perf_counter() - t0) / threads


def start_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits.

    Set-up starts interpreters and reads files, and slows with the host's
    process start-up and file cache rather than with its arithmetic, so it
    is timed between these in place of the kernel.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float,
           reference: float = REFERENCE_S) -> float:
    """``seconds`` measured between calibration runs that took ``before``
    and ``after``, at the reference host speed, where a calibration run
    takes ``reference``."""
    return seconds * reference / (0.5 * (before + after))
