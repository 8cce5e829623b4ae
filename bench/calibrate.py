"""Machine-speed calibration for a shared, noisy host.

On a host whose cores are shared with other tenants the same pass can
take 1.5-2x longer for stretches of tens of seconds, so raw wall times of
two runs of the same code differ by far more than any bound worth
enforcing.  A fixed kernel that does not touch ucamimo — a Python loop,
small complex NumPy operations, stacked determinants and a LAPACK SVD, the
mix the workloads spend their time in — is timed right before and right
after every timed pass, on as many threads as the pass's own work uses,
and the interval is rescaled to the host speed at which one copy of the
kernel takes ``REFERENCE_S``.  A set-up probe's fresh interpreter times
the kernel once, right after its set-up, instead.  Copies on several threads mostly take
turns under the GIL, like the campaign workloads' thread pool, so the
reference for t threads is t x ``REFERENCE_S``.  The raw times stay in the
run's record.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REFERENCE_S = 0.05  # kernel time at the reference speed (a 2-vCPU Xeon VM when idle)

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_STACK = np.eye(16) + 0.1 * (
    _rng.standard_normal((512, 16, 16)) + 1j * _rng.standard_normal((512, 16, 16))
)
_SQUARE = _rng.standard_normal((64, 64))


def kernel() -> None:
    """A fixed amount of work in the proportions the workloads use."""
    acc = 0
    for i in range(120_000):
        acc += i ^ (i >> 3)
    x = _SMALL
    for _ in range(1000):
        x = np.exp(1j * np.abs(x)) @ _SMALL
        x = x / np.abs(x).max()
    for _ in range(8):
        np.linalg.slogdet(_STACK)
    for _ in range(20):
        np.linalg.svd(_SQUARE)


def kernel_seconds(threads: int = 1) -> float:
    """Wall time of one copy of the kernel on each of `threads` threads."""
    if threads == 1:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        t0 = time.perf_counter()
        for future in [pool.submit(kernel) for _ in range(threads)]:
            future.result()
        return time.perf_counter() - t0


def speed_factor(before: float, after: float, threads: int = 1) -> float:
    """Multiplier taking a raw interval to the reference speed."""
    return REFERENCE_S * threads / (0.5 * (before + after))
