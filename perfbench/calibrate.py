"""A fixed numpy workload that measures how fast the machine is right now.

The benchmark runs on shared machines whose CPU speed drifts over
minutes. Every worker times this workload after its own measurement;
the harness scales the run's times by the reference time over the
run's median calibration. Nothing here calls zetalab, so a change to
the program cannot change the calibration.
"""

import math
import statistics
import time

import numpy as np

CAL_ROUNDS = 3
CAL_N = 1 << 20
CAL_LO = 10**7


def _primes_upto(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].tolist()


def _sieve_kernel(primes: list[int]) -> np.ndarray:
    # Omega(n) on one segment by dividing out prime powers, as zetalab sieves.
    omega = np.zeros(CAL_N, dtype=np.int8)
    rem = np.arange(CAL_LO, CAL_LO + CAL_N, dtype=np.int64)
    for p in primes:
        pk = p
        while pk < CAL_LO + CAL_N:
            sl = slice(-CAL_LO % pk, CAL_N, pk)
            omega[sl] += 1
            rem[sl] //= p
            pk *= p
    return omega + (rem > 1)


def _power_kernel() -> np.ndarray:
    # Per-cell weights n^(1-p) - (n+1)^(1-p) at a complex exponent.
    ns = np.arange(1, CAL_N + 1, dtype=np.float64)
    return np.power(ns, -0.1 - 1j) - np.power(ns + 1.0, -0.1 - 1j)


def _fsum_kernel() -> float:
    # The exact segment sum of the scan.
    return math.fsum((1.0 / np.arange(1, CAL_N + 1, dtype=np.float64)).tolist())


def calibration_s() -> float:
    """How slow the machine is now: a fixed numpy workload, timed.

    The geometric mean over three kernels shaped like zetalab's hot loops
    (sieve, per-cell powers, exact sum) of each kernel's median time over
    CAL_ROUNDS rounds. None of it calls zetalab.
    """
    primes = _primes_upto(math.isqrt(CAL_LO + CAL_N))
    logs = []
    for kernel in (lambda: _sieve_kernel(primes), _power_kernel, _fsum_kernel):
        times = []
        for _ in range(CAL_ROUNDS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times)))
    return math.exp(statistics.mean(logs))
