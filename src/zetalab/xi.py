"""The mean-value-theorem exponent sequence xi(n).

With (alpha, beta) = (1/2, 1), the pair behind L_x's weight, every
integer n >= 2 has a unique xi(n) in (alpha, beta) with

    n^(-beta) - n^(-alpha) = -(beta - alpha) * log(n) * n^(-xi(n))

and it has the closed form

    xi(n) = log(log n)/log n + log((beta-alpha)/(1 - n^(alpha-beta)))/log n + alpha.

The sequence decreases and tends to alpha (slowly, on the scale of
log log n / log n). This module evaluates the closed form, measures the
defining-equation residual, and scans monotonicity.
"""

import csv
from typing import NamedTuple

import numpy as np

from .errors import DomainError

ALPHA, BETA = 0.5, 1.0
# Largest write_xi_csv grid, refused before the grid is built.
_MAX_POINTS = 10**6


def _as_n_array(n) -> np.ndarray:
    arr = np.asarray(n)
    if arr.size == 0:
        raise DomainError("empty n")
    if not np.all(arr >= 2):
        raise DomainError("xi(n) needs n >= 2 (log log n must exist)")
    return arr.astype(np.float64)


def _scalar_or_array(n, out):
    """out as a float when n is a scalar."""
    return float(out[()]) if np.isscalar(n) or out.ndim == 0 else out


def xi(n):
    """xi(n) for scalar or array n >= 2.

    The second closed-form term is computed as
    log(beta-alpha) - log1p(-n^(alpha-beta)) so no precision is lost
    when n^(alpha-beta) is small.
    """
    logn = np.log(_as_n_array(n))
    second = np.log(BETA - ALPHA) - np.log1p(-np.exp((ALPHA - BETA) * logn))
    return _scalar_or_array(n, np.log(logn) / logn + second / logn + ALPHA)


def xi_residual(n):
    """Defining-equation residual n^-b - n^-a + (b-a) log(n) n^-xi(n).

    Stays below 1e-14 * n^-alpha in magnitude; a perturbed exponent
    breaks this immediately, which is what makes it a useful check.
    """
    arr = _as_n_array(n)
    out = arr ** -BETA - arr ** -ALPHA + (BETA - ALPHA) * np.log(arr) * np.power(arr, -xi(arr))
    return _scalar_or_array(n, out)


class XiMonotoneReport(NamedTuple):
    n_max: int
    monotone: bool
    first_increase: int | None  # smallest n with xi(n+1) >= xi(n)
    gap_at_nmax: float  # xi(n_max) - alpha


def check_monotone_limit(n_max: int) -> XiMonotoneReport:
    """Scan xi(n+1) < xi(n) exhaustively for 2 <= n < n_max.

    Works in chunks so n_max up to 10^8 stays cheap on memory; the chunk
    boundaries overlap by one point so no adjacent pair is skipped.
    """
    n_max = int(n_max)
    if n_max < 3:
        raise DomainError("check_monotone_limit needs n_max >= 3")
    gap = float(xi(float(n_max)) - ALPHA)
    lo = 2
    while lo < n_max:
        hi = min(lo + (1 << 20), n_max)
        ns = np.arange(lo, hi + 1, dtype=np.float64)  # include hi for the seam
        bad = np.diff(xi(ns)) >= 0
        if bad.any():
            return XiMonotoneReport(n_max, False, lo + int(np.argmax(bad)), gap)
        lo = hi
    return XiMonotoneReport(n_max, True, None, gap)


def write_xi_csv(path: str, n_max: int, points: int = 200) -> int:
    """Write (n, xi, residual) on a log grid of about `points` integers.

    Returns the number of rows written.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    if points < 1:
        raise DomainError("points must be >= 1")
    if points > _MAX_POINTS:
        raise DomainError(f"points must be at most {_MAX_POINTS}")
    grid = np.unique(
        np.round(np.logspace(np.log10(2), np.log10(n_max), points)).astype(np.int64)
    )
    grid = grid[(grid >= 2) & (grid <= n_max)]
    vals = xi(grid)
    res = xi_residual(grid)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "xi", "residual"])
        for n, v, r in zip(grid, vals, res):
            w.writerow([int(n), repr(float(v)), repr(float(r))])
    return len(grid)
