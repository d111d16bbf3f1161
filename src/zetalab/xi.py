"""The mean-value-theorem exponent sequence xi(n).

For fixed beta > alpha and integer n >= 2 there is a unique xi(n) in
(alpha, beta) with

    n^(-beta) - n^(-alpha) = -(beta - alpha) * log(n) * n^(-xi(n))

and it has the closed form

    xi(n) = log(log n)/log n + log((beta-alpha)/(1 - n^(alpha-beta)))/log n + alpha.

The sequence decreases and tends to alpha (slowly, on the scale of
log log n / log n). This module evaluates the closed form, measures the
defining-equation residual, and scans monotonicity.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _as_n_array(n) -> np.ndarray:
    arr = np.asarray(n)
    if arr.size == 0:
        raise DomainError("empty n")
    if not np.all(arr >= 2):
        raise DomainError("xi(n) needs n >= 2 (log log n must exist)")
    return arr.astype(np.float64)


@dataclass(frozen=True)
class XiSequence:
    """Exponent interval (alpha, beta) defining the sequence."""

    alpha: float = 0.5
    beta: float = 1.0

    def __post_init__(self):
        if not self.beta > self.alpha:
            raise DomainError("XiSequence needs beta > alpha")

    def xi(self, n):
        """xi(n) for scalar or array n >= 2.

        The second closed-form term is computed as
        log(beta-alpha) - log1p(-n^(alpha-beta)) so no precision is lost
        when n^(alpha-beta) is small.
        """
        arr = _as_n_array(n)
        logn = np.log(arr)
        second = (np.log(self.beta - self.alpha)
                  - np.log1p(-np.exp((self.alpha - self.beta) * logn)))
        out = np.log(logn) / logn + second / logn + self.alpha
        return float(out[()]) if np.isscalar(n) or out.ndim == 0 else out

    def residual(self, n):
        """Defining-equation residual n^-b - n^-a + (b-a) log(n) n^-xi(n).

        Stays below 1e-14 * n^-alpha in magnitude; a perturbed exponent
        breaks this immediately, which is what makes it a useful check.
        """
        arr = _as_n_array(n)
        out = (arr ** -self.beta - arr ** -self.alpha
               + (self.beta - self.alpha) * np.log(arr) * np.power(arr, -self.xi(arr)))
        return float(out[()]) if np.isscalar(n) or out.ndim == 0 else out


DEFAULT_XI = XiSequence(0.5, 1.0)


def xi(n, seq: XiSequence = DEFAULT_XI):
    return seq.xi(n)


def xi_residual(n, seq: XiSequence = DEFAULT_XI):
    return seq.residual(n)


@dataclass(frozen=True)
class XiMonotoneReport:
    n_max: int
    monotone: bool
    first_increase: int | None  # smallest n with xi(n+1) >= xi(n)
    gap_at_nmax: float  # xi(n_max) - alpha


def check_monotone_limit(seq: XiSequence, n_max: int) -> XiMonotoneReport:
    """Scan xi(n+1) < xi(n) exhaustively for 2 <= n < n_max.

    Works in chunks so n_max up to 10^8 stays cheap on memory; the chunk
    boundaries overlap by one point so no adjacent pair is skipped.
    """
    n_max = int(n_max)
    if n_max < 3:
        raise DomainError("check_monotone_limit needs n_max >= 3")
    gap = float(seq.xi(float(n_max)) - seq.alpha)
    lo = 2
    while lo < n_max:
        hi = min(lo + (1 << 20), n_max)
        ns = np.arange(lo, hi + 1, dtype=np.float64)  # include hi for the seam
        bad = np.diff(seq.xi(ns)) >= 0
        if bad.any():
            return XiMonotoneReport(n_max, False, lo + int(np.argmax(bad)), gap)
        lo = hi
    return XiMonotoneReport(n_max, True, None, gap)


def write_xi_csv(path: str, seq: XiSequence, n_max: int, points: int = 200) -> int:
    """Write (n, xi, residual) on a log grid of about `points` integers.

    Returns the number of rows written.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    if points < 1:
        raise DomainError("points must be >= 1")
    grid = np.unique(
        np.round(np.logspace(np.log10(2), np.log10(n_max), points)).astype(np.int64)
    )
    grid = grid[(grid >= 2) & (grid <= n_max)]
    vals = seq.xi(grid)
    res = seq.residual(grid)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "xi", "residual"])
        for n, v, r in zip(grid, vals, res):
            w.writerow([int(n), repr(float(v)), repr(float(r))])
    return len(grid)
