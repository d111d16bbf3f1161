"""Dirichlet polynomial partial sums over the Liouville sequence.

Everything here sums a(n) = lambda(n) for n >= 2 (and a(1) = 0):

    F_x(alpha) = sum_{2<=n<=x} lambda(n) n^(-alpha)
    L_x        = (1/2) sum_{2<=n<=x} lambda(n) log(n) n^(-xi(n))

with xi(n) the mean value exponent of (alpha, beta) = (1/2, 1) (see
xi.py), which makes L's per-term weight exactly n^(-1/2) - n^(-1): the
Abel core reads L_XI as lambda's stream at the shifts of F_x(1/2) and
F_x(1), so F_x(1/2) = F_x(1) + L_x holds to rounding. Every sum is a
polynomial request to the core (integrals._evaluate), so one sieve pass
of partial_sums serves any number of sums and the sums CSV's rows.
PrefixEvaluator keeps its own fold for callers that feed it segments.
"""

import csv
from typing import NamedTuple

import numpy as np

from .compensated import CompensatedSum
from .errors import DomainError
from .integrals import StepKind, _evaluate, _Polynomial


class PrefixEvaluator:
    """Streaming accumulator for F_x(alpha) with optional history.

    Feed ascending lambda segments through update(); value holds the
    exact sum of the segments' pairwise sums, correctly rounded. With
    record_history=True the prefix value at every power of two is kept,
    which bounds history memory even for billion-term runs.
    """

    def __init__(self, alpha: float, record_history: bool = False):
        self.alpha = float(alpha)
        self.limit = 0
        self._acc = CompensatedSum()
        self.history: list[tuple[int, float]] | None = (
            [] if record_history else None
        )

    def update(self, lo: int, lam: np.ndarray) -> None:
        if lo != self.limit + 1:
            raise DomainError(
                f"segments must be contiguous: expected lo={self.limit + 1}, got {lo}"
            )
        self.limit = int(lo) + len(lam) - 1
        ns = np.arange(lo, lo + len(lam), dtype=np.float64)
        terms = lam.astype(np.float64) * ns ** -self.alpha
        if lo == 1:
            terms[0] = 0.0  # a(1) = 0
        if self.history is not None:
            prefix = self._acc.value + np.cumsum(terms)
            marks = (1 << k for k in range(self.limit.bit_length()))
            self.history.extend((m, float(prefix[m - lo])) for m in marks if m >= lo)
        self._acc.add_array(terms)

    @property
    def value(self) -> float:
        return self._acc.value


def _f_request(alpha: float, x: int) -> _Polynomial:
    """The core request for F_x(alpha): F_HALF's coefficients already
    carry n^(-1/2), and F_ONE's n^(-1) times n^(1 - alpha) is n^(-alpha)."""
    x, alpha = int(x), float(alpha)
    if x < 1:
        raise DomainError("the partial sums need x >= 1")
    if alpha == 0.5:
        return _Polynomial(StepKind.F_HALF, 0.0, x + 1)
    return _Polynomial(StepKind.F_ONE, 1.0 - alpha, x + 1)


def _decomposition(x: int) -> list[_Polynomial]:
    """The requests for F_x(1/2), F_x(1) and L_x, in that order."""
    return [_f_request(0.5, x), _f_request(1.0, x), _Polynomial(StepKind.L_XI, 0.0, int(x) + 1)]


def f_x(alpha: float, x: int) -> float:
    """F_x(alpha) = sum_{2<=n<=x} lambda(n) n^(-alpha).

    F_1(alpha) = 0 for every alpha, and F_x(1) = T(x) - 1.
    """
    r = _f_request(alpha, x)
    return _evaluate([r])[r]


def l_x(x: int) -> float:
    """L_x = F_x(1/2) - F_x(1), summed over the exact rearranged weights
    n^(-1/2) - n^(-1) of the default xi construction; L_1 = 0."""
    r = _decomposition(x)[2]
    return _evaluate([r])[r]


class PartialSums(NamedTuple):
    """What partial_sums returns; rows is 0 when it wrote no CSV."""

    f_half: float
    f_one: float
    l_x: float
    f_alpha: tuple[float, ...]
    rows: int


def partial_sums(x: int, alphas=(), *, csv_path=None) -> PartialSums:
    """F_x(1/2), F_x(1), L_x and F_x(alpha) for each of alphas, in one pass.

    With csv_path, the same pass writes the sums CSV there: a header,
    then (x, F_half, F_one, L) at every power of two up to x and at x.
    """
    x = int(x)
    marks = sorted({1 << k for k in range(x.bit_length())} | {x}) if csv_path else [x]
    rows = {m: _decomposition(m) for m in marks}
    extra = [_f_request(alpha, x) for alpha in alphas]
    values = _evaluate([*extra, *(r for row in rows.values() for r in row)])
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "F_half", "F_one", "L"])
            for m, row in rows.items():
                w.writerow([m, *(repr(values[r]) for r in row)])
    f_alpha = tuple(values[r] for r in extra)
    return PartialSums(*(values[r] for r in rows[x]), f_alpha, len(rows) if csv_path else 0)
