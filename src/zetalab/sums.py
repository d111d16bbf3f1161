"""Dirichlet polynomial partial sums over the Liouville sequence.

Everything here sums a(n) = lambda(n) for n >= 2 (and a(1) = 0):

    F_x(alpha) = sum_{2<=n<=x} lambda(n) n^(-alpha)
    L_x(xi)    = (beta-alpha) sum_{2<=n<=x} lambda(n) log(n) n^(-xi(n))

The L sum is never evaluated by exponentiating xi(n): the mean value
theorem construction makes its per-term weight exactly
n^(-alpha) - n^(-beta), and summing that rearranged form keeps the
decomposition F_x(alpha) = F_x(beta) + L_x(xi) tight to rounding.
Every sum is one weight w(n) of a single lambda pass, _prefix_fold(),
so one pass serves any number of weights and their running prefixes.
"""

import csv

import numpy as np

from .compensated import CompensatedSum
from .errors import DomainError
from .liouville import iter_lambda_segments
from .xi import DEFAULT_XI, XiSequence


def mvt_weight(n, alpha: float = 0.5, beta: float = 1.0):
    """The exact per-term MVT weight (beta-alpha) log(n) n^(-xi(n)).

    Computed through its closed rearrangement n^(-alpha) - n^(-beta),
    which the defining equation of xi makes identical.
    """
    if not beta > alpha:
        raise DomainError("mvt_weight needs beta > alpha")
    arr = np.asarray(n)
    if not np.all(arr >= 2):
        raise DomainError("mvt_weight needs n >= 2")
    arr = arr.astype(np.float64)
    out = arr ** -alpha - arr ** -beta
    return float(out[()]) if np.isscalar(n) or out.ndim == 0 else out


class PrefixEvaluator:
    """Streaming accumulator for F_x(alpha) with optional history.

    Feed ascending lambda segments through update(); value holds the
    compensated running sum. With record_history=True the prefix value
    at every power of two is kept, which bounds history memory even for
    billion-term runs.
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
        self.limit = lo + len(lam) - 1
        visit = None if self.history is None else self._record
        _fold_segment([self._acc], [lambda ns: ns ** -self.alpha], lo, lam, visit)

    def _record(self, ns, prefix) -> None:
        powers = [1 << k for k in range(int(ns[-1]).bit_length())]
        self.history.extend(_rows_at(powers, ns, prefix))

    @property
    def value(self) -> float:
        return self._acc.value


def _mvt(seq: XiSequence):
    return lambda ns: ns ** -seq.alpha - ns ** -seq.beta


def _decomposition_weights(seq: XiSequence) -> list:
    """Weights of F_x(alpha), F_x(beta) and L_x for seq, in that order."""
    return [lambda ns: ns ** -seq.alpha, lambda ns: ns ** -seq.beta, _mvt(seq)]


def _fold_segment(accs, weights, lo: int, coeffs: np.ndarray, visit=None) -> None:
    """Fold a(n) w(n), n = lo, lo + 1, ..., into accs, one compensated
    sum per weight (float64 n -> w(n)), where a(n) = coeffs[n - lo]
    except a(1) = 0. visit(ns, prefix), when given, sees the segment's
    n values and, per weight, the running sums at each of them."""
    ns = np.arange(lo, lo + len(coeffs), dtype=np.float64)
    cf = coeffs.astype(np.float64)
    terms = [cf * w(ns) for w in weights]
    if lo == 1:
        for t in terms:
            t[0] = 0.0  # a(1) = 0
    if visit is not None:
        visit(ns, [acc.value + np.cumsum(t) for acc, t in zip(accs, terms)])
    for acc, t in zip(accs, terms):
        acc.add_array(t)


def _rows_at(marks, ns, prefix) -> list[tuple]:
    """(m, prefix values at m) for each mark m inside the segment ns."""
    lo, hi = int(ns[0]), int(ns[-1])
    return [(m, *(float(p[m - lo]) for p in prefix)) for m in marks if lo <= m <= hi]


def _prefix_fold(x: int, weights, visit=None, **stream_kw) -> list[float]:
    """Totals of sum_{2<=n<=x} lambda(n) w(n), one per weight, in one
    pass of _fold_segment over the lambda stream (visit as there)."""
    accs = [CompensatedSum() for _ in weights]
    for lo, lam in iter_lambda_segments(1, x + 1, **stream_kw):
        _fold_segment(accs, weights, lo, lam, visit)
    return [acc.value for acc in accs]


def f_x(alpha: float, x: int, *, segment_size: int | None = None) -> float:
    """F_x(alpha) = sum_{2<=n<=x} lambda(n) n^(-alpha).

    F_1(alpha) = 0 for every alpha, and F_x(1) = T(x) - 1.
    """
    x = int(x)
    if x < 1:
        raise DomainError("f_x needs x >= 1")
    alpha = float(alpha)
    return _prefix_fold(x, [lambda ns: ns ** -alpha], segment_size=segment_size)[0]


def l_x(seq: XiSequence, x: int, *, segment_size: int | None = None) -> float:
    """L_x for the given xi construction; L_1 = 0.

    Sums the exact rearranged weights n^(-alpha) - n^(-beta).
    """
    x = int(x)
    if x < 1:
        raise DomainError("l_x needs x >= 1")
    return _prefix_fold(x, [_mvt(seq)], segment_size=segment_size)[0]


def write_sums_csv(
    path: str,
    x: int,
    *,
    seq: XiSequence = DEFAULT_XI,
    segment_size: int | None = None,
) -> int:
    """Stream to x once, writing (x, F_half, F_one, L) rows.

    Rows are kept at powers of two plus the final x; returns the row
    count. F_half/F_one use the seq's endpoints, so the header names
    stay honest for non-default (alpha, beta).
    """
    return _write_sums_csv(path, x, seq, [], segment_size=segment_size)[0]


def _write_sums_csv(path: str, x: int, seq: XiSequence, extra_weights: list, **stream_kw):
    """write_sums_csv, folding extra_weights into the same lambda pass.

    Returns the row count and the totals of the extra weights.
    """
    x = int(x)
    if x < 1:
        raise DomainError("x must be >= 1")
    marks = sorted({1 << k for k in range(x.bit_length())} | {x})
    rows: list[tuple[int, float, float, float]] = []

    def visit(ns, prefix):
        rows.extend(_rows_at(marks, ns, prefix[:3]))

    totals = _prefix_fold(x, _decomposition_weights(seq) + extra_weights, visit, **stream_kw)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "F_half", "F_one", "L"])
        for n, va, vb, vl in rows:
            w.writerow([n, repr(va), repr(vb), repr(vl)])
    return len(rows), totals[3:]
