"""Exact integration of integer-breakpoint step functions against power kernels.

Every integrand here is G(u) u^(-p), where G(u) = sum_{n<=u} a(n) is a
step function with integer breakpoints. Abel summation turns the
integral over [1, X] into a Dirichlet polynomial over the same
coefficients. With q = 1 - p:

    integral_1^X G(u) u^(-p) du = sum_{n<X} a(n) (X^q - n^q) / q

At p = 1 this becomes its log limit, sum_{n<X} a(n) log(X/n). No
quadrature grid, no quadrature error; what remains is rounding plus
the truncation tail, which is modeled explicitly and reported rather
than hidden.

Every integral, truncated Dirichlet series and running prefix sum in
the package goes through one core, _evaluate(). It makes one ordered
pass of the sieve's factor kernel, whatever the number of requests
(_Polynomial, _Integral, _Prefix): each segment's lambda and squareful
mask give lambda, mu and the constant ONE alike, and a pass that serves
ONE alone does not sieve. Within a pass the terms go in sub-blocks of
2^15 on one grid from n = 1, and a request sums only the range of each
below its stop. Around a range's centre N, n^q = N^q exp(q log(n/N)), so

    sum a(n) n^q           = N^q (m_0 + q T),
    sum a(n) (X^q - n^q)/q = N^q (m_0 expm1(q D)/q - T),

with m_k = sum a(n) log(n/N)^k, T = sum_{k>=1} q^(k-1) m_k / k! and
D = log(X/N): one formula per range for each request, without
cancellation at any q (at q = 0 the second is m_0 D - m_1). The moments
m_k of a kind are shared by all its exponents, so an exponent costs
O(K) scalar operations per range instead of one power per term: the
block-Taylor step of Odlyzko and Schoenhage's multi-evaluation of zeta
("Fast algorithms for multiple evaluations of the Riemann zeta
function", Trans. AMS 1988). K follows from the exponent's own |q| and
the range's half-width h; where |q| h > 1, which in full sub-blocks
means n below about |q| 2^14, the range sums n^q term by term.

A pass that serves both coefficient families, F_HALF and L_XI (built
from the square root of 1/n) and the other kinds, on more than one
sub-block, and holds no _Prefix, folds them in two processes. A child
forked before the sieve stream starts folds the root family; the caller
runs the one stream, writes each segment's lambda bytes into a pipe for
the child, and folds the other family. The child sends back its sums
and envelope maxima pickled, with their exact bits, and the caller
finishes the pass over all requests. As a request's bits depend only on
its own kind, q and stop, none depends on the split. Without os.fork,
or in a process that runs more than one thread (a BLAS pool of two or
more, say), the whole pass runs in-process.
"""

import bisect
import csv
import enum
import math
import os
from typing import NamedTuple

import numpy as np

from .compensated import ComplexCompensatedSum, CompensatedSum
from . import liouville
from .errors import DomainError, PrecisionError, ZetalabError
from .liouville import _factor_segment, _iter_segments, _p_bounds, _write_all

_SINGULAR_WINDOW = 1e-9
# Terms folded per numpy call; bounds the temporaries for any segment size.
# DEFAULT_SEGMENT is a multiple of it, so the sub-blocks lie on one grid.
_SUB_BLOCK = 1 << 15
# A sub-block's Taylor series in q log(n/N) stops where the first omitted
# term of T is below 2^-60 of h times the block's sum of |a(n) N^q|.
_TAYLOR_TOL = 2.0**-60
UNMODELED = "unmodeled; conditional"


class StepKind(enum.Enum):
    """Step integrands, each constant on [n, n+1) except P_OVER_U.

    F_HALF, F_ONE, L_XI sum the Liouville sequence with a(1) = 0 and
    default to the u^(-s-1/2) kernel; T_SUM (which keeps the n = 1
    term) and P_OVER_U default to the plain u^(-s) kernel. MU_ONE is
    the Mobius analogue of F_ONE (plain kernel), and ONE is the
    constant function for closed-form cross-checks. Members hash by
    identity, in C: the pass keys its per-sub-block memos by kind.
    """

    F_HALF = "F_half"
    F_ONE = "F_one"
    L_XI = "L_xi"
    T_SUM = "T_sum"
    P_OVER_U = "P_over_u"
    MU_ONE = "Mu_one"
    ONE = "One"

    __hash__ = object.__hash__


_HALF_DEFAULT = {StepKind.F_HALF, StepKind.F_ONE, StepKind.L_XI, StepKind.ONE}
# The kinds whose a(n) take the square root of 1/n: one family of a pass
# that may split (_families); F_ONE, T_SUM, MU_ONE, P_OVER_U and ONE are
# the other.
_ROOT_KINDS = {StepKind.F_HALF, StepKind.L_XI}


class IntegralResult(NamedTuple):
    """Truncated integral with an explicit tail model.

    converged means tail_estimate < the tolerance (integrate_step's, or
    1e-6 for j_xi), never that the infinite integral was proven to
    exist; for exponents the model cannot reach, tail_estimate is inf
    and tail_model says so.
    """

    value: complex
    truncation: int
    tail_estimate: float
    converged: bool
    tail_model: str


def _resolve_kernel(kind: StepKind, kernel: str) -> str:
    if kernel == "auto":
        return "half_shifted" if kind in _HALF_DEFAULT else "plain"
    if kernel not in ("plain", "half_shifted"):
        raise DomainError(f"unknown kernel {kernel!r}")
    return kernel


def _narrow(z: complex):
    """z as a float when it is real, so that the pass runs real arithmetic."""
    return z.real if z.imag == 0 else z


class _PolynomialFields(NamedTuple):
    kind: StepKind
    q: complex
    stop: int


class _Polynomial(_PolynomialFields):
    """Request for sum_{n < stop} a(n) n^q over the coefficients of kind."""

    __slots__ = ()

    def __new__(cls, kind: StepKind, q: complex, stop: int):
        q = complex(q)
        if not (math.isfinite(q.real) and math.isfinite(q.imag)):
            raise DomainError(f"exponent must be finite, got {q}")
        return super().__new__(cls, kind, _narrow(q), stop)


class _Integral(NamedTuple):
    """Request for the integral of kind's G against u^(q-1) over [1, x].

    Its tail envelope is max |G(n)| n^(-envelope) over [window_lo, x).
    """

    kind: StepKind
    s: complex
    x: int
    kernel: str
    q: complex
    envelope: float
    window_lo: int
    tolerance: float

    @property
    def decay(self) -> float:
        """sigma_d of the modeled integrand envelope c * u^(-sigma_d); the
        tail is modeled only where it exceeds 1."""
        shift = self.kind is StepKind.P_OVER_U and self.kernel == "half_shifted"
        return self.s.real + (0.5 if shift else 0.0)


class _Prefix(NamedTuple):
    """Request that visit(ns, G) see kind's running sum G(n) = sum_{m<=n} a(m)
    at every n below stop, a sub-block at a time, in ascending order."""

    kind: StepKind
    stop: int
    visit: object


def _integral(kind, s, X, kernel="auto", tolerance=1e-6, window_divisor=10) -> _Integral:
    """Validated request for the integral integrate_step computes."""
    X = int(X)
    if X < 2:
        raise DomainError("X must be >= 2")
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    kernel = _resolve_kernel(kind, kernel)
    p = s + 0.5 if kernel == "half_shifted" else s
    p_eff = p + 1.0 if kind is StepKind.P_OVER_U else p
    if p_eff != 1 and abs(p_eff - 1.0) < _SINGULAR_WINDOW:
        raise DomainError(
            f"kernel exponent {p_eff} within {_SINGULAR_WINDOW} of the singular value 1"
        )
    if kind is StepKind.P_OVER_U:
        envelope = 1.0
    else:
        envelope = 0.5 if kernel == "half_shifted" else 0.0
    return _Integral(
        kind, s, X, kernel, _narrow(1.0 - p_eff), envelope, max(2, X // window_divisor), tolerance
    )


def _j_xi(s, X) -> _Integral:
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError("j_xi needs sigma > 1/2")
    return _integral(StepKind.L_XI, s, X, "half_shifted", window_divisor=2)


def _unsieved(lo, hi, base_primes):
    """Kernel for a pass that serves ONE alone: its a(n) = [n = 1] reads no lambda."""
    blank = np.zeros(hi - lo, dtype=np.int8)
    return blank, blank


class _Memo(dict):
    """A dict that builds a missing key's value, build(key), on its first
    lookup and keeps it. The pass makes several per sub-block, where a
    functools.cache wrapper costs more to set up than some of them save.
    build must not refer to its own memo: that cycle would keep the
    sub-block's arrays until the garbage collector runs."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _coefficients(ns, lam, squareful):
    """kind -> a(n) on the sub-block ns, from its lambda (as floats) and
    squareful mask, each kind's array built on first use.

    The sub-block takes one reciprocal r = 1/n, and n^(-1/2) is np.sqrt(r):
    both steps are correctly rounded, so each is non-increasing in n and
    sqrt(r) lies within an ulp of the correctly rounded n^(-1/2). F_ONE,
    T_SUM and MU_ONE are c r with c in {-1, 0, 1}, the bits of c/n;
    F_HALF is lambda sqrt(r) and L_XI lambda (sqrt(r) - r).
    """
    recip = root = None  # 1/n and its square root, built when a kind first needs them

    def a(kind):
        nonlocal recip, root
        if kind is StepKind.ONE:
            return (ns == 1.0).astype(np.float64)  # G(u) = 1
        if kind is StepKind.P_OVER_U:
            return lam  # sums lambda itself
        recip = 1.0 / ns if recip is None else recip
        if kind is StepKind.F_HALF or kind is StepKind.L_XI:
            root = np.sqrt(recip) if root is None else root
        if kind is StepKind.F_HALF:
            out = lam * root
        elif kind is StepKind.L_XI:
            out = np.subtract(root, recip)
            out *= lam
        else:  # F_ONE, T_SUM, MU_ONE
            c = np.where(squareful, 0.0, lam) if kind is StepKind.MU_ONE else lam  # mu
            out = c * recip
        if ns[0] == 1 and kind is not StepKind.T_SUM:
            out[0] = 0.0  # a(1) = 0 conventions
        return out

    return _Memo(a).__getitem__


def _live(kind, b, j, squareful) -> bool:
    """Whether kind's a(n) is nonzero somewhere on the range [b, b + j) of
    a sub-block: a(k)[:j].any(), read from the range and the squareful
    mask. Lambda is never 0 and every weight is positive, so only a(1) = 0
    (all kinds but T_SUM and P_OVER_U) and mu = 0 on squareful n make a
    coefficient vanish; ONE's a(n) lives at n = 1 alone."""
    if kind is StepKind.ONE:
        return b == 1
    first = int(b == 1 and kind not in (StepKind.T_SUM, StepKind.P_OVER_U))  # a(1) = 0
    if kind is StepKind.MU_ONE:
        return not squareful[first:j].all()
    return first < j


def _abel_spread(c: np.ndarray) -> int:
    """D >= every |c(b) + ... + c(n)| over a block of c in {0, +-1}, at
    most _SUB_BLOCK long: the bound on P that liouville._p_bounds takes
    from 64-term groups."""
    (low,), (high,), _ = _p_bounds(c)
    return max(high, -low)


def _envelope_peak(g_abs: np.ndarray, powers: np.ndarray) -> float:
    """max |G(n)| / n^e over a slice of a sub-block: an envelope's fold."""
    return float((g_abs / powers).max())


def _envelope_bound(kind, ex: float, b: float, first: float, m: int, g0: float, d: int) -> float:
    """A bound on every float |g0 + np.cumsum(a)| / ns**ex that a tail
    envelope forms at n >= first on a sub-block of m terms a(n) of kind
    from n = b, where d bounds every sum of c over the block (_abel_spread);
    inf where no bound is derived (ONE, and L_XI below n = 4).

    Each a(n) is c(n) w(n) with c in {lambda, mu} and w positive and
    non-increasing on the float n from b, so by Abel summation every sum
    of a from b is at most d w(b) in size. Each float term is within
    2^-50 w(b) of its a(n), u = 2^-53 (_coefficients): 1/n is within u/n,
    np.sqrt of it within 1.51 u n^(-1/2), and for L_XI, where
    n^(-1/2) <= 2 w(n) and 1/n <= w(n) from n = 4, the difference adds
    its own rounding, 5.03 u w(b) in all. np.cumsum adds at most
    2 m u (d + m) w(b) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2). g0 is the float the fold adds, so
    it needs no margin. The factor 1 + 2^-40 covers the rounding of that
    add, of n**ex (a few ulp) and the divide, and of evaluating this
    bound; first**ex is at most every n**ex the fold divides by, as ex >= 0.
    """
    if kind is StepKind.P_OVER_U:
        w_b = 1.0
    elif kind in (StepKind.F_ONE, StepKind.T_SUM, StepKind.MU_ONE):
        w_b = 1.0 / b
    elif kind is StepKind.F_HALF:
        w_b = b**-0.5
    elif kind is StepKind.L_XI and b >= 4:
        w_b = b**-0.5 - 1.0 / b
    else:
        return math.inf
    spread = w_b * (d + m * (2.0**-50 + 2 * 2.0**-53 * (d + m)))
    return (abs(g0) + spread) * (1 + 2.0**-40) / first**ex


def _fold_envelopes(envs, g, b, ns, a, lam, squareful) -> None:
    """Fold the sub-block ns from n = b into each tail envelope of envs,
    (kind, e, window_lo, x) -> max |G(n)| / n^e so far over [window_lo, x),
    where G(b - 1) is g[kind].value and a(kind) the sub-block's a(n).

    A sub-block whose Abel bound (_envelope_bound, from the 64-term group
    sums of its lambda or mu) is at most the envelope so far cannot raise
    it and is skipped; a tie leaves the max as it is, so the envelope is
    the float that folding every sub-block gives. The folds' arrays are
    released on return, before the sub-block's moments are formed.
    """
    e = b + len(ns)
    powers = _Memo(lambda ex: ns**ex)
    g_abs = _Memo(lambda k: np.abs(g[k].value + np.cumsum(a(k))))

    def peak(key):  # (kind, e, i, j) -> the fold's max on [i, j)
        k, ex, i, j = key
        return _envelope_peak(g_abs[k][i:j], powers[ex][i:j])

    peaks = _Memo(peak)
    # d of mu's coefficient stream or lambda's
    spread = _Memo(lambda mu: _abel_spread(lam * ~squareful if mu else lam))
    for key in envs:
        k, ex, w_lo, x = key
        i, j = max(w_lo, b) - b, min(x, e) - b
        if i < j and not 0 < envs[key] >= _envelope_bound(
            k, ex, float(ns[0]), float(ns[i]), len(ns), g[k].value, spread[k is StepKind.MU_ONE]
        ):
            envs[key] = max(envs[key], peaks[k, ex, i, j])


def _taylor_order(x: float):
    """Smallest K >= 1 with x^K/(K+1)! <= 2^-60, or None when x = |q| h > 1
    and the sub-block takes the direct route. T's first omitted term is then
    below 2^-60 h of the block's sum |a(n) N^q|, a polynomial's x times less."""
    if x > 1.0:
        return None
    order, term = 1, x / 2
    while term > _TAYLOR_TOL:
        order += 1
        term *= x / (order + 1)
    return order


def _moments(a: dict, rows: dict, delta: np.ndarray | None) -> dict:
    """{kind: [m_0, ..., m_top]}, m_j = sum a[kind] delta^j, for each
    kind's top row in rows (delta is read only above row 0). Row j is the
    same whatever the other kinds and tops: delta^j is one running array."""
    moments = {k: [float(a[k].sum())] for k in rows}
    for row in range(1, max(rows.values(), default=0) + 1):
        delta_row = delta.copy() if row == 1 else np.multiply(delta_row, delta, out=delta_row)
        for k, top in rows.items():
            if row <= top:
                moments[k].append(float(np.dot(a[k], delta_row)))
    return moments


def _taylor_quotient(q, m, order: int):
    """T = sum_{1 <= k <= order} q^(k-1) m_k / k!, by Horner:
    m_1 + q/2 (m_2 + q/3 (m_3 + ...)). It is (sum a(n) e^(q delta) - m_0)/q."""
    value = m[order]
    for row in range(order, 1, -1):
        value = m[row - 1] + value * q / row
    return value


def _expm1_over(q, d):
    """(e^(q d) - 1)/q, and its limit d at q = 0."""
    return np.expm1(q * d) / q if q else d


class _Fold:
    """One process's share of a pass: the compensated sum of each of its
    requests, the tail envelope of each of its integrals whose tail is
    modeled, and one running G per kind that an envelope or a _Prefix
    reads, folded a segment at a time (segment)."""

    def __init__(self, requests):
        self.prefixes = [r for r in requests if isinstance(r, _Prefix)]
        self.sums = {r: CompensatedSum() if isinstance(r.q, float) else ComplexCompensatedSum()
                     for r in requests if not isinstance(r, _Prefix)}
        # stop -> [(q, kind, sum, log x or None)], resolved once so that the pass hashes no request
        self.plans: dict = {}
        for r, acc in self.sums.items():
            stop, log_x = (r.x, math.log(r.x)) if isinstance(r, _Integral) else (r.stop, None)
            self.plans.setdefault(stop, []).append((r.q, r.kind, acc, log_x))
        self.stops = sorted(self.plans)
        self.envs = {(r.kind, r.envelope, r.window_lo, r.x): 0.0
                     for r in requests if isinstance(r, _Integral) and r.decay > 1.0}
        kinds = [k for k, *_ in self.envs] + [r.kind for r in self.prefixes]
        self.g = {k: CompensatedSum() for k in kinds}  # G(b - 1)

    def result(self) -> tuple[list, list]:
        """The values of the sums and the maxima of the envelopes, in the
        order of self.sums and self.envs."""
        return [acc.value for acc in self.sums.values()], list(self.envs.values())

    def segment(self, lo, lam, squareful) -> None:
        """Fold the segment from n = lo, its lambda and squareful mask, or
        None for a fold of the root kinds, which never read it."""
        plans, stops, envs, g, prefixes = self.plans, self.stops, self.envs, self.g, self.prefixes
        hi = lo + len(lam)
        for b in range(lo, hi, _SUB_BLOCK):
            e = min(b + _SUB_BLOCK, hi)
            ns = np.arange(b, e, dtype=np.float64)
            lam_i8 = lam[b - lo : e - lo]
            sq_b = squareful if squareful is None else squareful[b - lo : e - lo]
            lam_b = lam_i8.astype(np.float64)
            # built on first use, shared by every sum that needs them, dropped with the sub-block
            logn = None  # np.log(ns), for moment rows and direct sums only
            a = _coefficients(ns, lam_b, sq_b)
            _fold_envelopes(envs, g, b, ns, a, lam_i8, sq_b)
            for r in prefixes:
                if b < r.stop:
                    j = min(r.stop, e) - b
                    r.visit(ns[:j], g[r.kind].value + np.cumsum(a(r.kind)[:j]))  # G(n) on ns[:j]
            # range end c -> q -> kind -> [(sum, log x)]; G advances on whole sub-blocks only
            ranges: dict = {e: {}} if g else {}
            for stop in stops[bisect.bisect_right(stops, b):]:
                by_q = ranges.setdefault(min(stop, e), {})
                for q, k, acc, log_x in plans[stop]:
                    by_q.setdefault(q, {}).setdefault(k, []).append((acc, log_x))
            for c, by_q in ranges.items():
                j = c - b
                log_lo, log_hi = np.log(ns[[0, j - 1]])  # the bits of np.log(ns) there
                log_mid, h = (log_lo + log_hi) / 2, (log_hi - log_lo) / 2
                due = []  # (q, its order K or None, [(kind, plan)]) for the sums this range adds to
                # kind -> highest moment row any of its exponents needs; m_0 advances G
                rows = dict.fromkeys(g if c == e else (), 0)
                for q, by_kind in by_q.items():
                    q_plans = [(k, plan) for k, plan in by_kind.items() if _live(k, b, j, sq_b)]
                    if q_plans:
                        order = _taylor_order(abs(q) * h)
                        due.append((q, order, q_plans))
                        for k, _ in q_plans:
                            rows[k] = max(rows.get(k, 0), order or 0)
                delta = None
                if any(rows.values()):
                    logn = np.log(ns) if logn is None else logn
                    delta = logn[:j] - log_mid
                moments = _moments({k: a(k)[:j] for k in rows}, rows, delta)
                for k in g if c == e else ():
                    g[k].add(moments[k][0])
                for q, order, q_plans in due:
                    if order is None:
                        logn = np.log(ns) if logn is None else logn
                        power = np.exp(q * logn[:j])  # shared by q's kinds, released after them
                    else:
                        scale = np.exp(q * log_mid)
                    for k, plan in q_plans:
                        m = moments[k]
                        if order is None:
                            total = (a(k)[:j] * power).sum()
                        else:
                            t = _taylor_quotient(q, m, order)
                        for acc, log_x in plan:
                            if order is None:
                                acc.add(total if log_x is None else (np.exp(q * log_x) * m[0] - total) / q)
                            elif log_x is None:
                                acc.add(scale * (m[0] + q * t))
                            else:
                                acc.add(scale * (m[0] * _expm1_over(q, log_x - log_mid) - t))
                    power = None


def _one_thread() -> bool:
    """Whether this process runs a single OS thread, as Linux's /proc
    shows; False where it cannot be read.

    A pass splits only then. With a BLAS pool of more than one thread
    in each of two folding processes the cores are oversubscribed, and
    the moments' dot products wait on descheduled workers: with two
    OpenBLAS threads on a 2-core Xeon, run_default_suite(X=1e6) took a
    median 0.41 s split against 0.06 s unsplit. And a fork from a
    process with threads is unsafe."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _families(requests, stop) -> list:
    """The requests of the caller's _Fold, then, where the pass splits,
    those of a family child's (_FoldChild): the other kinds' and the root
    kinds'. A pass splits when it serves both families on a range
    [1, stop) of more than _SUB_BLOCK terms, holds no _Prefix (whose
    visits run in the caller), os.fork exists and this process runs one
    thread (_one_thread)."""
    root = [r for r in requests if r.kind in _ROOT_KINDS]
    rest = [r for r in requests if r.kind not in _ROOT_KINDS]
    if (not (root and rest) or stop - 1 <= _SUB_BLOCK or not hasattr(os, "fork")
            or any(isinstance(r, _Prefix) for r in requests) or not _one_thread()):
        return [requests]
    return [rest, root]


class _FoldChild:
    """A forked process (liouville._fork) that folds the root family's
    _Fold over [1, stop).

    send() writes each segment's lambda into one pipe, which the child
    reads straight into an array of its own, cut as _iter_segments cuts
    [1, stop); the root kinds never read the squareful mask. result()
    reads a second pipe to its end, the pickled fold.result() or the
    exception the fold raised, before it reaps the child, so that a
    result of any size gets through; it returns the one and raises the
    other. close() kills and reaps a child still there.
    """

    def __init__(self, fold: _Fold, stop: int):
        lows = range(1, stop, liouville.DEFAULT_SEGMENT)
        seg_r, self.seg_w = liouville._pipe()
        self.out_r, out_w = os.pipe()
        self.pid = liouville._fork(lambda: _fold_ahead(fold, lows, stop, seg_r, out_w),
                                   (seg_r, out_w), (self.seg_w, self.out_r))

    def send(self, lam) -> None:
        try:
            _write_all(self.seg_w, lam)
        except BrokenPipeError:  # the child stopped reading; result() raises its error
            self.result()
            raise

    def result(self) -> tuple[list, list]:
        with open(self.out_r, "rb") as pipe:
            self.out_r = None
            payload = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status or not payload:
            raise ZetalabError(f"the Abel fold process exited with status {status}")
        import pickle

        folded, value = pickle.loads(payload)
        if not folded:
            raise value
        return value

    def close(self) -> None:
        liouville._kill(self.pid)
        os.close(self.seg_w)
        if self.out_r is not None:
            os.close(self.out_r)


def _fold_ahead(fold, lows, stop, seg_r, out_w):
    """The work of _FoldChild's child: fold the lambda of the segments
    from lows, read from the pipe seg_r, then write (True, fold.result())
    or (False, the exception raised) pickled into the pipe out_w. seg_r
    is closed first, so that a parent still sending stops at once."""
    import pickle

    try:
        with open(seg_r, "rb") as pipe:
            for lo in lows:
                got = liouville._read_segment(pipe, min(lo + lows.step, stop) - lo, [np.int8])
                if got is None:
                    raise ZetalabError(f"the Abel pass sent no segment from {lo}")
                fold.segment(lo, got[0], None)
        result = True, fold.result()
    except BaseException as exc:
        result = False, exc
    _write_all(out_w, pickle.dumps(result))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused after the pass
def _evaluate(requests) -> dict:
    """Values of _Polynomial and _Integral requests, keyed by request.

    One ordered pass of the factor kernel serves every request: each
    segment's lambda and squareful mask give every kind's a(n). Segments
    start at n = 1 and are walked in sub-blocks [b, e) of _SUB_BLOCK, on
    one grid when DEFAULT_SEGMENT is a multiple of it. A sub-block builds
    the a(n) of a kind on first use, all from one reciprocal 1/n and its
    square root (_coefficients), and a range adds nothing for a kind whose
    a(n) all vanish there, read from the range and the squareful mask
    (_live). Each request keeps its own compensated sum of one term per
    sub-block below its stop (x, for an integral), that of the range
    [b, min(stop, e)), whose moments all sums ending there share.

    On a range [b, c) with centre log N = (log b + log(c-1))/2 and
    delta = log n - log N, |delta| <= h, a kind's moments
    m_k = sum a(n) delta^k come from one running power array, row k the
    same whatever the other kinds and orders. A polynomial adds
    N^q (m_0 + q T) and an integral N^q (m_0 expm1(q D)/q - T), with T
    to the order its own |q| h needs (_taylor_quotient, _taylor_order)
    and D = log x - log N. Where |q| h > 1 the range sums
    S = sum a(n) n^q term by term, and an integral adds (x^q m_0 - S)/q.
    So a request's bits depend only on its kind, q, stop and the grid,
    never on the other requests of its pass. One running G per kind, the
    compensated sum of its whole sub-blocks' m_0 plus a cumsum within the
    sub-block, feeds the tail envelopes of the integrals whose tail is
    modeled (a max over [window_lo, x), _fold_envelopes) and the visits
    of _Prefix requests (below their stop), which have no value. A
    direct-route power array lives only while its exponent's sums use it.

    A pass that serves both coefficient families on more than _SUB_BLOCK
    terms, the root kinds F_HALF and L_XI (from sqrt(1/n)) and the
    others, and holds no _Prefix, whose visits run here, folds them in
    two processes (_families). A child forked before the stream starts
    folds the root family. The caller runs the one stream, sends each
    segment's lambda bytes on to the child before it folds the segment
    itself, and folds the other family. The child hands back its sums and
    envelope maxima pickled, with their exact bits, or its exception,
    with its type and message (_FoldChild). As no bit of a request
    depends on the others, none depends on the split. Without os.fork,
    or in a process that runs more than one thread, such as a BLAS
    pool's, the pass runs in-process.

    A value with a part that is not finite, a sum past double precision,
    raises PrecisionError.
    """
    requests = set(requests)
    stop = max(r.x if isinstance(r, _Integral) else r.stop for r in requests)
    kernel = _unsieved if {r.kind for r in requests} == {StepKind.ONE} else _factor_segment
    folds = [_Fold(family) for family in _families(requests, stop)]
    children = [_FoldChild(fold, stop) for fold in folds[1:]]
    segments = _iter_segments(kernel, 1, stop)
    try:
        for lo, (lam, squareful) in segments:
            for child in children:
                child.send(lam)
            folds[0].segment(lo, lam, squareful)
        results = [folds[0].result(), *(child.result() for child in children)]
    finally:
        segments.close()
        for child in children:
            child.close()

    values, env_max = {}, {}
    for fold, (sums, maxima) in zip(folds, results):
        values.update(zip(fold.sums, sums))
        env_max.update(zip(fold.envs, maxima))
    out = {r: values[r] for r in requests if not isinstance(r, _Prefix)}
    for r, value in out.items():
        if not np.isfinite(value):
            stop = r.x if isinstance(r, _Integral) else r.stop
            raise PrecisionError(f"the {r.kind.value} sum at q={r.q} below {stop} "
                                 "is not finite in double precision")
    for r in requests:
        if isinstance(r, _Integral):
            out[r] = _result(r, complex(out[r]), env_max.get((r.kind, r.envelope, r.window_lo, r.x)))
    return out


def _result(r: _Integral, value: complex, env_max: float | None) -> IntegralResult:
    sigma_d = r.decay
    if sigma_d > 1.0:
        tail = env_max * r.x ** (1.0 - sigma_d) / (sigma_d - 1.0)
        fitted = f"fitted on [{r.window_lo}, {r.x}]"
        if r.kind is StepKind.P_OVER_U:
            model = f"|P(u)/u| <= {env_max:.3e} {fitted}"
        elif r.kernel == "half_shifted":
            model = f"|G(u)| <= {env_max:.3e} * sqrt(u) {fitted}"
        else:
            model = f"|G(u)| <= {env_max:.3e} {fitted}"
    else:
        tail = math.inf
        model = UNMODELED
    return IntegralResult(
        value=value,
        truncation=r.x,
        tail_estimate=tail,
        converged=tail < r.tolerance,
        tail_model=model,
    )


def integrate_step(
    kind: StepKind,
    s: complex,
    X: int,
    *,
    kernel: str = "auto",
    tolerance: float = 1e-6,
) -> IntegralResult:
    """Integrate kind's step function against its kernel over [1, X],
    exactly, by Abel summation.

    The kernel is u^(-s-1/2) for the F/L kinds and u^(-s) for T_SUM and
    P_OVER_U; pass kernel="plain" or "half_shifted" to override. The
    tail envelope is fitted on the last decade [X/10, X].
    """
    r = _integral(kind, s, X, kernel, tolerance)
    return _evaluate([r])[r]


def j_xi(s: complex, X: int) -> IntegralResult:
    """Truncation of J(s) = integral of L_u against u^(-s-1/2).

    Unconditional convergence holds only for sigma > 1; for
    1/2 < sigma <= 1 the returned value is the truncated integral and
    the tail is reported as unmodeled. The envelope window here is the
    last octave [X/2, X], where |L_u| grows too slowly to need a decade.
    """
    r = _j_xi(s, X)
    return _evaluate([r])[r]


class SigmaCEstimate(NamedTuple):
    """Empirical bracketing of a convergence abscissa.

    classifications maps each grid sigma to "converging", "diverging",
    or "inconclusive"; (lower, upper) is the tightest bracket the
    conclusive points allow, widened across any inconclusive points
    between them (flagged when that happens).
    """

    kind: StepKind
    kernel: str
    sigma_grid: tuple[float, ...]
    x_schedule: tuple[int, ...]
    traces: dict[float, tuple[complex, ...]]
    classifications: dict[float, str]
    lower: float
    upper: float
    flags: tuple[str, ...]


_CAUCHY_TOL = 1e-3
_SLOPE_MARGIN = 0.01


def _classify_trace(values, x_schedule):
    diffs = np.abs(np.diff(np.asarray(values, dtype=np.complex128)))
    if len(diffs) < 2:
        return "inconclusive"
    cauchy = bool(np.all(diffs[-2:] < _CAUCHY_TOL))
    if cauchy:
        return "converging"
    logx = np.log(np.asarray(x_schedule[1:], dtype=np.float64))
    logd = np.log(np.maximum(diffs, 1e-300))
    slope = float(np.polyfit(logx, logd, 1)[0])
    if slope < -_SLOPE_MARGIN:
        return "converging"
    if slope > _SLOPE_MARGIN:
        return "diverging"
    return "inconclusive"


def estimate_sigma_c(
    kind: StepKind,
    sigma_grid,
    x_schedule,
    *,
    kernel: str = "auto",
    trace_path: str | None = None,
) -> SigmaCEstimate:
    """Bracket the convergence abscissa of the truncated integrals.

    Each sigma on the grid gets a trace of partial integrals over
    x_schedule and a two-route classification: Cauchy (last two
    successive differences below 1e-3) or the log-log slope of the
    successive differences (negative beyond a 0.01 margin means the
    partials are still settling, positive means they are drifting
    apart). Slopes inside the margin are inconclusive, which widens the
    reported bracket instead of forcing a call.
    """
    grid = [float(v) for v in sigma_grid]
    sched = [int(v) for v in x_schedule]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("sigma_grid must be ascending with >= 2 points")
    if len(sched) < 3 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise DomainError("x_schedule must be increasing with >= 3 points")

    kernel = _resolve_kernel(kind, kernel)
    traces: dict[float, tuple[complex, ...]] = {}
    tails: dict[float, tuple[float, ...]] = {}
    classifications: dict[float, str] = {}
    # one pass to max(sched) serves every (sigma, x) pair
    requests = {
        (sigma, x): _integral(kind, sigma, x, kernel, math.inf)
        for sigma in grid
        for x in sched
    }
    values = _evaluate(requests.values())
    for sigma in grid:
        results = [values[requests[sigma, x]] for x in sched]
        traces[sigma] = tuple(r.value for r in results)
        tails[sigma] = tuple(r.tail_estimate for r in results)
        classifications[sigma] = _classify_trace(traces[sigma], sched)

    flags: list[str] = []
    diverging = [s for s in grid if classifications[s] == "diverging"]
    converging = [s for s in grid if classifications[s] == "converging"]
    step = grid[1] - grid[0]
    lower = max(diverging) if diverging else grid[0] - step
    upper = min(converging) if converging else grid[-1] + step
    if not diverging:
        flags.append("no divergence observed on grid")
    if not converging:
        flags.append("no convergence observed on grid")
    inconclusive_inside = [
        s for s in grid if classifications[s] == "inconclusive" and lower < s < upper
    ]
    if inconclusive_inside:
        flags.append(
            "inconclusive at sigma in "
            + ", ".join(f"{s:g}" for s in inconclusive_inside)
        )
    if upper < lower:
        flags.append("classification not monotone on grid")
        lower, upper = min(lower, upper), max(lower, upper)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["sigma", "X", "re", "im", "tail_estimate"])
            for sigma in grid:
                for x, v, t in zip(sched, traces[sigma], tails[sigma]):
                    w.writerow([repr(sigma), x, repr(v.real), repr(v.imag), repr(t)])

    return SigmaCEstimate(
        kind=kind,
        kernel=kernel,
        sigma_grid=tuple(grid),
        x_schedule=tuple(sched),
        traces=traces,
        classifications=classifications,
        lower=lower,
        upper=upper,
        flags=tuple(flags),
    )
