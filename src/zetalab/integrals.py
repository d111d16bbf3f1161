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
the package goes through one core, _evaluate(): one ordered pass of the
sieve in one process, whatever the number of requests (_Polynomial,
_Integral, _Prefix). Every kind's a(n) is c(n) n^w from n = 2, c lambda
or mu, plus a(1) where it is 1, so each request reads one of two
coefficient streams at a shift w of its exponent (L_XI two shifts of
lambda's). Within a pass the terms go in sub-blocks of 2^15 on one grid
from n = 1, and a request sums only the range of each below its stop.
Around a range's centre N, with u = q + w, n^u = N^u exp(u log(n/N)), so

    sum c(n) n^u               = N^u (M_0 + u T),
    sum c(n) n^w (X^q - n^q)/q = N^u sum_k c_k M_k / k!,

with M_k = sum c(n) log(n/N)^k, T = sum_{k>=1} u^(k-1) M_k / k!,
c_k = w^k expm1(q D)/q - B_k, B_0 = 0, B_k = u B_(k-1) + w^(k-1) and
D = log(X/N): no cancellation and no division by q (at w = 0 the second
is M_0 expm1(q D)/q - T). A stream's moments serve all its exponents
and shifts, so an exponent costs O(K) scalar operations per range, not
one power per term: the block-Taylor step of Odlyzko and Schoenhage's
multi-evaluation of zeta ("Fast algorithms for multiple evaluations of
the Riemann zeta function", Trans. AMS 1988), with lambda's and mu's
moments as the block data. Where the series would not converge fast,
as in the first sub-block, the range sums its terms one by one.
"""

import bisect
import csv
import enum
import math
from typing import NamedTuple

import numpy as np

from .compensated import ComplexCompensatedSum, CompensatedSum
from .errors import DomainError, PrecisionError
from .liouville import _factor_segment, _iter_segments, _p_bounds, lambda_segment

_SINGULAR_WINDOW = 1e-9
# Terms folded per numpy call; bounds the temporaries for any segment size.
# DEFAULT_SEGMENT is a multiple of it, so the sub-blocks lie on one grid.
_SUB_BLOCK = 1 << 15
# A range's Taylor series in u log(n/N) stops where its first omitted term
# is below about 2^-60 of h times the range's sum of |c(n) N^u| (_taylor_order).
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
# kind -> the parts (mu, w, sign) of its a(n) from n = 2: sign c(n) n^w, c
# mu where mu is True and lambda otherwise
_PARTS = {
    StepKind.F_HALF: ((False, -0.5, 1.0),),
    StepKind.F_ONE: ((False, -1.0, 1.0),),
    StepKind.L_XI: ((False, -0.5, 1.0), (False, -1.0, -1.0)),
    StepKind.T_SUM: ((False, -1.0, 1.0),),
    StepKind.P_OVER_U: ((False, 0.0, 1.0),),
    StepKind.MU_ONE: ((True, -1.0, 1.0),),
    StepKind.ONE: (),
}
# The kinds with a(1) = 1, which the pass adds apart from the streams.
_UNIT_HEAD = {StepKind.T_SUM, StepKind.P_OVER_U, StepKind.ONE}


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
    return np.zeros(hi - lo, dtype=np.int8)


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
    squareful mask: a fresh array for the cumsum of a tail envelope's
    fold or of a _Prefix's visits, dropped once that is formed.

    a(n) sums sign c(n) n^w over the kind's _PARTS (ONE's is [n = 1]),
    with n^(-1) one reciprocal r = 1/n and n^(-1/2) np.sqrt(r): both steps
    are correctly rounded, so each is non-increasing in n and sqrt(r) lies
    within an ulp of the correctly rounded n^(-1/2). As c is in {-1, 0, 1},
    F_ONE, T_SUM and MU_ONE are the bits of c/n, and L_XI is
    lambda (sqrt(r) - r), rounded once.
    """
    recip = root = None  # 1/n and its square root, built when a kind first needs them

    def a(kind):
        nonlocal recip, root
        out = None if _PARTS[kind] else np.zeros(len(ns))
        for mu, w, sign in _PARTS[kind]:
            c = np.where(squareful, 0.0, lam) if mu else lam
            if w:
                recip = 1.0 / ns if recip is None else recip
                root = np.sqrt(recip) if root is None and w == -0.5 else root
                c = c * (recip if w == -1.0 else root)
            out = c if out is None else out + sign * c  # a first part's sign is +1
        if ns[0] == 1 and kind is not StepKind.T_SUM and kind is not StepKind.P_OVER_U:
            out[0] = float(kind is StepKind.ONE)  # a(1) = 0 conventions
        return out

    return a


def _live(mu, b, j, squareful) -> bool:
    """Whether mu's stream (mu True) or lambda's is nonzero somewhere on the
    range [max(b, 2), b + j) of a sub-block from b, read from the range and
    the squareful mask: lambda is never 0, and mu is 0 on squareful n."""
    first = int(b == 1)
    return first < j and not (mu and squareful[first:j].all())


def _template(entries) -> tuple[list, dict]:
    """(heads, due) of a range's plan entries [(q, kind, sum, log x or None)]:
    heads [(q, sum, log x)] of the kinds with a(1) = 1, and due
    q -> w -> (stream, log x) -> [(sign, sum)] of their stream parts."""
    heads, due = [], {}
    for q, k, acc, log_x in entries:
        if k in _UNIT_HEAD:
            heads.append((q, acc, log_x))
        for mu, w, sign in _PARTS[k]:
            due.setdefault(q, {}).setdefault(w, {}).setdefault((mu, log_x), []).append((sign, acc))
    return heads, due


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

    Each a(n) is c(n) w(n) with c in {lambda, mu} and w(n) the sum of
    sign n^w over its _PARTS, positive and non-increasing on the float n
    from b, so by Abel summation every sum of a from b is at most d w(b)
    in size. Each float term is within 2^-50 w(b) of its a(n),
    u = 2^-53 (_coefficients): 1/n is within u/n,
    np.sqrt of it within 1.51 u n^(-1/2), and for L_XI, where
    n^(-1/2) <= 2 w(n) and 1/n <= w(n) from n = 4, the difference adds
    its own rounding, 5.03 u w(b) in all. np.cumsum adds at most
    2 m u (d + m) w(b) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2). g0 is the float the fold adds, so
    it needs no margin. The factor 1 + 2^-40 covers the rounding of that
    add, of n**ex (a few ulp) and the divide, and of evaluating this
    bound; first**ex is at most every n**ex the fold divides by, as ex >= 0.
    """
    if kind is StepKind.ONE or kind is StepKind.L_XI and b < 4:
        return math.inf
    w_b = sum(sign * b**w for _, w, sign in _PARTS[kind])
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
    """Smallest K >= 1 with x^K/(K+1)! <= 2^-60, or None when x > 1 and
    the range takes the direct route. For a polynomial at u = q + w,
    x = |u| h, and T's first omitted term is below 2^-60 h of the range's
    sum |c(n) N^u|, the value's x times less. For an integral,
    x = max(|u|, |w|) h: as |B_k| <= k max(|u|, |w|)^(k-1), its first
    omitted term is below 2^-60 (x |E| + (K + 1) h) of that sum,
    E = expm1(q D)/q."""
    if x > 1.0:
        return None
    order, term = 1, x / 2
    while term > _TAYLOR_TOL:
        order += 1
        term *= x / (order + 1)
    return order


def _moments(a: dict, rows: dict, delta: np.ndarray) -> dict:
    """{key: [m_0, ..., m_top]}, m_j = sum a[key] delta^j, for each
    stream's top row in rows (delta is read only above row 0). Row j is the
    same whatever the other streams and tops: delta^j is one running array."""
    moments = {k: [float(a[k].sum())] for k in rows}
    for row in range(1, max(rows.values(), default=0) + 1):
        delta_row = delta.copy() if row == 1 else np.multiply(delta_row, delta, out=delta_row)
        for k, top in rows.items():
            if row <= top:
                moments[k].append(float(np.dot(a[k], delta_row)))
    return moments


def _taylor_quotient(q, m, order: int):
    """T = sum_{1 <= k <= order} q^(k-1) m_k / k!, by Horner:
    m_1 + q/2 (m_2 + q/3 (m_3 + ...)). It is (sum c(n) e^(q delta) - m_0)/q."""
    value = m[order]
    for row in range(order, 1, -1):
        value = m[row - 1] + value * q / row
    return value


def _integral_series(q, w, m, order: int, d):
    """sum_{k <= order} c_k m_k / k!, c_k = w^k expm1(q d)/q - B_k with
    B_0 = 0 and B_k = (q + w) B_(k-1) + w^(k-1): a range's
    sum c(n) n^w (x^q - n^q)/q over N^(q+w), d = log(x/N), as
    n^w (x^q - n^q)/q = N^(q+w) e^(w delta) (e^(q d) - e^(q delta))/q.
    Each B_k = ((q + w)^k - w^k)/q is formed without dividing by q."""
    e = np.expm1(q * d).item() / q if q else d
    total, b, w_k, k_fact = m[0] * e, 0.0, 1.0, 1.0
    for k in range(1, order + 1):
        b = (q + w) * b + w_k
        w_k *= w
        k_fact *= k
        total += (w_k * e - b) * m[k] / k_fact
    return total


def _expm1_over(q, d):
    """(e^(q d) - 1)/q, and its limit d at q = 0, for a float d or an array."""
    return np.expm1(q * d) / q if q else d


class _Fold:
    """A pass's state: the exact sum of each request, the tail
    envelope of each integral whose tail is modeled, and one running G
    per kind that an envelope or a _Prefix reads, folded a segment at a
    time (segment)."""

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

    def segment(self, lo, lam, squareful) -> None:
        """Fold the segment from n = lo, its lambda and squareful mask, or
        None for a pass that reads no mu."""
        plans, stops, envs, g, prefixes = self.plans, self.stops, self.envs, self.g, self.prefixes
        hi = lo + len(lam)
        for b in range(lo, hi, _SUB_BLOCK):
            e = min(b + _SUB_BLOCK, hi)
            first = int(b == 1)  # the streams start at n = 2
            ns = np.arange(b, e, dtype=np.float64)
            lam_i8 = lam[b - lo : e - lo]
            sq_b = squareful if squareful is None else squareful[b - lo : e - lo]
            lam_b = lam_i8.astype(np.float64)
            # built on first use, shared by every sum that needs them, dropped with the sub-block
            streams = _Memo(lambda mu: np.where(sq_b, 0.0, lam_b) if mu else lam_b)  # c(n)
            logn = None  # np.log(ns), built by the first range a stream part reads
            a = _coefficients(ns, lam_b, sq_b)
            _fold_envelopes(envs, g, b, ns, a, lam_i8, sq_b)
            for r in prefixes:
                if b < r.stop:
                    j = min(r.stop, e) - b
                    r.visit(ns[:j], g[r.kind].value + np.cumsum(a(r.kind)[:j]))  # G(n) on ns[:j]
            del a
            # range end c -> its plan entries; each G advances by its kind's polynomial at
            # q = 0 on the whole sub-block
            ranges: dict = {e: [(0.0, k, acc, None) for k, acc in g.items()]} if g else {}
            for stop in stops[bisect.bisect_right(stops, b):]:
                ranges.setdefault(min(stop, e), []).extend(plans[stop])
            for c, entries in ranges.items():
                heads, due = _template(entries)
                j = c - b
                span = slice(first, j)
                for q, acc, log_x in heads if first else ():  # a(1) = 1 adds 1^q, or (x^q - 1)/q
                    acc.add(1.0 if log_x is None else _expm1_over(q, log_x))
                live = _Memo(lambda mu: _live(mu, b, j, sq_b))
                if not live[False]:
                    continue
                log_lo, log_hi = np.log(ns[[first, j - 1]]).tolist()  # the bits of np.log(ns) there
                log_mid, h = (log_lo + log_hi) / 2, (log_hi - log_lo) / 2
                orders: dict = {}  # (q, w, whether an integral) -> its order; None: direct
                rows: dict = {}  # stream -> the highest moment row any of its parts needs
                for q, by_w in due.items():
                    for w, by_key in by_w.items():
                        for mu, log_x in by_key:
                            key = q, w, log_x is not None
                            if key not in orders:
                                u = abs(q + w)
                                orders[key] = _taylor_order((max(u, abs(w)) if key[2] else u) * h)
                            if live[mu]:
                                rows[mu] = max(rows.get(mu, 0), orders[key] or 0)
                logn = np.log(ns) if logn is None else logn
                moments = _moments({mu: streams[mu][span] for mu in rows}, rows, logn[span] - log_mid)
                # (stream, w) -> c(n) n^w on the range, for the direct sums; built on first use
                weighted = _Memo(lambda key: streams[key[0]][span] * np.exp(key[1] * logn[span]))
                for q, by_w in due.items():
                    power = None  # n^q, shared by the direct sums of q and released after them
                    for w, by_key in by_w.items():
                        u = q + w
                        scale = np.exp(u * log_mid).item()
                        for (mu, log_x), accs in by_key.items():
                            if mu not in rows:
                                continue  # a stream that is 0 on the range
                            order = orders[q, w, log_x is not None]
                            m = moments[mu]
                            if order is None:
                                power = np.exp(q * logn[span]) if power is None else power
                                terms = weighted[mu, w] * power
                                if log_x is None:
                                    value = terms.sum()
                                elif abs(q) * h > 1.0:  # as far from q = 0 as the moment route's |q| h <= 1
                                    value = (np.exp(q * log_x) * weighted[mu, w].sum() - terms.sum()) / q
                                else:
                                    terms *= _expm1_over(q, log_x - logn[span])
                                    value = terms.sum()
                            elif log_x is None:
                                value = scale * (m[0] + u * _taylor_quotient(u, m, order))
                            else:
                                value = scale * _integral_series(q, w, m, order, log_x - log_mid)
                            for sign, acc in accs:
                                acc.add(sign * value)
                    power = None


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused after the pass
def _evaluate(requests) -> dict:
    """Values of _Polynomial and _Integral requests, keyed by request.

    One ordered pass of the factor kernel, in one process, serves every
    request. Its kernel builds the squareful mask, and so mu, only for a
    pass that holds a MU_ONE request, and a pass that serves ONE alone
    sieves nothing. Segments start at n = 1 and are walked in sub-blocks
    [b, e) of _SUB_BLOCK, on one grid when DEFAULT_SEGMENT is a multiple
    of it. Each request keeps its own exact sum of one term per
    sub-block below its stop (x, for an integral) and per part of its
    kind (_PARTS), that of the range [b, min(stop, e)), plus its a(1) = 1
    apart, so its value is math.fsum of those terms, whatever their
    order. A range skips a stream that is 0 there (_live).

    On a range of half-width h in log n, a part at u = q + w takes its
    stream's moments, whose row k is the same whatever the other streams
    and orders, to the order its own q, w and h need (_taylor_order,
    _integral_series). Where that would not converge fast, the range sums
    c(n) n^w n^q term by term: an integral takes (x^q sum c(n) n^w - that)/q
    where |q| h > 1 and a factor expm1(q log(x/n))/q per term nearer
    q = 0. So a request's bits depend only on its kind, q, stop and the
    grid, never on the other requests of its pass. One running G per
    kind, the sum of its polynomials at q = 0 on whole sub-blocks plus a
    cumsum of its own a(n) within one (_coefficients), feeds the tail
    envelopes of the integrals whose tail is modeled (a max over
    [window_lo, x), _fold_envelopes) and the visits of _Prefix requests
    (below their stop), which have no value.

    A value with a term that is not finite, or whose exact sum is past
    double precision, raises PrecisionError.
    """
    requests = set(requests)
    stop = max(r.x if isinstance(r, _Integral) else r.stop for r in requests)
    kinds = {r.kind for r in requests}
    mask = StepKind.MU_ONE in kinds
    kernel = _factor_segment if mask else _unsieved if kinds == {StepKind.ONE} else lambda_segment
    fold = _Fold(requests)
    segments = _iter_segments(kernel, 1, stop)
    try:
        for lo, out in segments:
            fold.segment(lo, *(out if mask else (out, None)))
    finally:
        segments.close()

    out = {r: acc.value for r, acc in fold.sums.items()}
    for r, value in out.items():
        if not np.isfinite(value):
            stop = r.x if isinstance(r, _Integral) else r.stop
            raise PrecisionError(f"the {r.kind.value} sum at q={r.q} below {stop} "
                                 "is not finite in double precision")
    for r in requests:
        if isinstance(r, _Integral):
            out[r] = _result(r, complex(out[r]), fold.envs.get((r.kind, r.envelope, r.window_lo, r.x)))
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
