"""End-to-end residual checks for the zeta ratio identity chain.

Each check pits two independently computed routes against each other
and reports |lhs - rhs| with an explicit tolerance. Inside the
unconditional half-plane sigma > 1 the tolerance is twice the modeled
truncation tail (never below 1e-6, the rounding floor of the pipeline);
for 1/2 < sigma <= 1, where convergence of the integral routes is
conditional, cases carry an "empirical" flag and a fixed 1e-2 band, and
they report honestly rather than assert. Observational scans (the
running maximum of L_x, the growth exponent of P) return reports with
no pass/fail at all: they concern open problems. Every check is a set
of requests to the Abel core (integrals._evaluate), so a suite makes
one sieve pass; the scans read L_x and P(n) through its visits.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .integrals import StepKind, _evaluate, _integral, _j_xi, _Polynomial, _Prefix
from .zeta import _lambda_series, shifted_ratio, zeta, zeta_ratio

DEFAULT_S_POINTS = (2.0, 3.0, 1.5 + 2j, 0.75, 0.6 + 1j)
DEFAULT_X = 10**6
_FLOOR = 1e-6
_EMPIRICAL_BAND = 1e-2


class VerificationCase(NamedTuple):
    """One lhs-vs-rhs comparison; residual = |lhs - rhs| always.

    passed means residual <= tolerance. Cases flagged "empirical" sit
    in the conditional region and are reported but not load-bearing.
    """

    name: str
    s: complex | None
    X: int
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool
    flags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "s_re": None if self.s is None else self.s.real,
            "s_im": None if self.s is None else self.s.imag,
            "X": self.X,
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "flags": list(self.flags),
        }


def _case(name, s, X, lhs, rhs, tolerance, flags=()):
    lhs = complex(lhs)
    rhs = complex(rhs)
    residual = abs(lhs - rhs)
    return VerificationCase(
        name=name,
        s=None if s is None else complex(s),
        X=int(X),
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        tolerance=float(tolerance),
        passed=residual <= tolerance,
        flags=tuple(flags),
    )


def _run(plans) -> list[VerificationCase]:
    """Build each (requests, build) plan's case from one shared evaluation.

    The evaluation makes one sieve pass for all plans together, so a
    suite costs what its largest single check costs. A plan takes its
    zeta values when it is made, so a point past their range is refused
    before the pass.
    """
    results = _evaluate([r for requests, _ in plans for r in requests])
    return [build(results) for _, build in plans]


def _pnt_limit(x):
    x = int(x)
    if x < 2:
        raise DomainError("verify_pnt_limit needs x >= 2")
    f_one = _Polynomial(StepKind.F_ONE, 0.0, x + 1)  # F_x(1), its own accumulator

    def build(r):
        if x >= 10**6:
            tol, flags = 1e-2, ()
        else:
            tol, flags = 2.0, ("coarse_band",)
        return _case("pnt_limit", None, x, r[f_one], -1.0, tol, flags)

    return [f_one], build


def verify_pnt_limit(x: int) -> VerificationCase:
    """F_x(1) against its limit -1 (equivalent to the prime number theorem).

    No unconditional rate is known, so the band is coarse below 10^6
    and 0.01 from there on.
    """
    return _run([_pnt_limit(x)])[0]


def _reciprocal_integral(s, X):
    s = complex(s)
    if s.real <= 1:
        raise DomainError("verify_reciprocal_integral needs sigma > 1")
    mu = _integral(StepKind.MU_ONE, s, X)
    zeta_s = zeta(s)

    def build(r):
        lhs = (-1.0 + 1.0 / zeta_s) / (s - 1.0)
        tol = max(_FLOOR, 2.0 * r[mu].tail_estimate)
        return _case("zeta_reciprocal_integral", s, X, lhs, r[mu].value, tol)

    return [mu], build


def verify_reciprocal_integral(s: complex, X: int = DEFAULT_X) -> VerificationCase:
    """(-1 + 1/zeta(s))/(s-1) against the integral of the Mobius prefix sum.

    The step function is sum_{2<=n<=u} mu(n)/n under the plain u^(-s)
    kernel; valid for sigma > 1.
    """
    return _run([_reciprocal_integral(s, X)])[0]


def _ratio_integral(s, X):
    s = complex(s)
    if s.real <= 1:
        raise DomainError("verify_ratio_integral needs sigma > 1")
    half = _integral(StepKind.F_HALF, s, X)
    ratio = zeta_ratio(s)

    def build(r):
        lhs = (ratio - 1.0) / (s - 0.5)
        tol = max(_FLOOR, 2.0 * r[half].tail_estimate)
        return _case("ratio_integral", s, X, lhs, r[half].value, tol)

    return [half], build


def verify_ratio_integral(s: complex, X: int = DEFAULT_X) -> VerificationCase:
    """(zeta(2s)/zeta(s) - 1)/(s - 1/2) against the F_u(1/2) integral."""
    return _run([_ratio_integral(s, X)])[0]


def _ratio_decomposition(s, X):
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError("verify_ratio_decomposition needs sigma > 1/2")
    if s == 1:
        raise DomainError("s = 1 sits on the zeta pole")
    j, one = _j_xi(s, X), _integral(StepKind.F_ONE, s, X)
    ratio = zeta_ratio(s)

    def build(r):
        lhs = (ratio - 1.0) / (s - 0.5) - r[j].value
        if s.real > 1:
            tol = max(_FLOOR, 2.0 * (r[j].tail_estimate + r[one].tail_estimate))
            flags = ()
        else:
            tol = _EMPIRICAL_BAND
            flags = ("empirical",)
        return _case("ratio_decomposition", s, X, lhs, r[one].value, tol, flags)

    return [j, one], build


def verify_ratio_decomposition(s: complex, X: int = DEFAULT_X) -> VerificationCase:
    """The three-term split: ratio integral minus J equals the F_u(1) integral.

    For sigma > 1 the tolerance is twice the summed tails of the two
    integrals actually evaluated (a triangle bound on the untracked
    F_half tail); in the conditional strip the case is empirical.
    """
    return _run([_ratio_decomposition(s, X)])[0]


def _shifted_identity(s, X):
    """The plan of verify_shifted_identity. Its series cross-check is
    lambda_series(s + 1/2, X), F_ONE's polynomial at q = 1/2 - s plus 1,
    whose flag reads |rhs - series|."""
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError("verify_shifted_identity needs sigma > 1/2")
    if s == 1:
        raise DomainError("s = 1 sits on the zeta pole")
    j = _j_xi(s, X)
    # in the suite, the decomposition's F_ONE integral at s forms the same moments
    series, series_value = _lambda_series(s + 0.5, X)
    ratio, rhs = zeta_ratio(s), shifted_ratio(s)

    def build(r):
        lhs = ratio - (s - 0.5) * r[j].value
        flags = [f"series_xcheck_gap={abs(rhs - series_value(r)):.3e}"]
        if s.real > 1:
            tol = max(_FLOOR, 2.0 * abs(s - 0.5) * r[j].tail_estimate)
        else:
            tol = _EMPIRICAL_BAND
            flags.append("empirical")
        return _case("shifted_ratio_identity", s, X, lhs, rhs, tol, flags)

    return [j, series], build


def verify_shifted_identity(s: complex, X: int = DEFAULT_X) -> VerificationCase:
    """zeta(2s)/zeta(s) - (s-1/2) J(s) against zeta(2s+1)/zeta(s+1/2).

    The rhs is additionally cross-checked against the truncated series
    sum lambda(n) n^(-s-1/2); the gap rides along as a flag.
    """
    return _run([_shifted_identity(s, X)])[0]


def _finite_linearity(s, X):
    s = complex(s)
    parts = [_integral(kind, s, X) for kind in (StepKind.F_HALF, StepKind.F_ONE, StepKind.L_XI)]

    def build(r):
        half, one, l_xi = (r[p].value for p in parts)
        return _case("finite_linearity", s, X, half, one + l_xi, 1e-12)

    return parts, build


def verify_finite_linearity(s: complex, X: int = DEFAULT_X) -> VerificationCase:
    """Exact finite-X collapse: F_half integral = F_one integral + L integral.

    Holds at every s and X by construction of L, independent of any
    convergence question; the band is pure rounding.
    """
    return _run([_finite_linearity(s, X)])[0]


class ConditionRReport(NamedTuple):
    """Running maximum of L_x over 2 <= x <= x_max; observational only.

    best_r is 1 - max_value, the largest r for which L_x <= 1 - r held
    on the scanned range. No pass/fail: whether such an r persists for
    all large x is open.
    """

    x_max: int
    max_value: float
    argmax: int
    best_r: float


def explore_condition_r(x_max: int) -> ConditionRReport:
    x_max = int(x_max)
    if x_max < 2:
        raise DomainError("explore_condition_r needs x_max >= 2")
    best, arg = -math.inf, 2

    def visit(ns, running_l):
        nonlocal best, arg
        vals = np.where(ns >= 2, running_l, -math.inf)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, arg = float(vals[i]), int(ns[i])

    _evaluate([_Prefix(StepKind.L_XI, x_max + 1, visit)])
    return ConditionRReport(x_max=x_max, max_value=best, argmax=arg, best_r=1.0 - best)


class GrowthExponentReport(NamedTuple):
    """Least-squares slope of log|P| against log x over record peaks."""

    x_max: int
    exponent: float
    stderr: float
    peak_count: int
    flags: tuple[str, ...]


def fit_growth_exponent(xs, values) -> tuple[float, float, int]:
    """Fit log|values| ~ c + e*log(xs) over running-maximum peaks.

    Returns (exponent, stderr, number of peaks used). Zero values and
    non-record points are dropped; needs at least 3 peaks.
    """
    xs = np.asarray(xs, dtype=np.float64)
    vals = np.abs(np.asarray(values, dtype=np.float64))
    peaks_x, peaks_v = [], []
    record = 0.0
    for x, v in zip(xs, vals):
        if v > record:
            record = v
            peaks_x.append(x)
            peaks_v.append(v)
    if len(peaks_x) < 3:
        raise DomainError("need at least 3 record peaks for a slope fit")
    lx = np.log(np.asarray(peaks_x))
    lv = np.log(np.asarray(peaks_v))
    (slope, _), cov = np.polyfit(lx, lv, 1, cov=True)
    return float(slope), float(math.sqrt(max(cov[0][0], 0.0))), len(peaks_x)


def growth_exponent_diagnostic(x_max: int) -> GrowthExponentReport:
    """Observational estimate of the growth exponent of P(x) = sum lambda(n)."""
    x_max = int(x_max)
    if x_max < 10**3:
        raise DomainError("growth_exponent_diagnostic needs x_max >= 1000")
    xs_peaks, v_peaks, record = [], [], 0.0

    def visit(ns, p):
        # P_OVER_U's running sum is P(n) itself, exact in float64: an integer below 2^53
        nonlocal record
        av = np.abs(p)
        hits = av > np.maximum.accumulate(np.concatenate(([record], av[:-1])))  # strict records
        xs_peaks.extend(ns[hits])
        v_peaks.extend(av[hits])
        record = max(record, float(av.max()))

    _evaluate([_Prefix(StepKind.P_OVER_U, x_max + 1, visit)])
    exponent, stderr, count = fit_growth_exponent(xs_peaks, v_peaks)
    flags = []
    if x_max <= 10**3 or count < 10:
        flags.append("small_sample")
    if stderr > 0.05:
        flags.append("wide_confidence")
    return GrowthExponentReport(
        x_max=x_max,
        exponent=exponent,
        stderr=stderr,
        peak_count=count,
        flags=tuple(flags),
    )


def run_default_suite(s_points=DEFAULT_S_POINTS, X: int = DEFAULT_X) -> list[VerificationCase]:
    """All identity checks at the default evaluation points.

    sigma > 1 points exercise every route; conditional-strip points get
    the empirical decomposition and identity cases plus the exact
    linearity collapse. All cases share one sieve pass.
    Results are sorted by (name, s, X) so repeated runs serialize
    identically.
    """
    plans = [_pnt_limit(X)]
    for s in s_points:
        s = complex(s)
        if s.real > 1:
            plans.append(_reciprocal_integral(s, X))
            plans.append(_ratio_integral(s, X))
        if s.real > 0.5 and s != 1:
            plans.append(_ratio_decomposition(s, X))
            plans.append(_shifted_identity(s, X))
        plans.append(_finite_linearity(s, X))
    return sort_cases(_run(plans))


def sort_cases(cases) -> list[VerificationCase]:
    def key(c: VerificationCase):
        s = c.s if c.s is not None else complex(-math.inf, 0)
        return (c.name, s.real, s.imag, c.X)

    return sorted(cases, key=key)


def write_report_json(cases, path: str) -> None:
    """Serialize cases (sorted) to a JSON array with fixed field order."""
    with open(path, "w") as fh:
        fh.write(report_json_text(cases) + "\n")


def report_json_text(cases) -> str:
    return json.dumps([c.to_json_dict() for c in sort_cases(cases)], indent=2)
