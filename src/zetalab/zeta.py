"""Euler-Maclaurin zeta evaluation and the two zeta ratios.

Double precision only, with an explicit error estimate (magnitude of
the first omitted Bernoulli correction). The Bernoulli numbers are
exact rationals, each rounded once to the nearest double. The strip
sigma > -1 with |t| <= 100 covers every identity the workbench checks
(the ratios, which take zeta at 2s, reach |t| <= 50); there is no
functional-equation reflection and no Riemann-Siegel regime.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DivisionInstabilityError,
    DomainError,
    PoleError,
    PrecisionError,
)
from .integrals import StepKind, _evaluate, _Polynomial

_SIGMA_FLOOR = -1.0
_T_CEILING = 100.0
_ZERO_GUARD = 1e-14
# A value whose estimated error exceeds this raises PrecisionError.
_TARGET_ABS_ERROR = 1e-12
# Largest explicit cutoff: the head sum allocates one term per n < cutoff.
_MAX_CUTOFF = 10**6


class _ZetaParamsFields(NamedTuple):
    cutoff: int | None
    bernoulli_terms: int


class ZetaParams(_ZetaParamsFields):
    """Euler-Maclaurin truncation policy.

    cutoff=None picks N = max(50, 2*(|t|+10)) at call time; an explicit
    cutoff below that floor is rejected rather than silently honored,
    since the tail expansion is asymptotic and needs N well past |t|.
    """

    __slots__ = ()

    def __new__(cls, cutoff: int | None = None, bernoulli_terms: int = 8):
        if not 2 <= bernoulli_terms <= 15:
            raise DomainError("bernoulli_terms must be in [2, 15]")
        if cutoff is not None and cutoff < 2:
            raise DomainError("cutoff must be >= 2")
        if cutoff is not None and cutoff > _MAX_CUTOFF:
            raise DomainError(f"cutoff must be at most {_MAX_CUTOFF}")
        return super().__new__(cls, cutoff, bernoulli_terms)


DEFAULT_PARAMS = ZetaParams()

# B_2, B_4, ..., B_32: bernoulli_terms + 1 <= 16 entries are ever read.
# Each int / int quotient is the correctly rounded double.
_EVEN_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30,
    5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
    8553103 / 6, -23749461029 / 870, 8615841276005 / 14322, -7709321041217 / 510,
)


def zeta_with_error(s: complex, params: ZetaParams = DEFAULT_PARAMS) -> tuple[complex, float]:
    """zeta(s) plus an absolute error estimate.

    The estimate is the magnitude of the first omitted correction term,
    the standard heuristic for this alternating asymptotic tail.
    """
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if s == 1:
        raise PoleError("zeta has a pole at s = 1")
    if s.real <= _SIGMA_FLOOR:
        raise DomainError(f"sigma must exceed {_SIGMA_FLOOR}")
    if abs(s.imag) > _T_CEILING:
        raise DomainError(f"|t| must not exceed {_T_CEILING}")

    floor = 2.0 * (abs(s.imag) + 10.0)
    if params.cutoff is None:
        n_cut = max(50, math.ceil(floor))
    else:
        n_cut = params.cutoff
        if n_cut < floor:
            raise DomainError(
                f"cutoff {n_cut} below stability floor {floor:.0f} for t={s.imag}"
            )

    ns = np.arange(1, n_cut, dtype=np.float64)
    head_terms = np.exp(-s * np.log(ns))
    head = complex(math.fsum(head_terms.real), math.fsum(head_terms.imag))

    nf = float(n_cut)
    value = head + nf ** (1 - s) / (s - 1) + 0.5 * nf ** -s

    kmax = params.bernoulli_terms
    b2k = _EVEN_BERNOULLI[: kmax + 1]
    poch = s  # (s)_1
    fact = 2.0  # (2k)! at k=1
    npow = nf ** (-s - 1)  # N^{-s-2k+1} at k=1
    n2 = nf * nf
    term = 0j
    for k in range(1, kmax + 1):
        term = (b2k[k - 1] / fact) * poch * npow
        value += term
        # advance to k+1: multiply Pochhammer by next two factors, etc.
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        fact *= (2 * k + 1) * (2 * k + 2)
        npow /= n2
    omitted = (b2k[kmax] / fact) * poch * npow
    err = abs(omitted)
    if err > _TARGET_ABS_ERROR:
        raise PrecisionError(
            f"estimated error {err:.3e} exceeds target {_TARGET_ABS_ERROR:.1e};"
            " raise cutoff or bernoulli_terms"
        )
    return value, err


def zeta(s: complex, params: ZetaParams = DEFAULT_PARAMS) -> complex:
    """Riemann zeta at s (sigma > -1, |t| <= 100, s != 1)."""
    return zeta_with_error(s, params)[0]


def zeta_ratio(s: complex) -> complex:
    """zeta(2s)/zeta(s) for sigma > 1/2 and |t| <= 50 (zeta is taken at 2s).

    s = 1 is rejected outright: the denominator pole would make the
    ratio 0 only in a limit sense, and uniform domain handling is worth
    more here than that single point.
    """
    s = complex(s)
    if s.real <= 0.5 or math.inf > abs(s.imag) > _T_CEILING / 2:  # zeta refuses inf, nan
        raise DomainError(f"zeta_ratio needs sigma > 1/2 and |t| <= {_T_CEILING / 2:g}, "
                          "as it takes zeta at 2s")
    if s == 1 or 2 * s == 1:
        raise DomainError("zeta_ratio is not evaluated at zeta poles")
    den = zeta(s)
    if abs(den) < _ZERO_GUARD:
        raise DivisionInstabilityError(f"|zeta({s})| < {_ZERO_GUARD}")
    return zeta(2 * s) / den


def shifted_ratio(s: complex) -> complex:
    """zeta(2s+1)/zeta(s+1/2) for sigma > 1/2 and |t| <= 50.

    Note shifted_ratio(s) = zeta_ratio(s + 1/2), so e.g. s = 1.5 gives
    zeta(4)/zeta(2).
    """
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError("shifted_ratio needs sigma > 1/2")
    # 2(s + 1/2) rounds as 2s + 1 does: doubling is exact
    return zeta_ratio(s + 0.5)


def _lambda_series(s: complex, n_terms: int):
    """The core request for sum_{n<=N} lambda(n) n^(-s), and that sum from
    the values of a pass that served it.

    The request is F_ONE's polynomial at q = 1 - s below N + 1: its
    lambda(n)/n times n^(1-s) is lambda(n) n^(-s), and its a(1) = 0 leaves
    the n = 1 term, lambda(1) = 1, to add.
    """
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("lambda_series needs N >= 1")
    series = _Polynomial(StepKind.F_ONE, 1.0 - complex(s), n_terms + 1)
    return series, lambda values: 1.0 + complex(values[series])


def lambda_series(s: complex, n_terms: int) -> complex:
    """Truncated Liouville Dirichlet series sum_{n<=N} lambda(n) n^{-s}.

    Converges to zeta(2s)/zeta(s) for sigma > 1 as N grows; the caller
    shifts the argument to get the n^{-s-1/2} variant. It is 1 plus F_ONE's
    polynomial at q = 1 - s (_lambda_series).
    """
    series, value = _lambda_series(s, n_terms)
    return value(_evaluate([series]))


class RealBounds(NamedTuple):
    """One sample of the elementary sandwich 1/(sigma-1) < zeta < sigma/(sigma-1)."""

    sigma: float
    lower: float
    value: float
    upper: float
    passed: bool


def real_bounds_check(sigma: float) -> RealBounds:
    """Check the real-axis sandwich at one sigma > 0, sigma != 1."""
    sigma = float(sigma)
    if sigma == 1:
        raise PoleError("bounds undefined at sigma = 1")
    if sigma <= 0:
        raise DomainError("real_bounds_check needs sigma > 0")
    val = zeta(complex(sigma)).real
    lower = 1.0 / (sigma - 1.0)
    upper = sigma / (sigma - 1.0)
    return RealBounds(sigma, lower, val, upper, lower < val < upper)
