"""Euler-Maclaurin zeta engine tests against a high-precision oracle."""

import importlib
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import (
    DivisionInstabilityError,
    DomainError,
    PoleError,
    PrecisionError,
    ZetaParams,
    lambda_series,
    real_bounds_check,
    shifted_ratio,
    zeta_ratio,
    zeta_with_error,
)
from zetalab.integrals import StepKind, _evaluate, _Polynomial
from zetalab.verify import DEFAULT_S_POINTS
from zetalab.zeta import _lambda_series, zeta

zeta_module = importlib.import_module("zetalab.zeta")

mpmath.mp.dps = 30


def _oracle(s: complex) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def test_reference_values():
    assert abs(zeta(2) - math.pi**2 / 6) < 1e-14
    assert abs(zeta(0.5) - (-1.4603545088095868)) < 1e-12
    assert abs(zeta(3) - 1.2020569031595943) < 1e-14
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-14


def test_oracle_grid():
    for sigma in (-0.5, 0.25, 0.6, 1.5, 2.0, 3.0):
        for t in (0.0, 1.0, 10.0, 50.0, 100.0):
            s = complex(sigma, t)
            want = _oracle(s)
            # scale by magnitude: left of sigma=0 with large t the value
            # itself grows and double precision tracks it relatively
            assert abs(zeta(s) - want) < 1e-12 * max(1.0, abs(want)), s


def test_near_pole_accuracy():
    for s in (1.001, 0.999, 1 + 0.002j):
        got = zeta(complex(s))
        want = _oracle(complex(s))
        assert abs(got - want) / abs(want) < 1e-13, s


def test_conjugate_symmetry():
    for s in (1.5 + 2j, 0.6 + 1j, 2 + 40j, 0.25 + 99j):
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-13


def test_error_estimate_is_returned():
    value, err = zeta_with_error(2 + 10j)
    assert err < 1e-12
    assert abs(value - _oracle(2 + 10j)) < 10 * max(err, 1e-13)


def test_self_consistency_under_refinement():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sigma = rng.uniform(0.6, 3.0)
        t = rng.uniform(-50, 50)
        s = complex(sigma, t)
        base = zeta(s)
        n_cut = max(50, math.ceil(2 * (abs(t) + 10)))
        finer = zeta(s, ZetaParams(cutoff=2 * n_cut, bernoulli_terms=12))
        assert abs(base - finer) < 1e-12, s


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(-1.5)
    with pytest.raises(DomainError):
        zeta(2 + 150j)
    with pytest.raises(DomainError):
        zeta(0.5 + 80j, ZetaParams(cutoff=100))  # below the 2(|t|+10) floor
    with pytest.raises(DomainError):
        ZetaParams(bernoulli_terms=1)
    with pytest.raises(DomainError):
        ZetaParams(bernoulli_terms=16)


@pytest.mark.parametrize("s", (math.nan, math.inf, complex(2, math.inf), complex(math.nan, 1)), ids=repr)
def test_non_finite_s_is_a_domain_error(s):
    for f in (zeta_with_error, zeta, zeta_ratio, shifted_ratio):
        with pytest.raises(DomainError, match="finite"):
            f(s)


def test_bernoulli_table_is_correctly_rounded():
    table = zeta_module._EVEN_BERNOULLI
    assert table == tuple(float(mpmath.bernoulli(2 * k)) for k in range(1, 17))


def test_precision_error_when_tail_too_short():
    with pytest.raises(PrecisionError):
        zeta(-0.9, ZetaParams(bernoulli_terms=2))


def test_zeta_ratio_values():
    expect = (math.pi**4 / 90) / (math.pi**2 / 6)
    assert abs(zeta_ratio(2) - expect) < 1e-14
    assert abs(shifted_ratio(1.5) - zeta_ratio(2)) < 1e-15
    assert abs(shifted_ratio(20) - 1.0) < 1e-6
    assert abs(shifted_ratio(0.75) - zeta(2.5) / zeta(1.25)) < 1e-15


def test_ratio_domain_guards():
    with pytest.raises(DomainError):
        zeta_ratio(0.4)
    with pytest.raises(DomainError):
        zeta_ratio(1.0)  # pole of the denominator, rejected for uniformity
    with pytest.raises(DomainError):
        zeta_ratio(0.5)
    with pytest.raises(DomainError):
        shifted_ratio(0.5)


def test_ratios_reach_half_of_zetas_height():
    """zeta_ratio and shifted_ratio take zeta at 2s and 2s + 1, so they
    refuse |t| > 50 themselves, saying why, and take no ZetaParams."""
    assert zeta_ratio(1 + 50j) == zeta(2 + 100j) / zeta(1 + 50j)
    for f in (zeta_ratio, shifted_ratio):
        with pytest.raises(DomainError, match=r"\|t\| <= 50, as it takes zeta at 2s"):
            f(1 + 60j)
    for f in (zeta_ratio, shifted_ratio, real_bounds_check):
        assert list(inspect.signature(f).parameters) in (["s"], ["sigma"]), f


def test_lambda_series_examples():
    assert lambda_series(2, 1) == 1 + 0j
    assert abs(lambda_series(2, 10**5) - zeta_ratio(2)) < 1e-4
    assert abs(lambda_series(1.25, 10**5) - shifted_ratio(0.75)) < 5e-2
    with pytest.raises(DomainError):
        lambda_series(2, 0)


@pytest.mark.parametrize("s", DEFAULT_S_POINTS)
def test_lambda_series_is_f_one_plus_lambda_one(s):
    """1 plus F_ONE's polynomial at q = 1 - w is P's polynomial at -w, the
    plain sum of lambda(n) n^(-w), to 1e-14 of max(1, |value|), at the
    suite's w = s + 1/2 and at w = s."""
    n = 10**4
    for w in (complex(s) + 0.5, complex(s)):
        series, value = _lambda_series(w, n)
        p_route = _Polynomial(StepKind.P_OVER_U, -w, n + 1)
        results = _evaluate([series, p_route])
        assert series.kind is StepKind.F_ONE
        assert value(results) == lambda_series(w, n)
        assert abs(value(results) - results[p_route]) <= 1e-14 * max(1.0, abs(results[p_route])), w


def test_lambda_series_tail_constant():
    # |series(N) - ratio| <= C * N^(1-sigma)/(sigma-1) with C <= 2
    for sigma in (1.5, 2.0, 3.0):
        n = 2000
        gap = abs(lambda_series(sigma, n) - zeta_ratio(sigma))
        bound = 2.0 * n ** (1 - sigma) / (sigma - 1)
        assert gap <= bound, sigma


def test_real_bounds_examples():
    r = real_bounds_check(2.0)
    assert (r.lower, r.upper) == (1.0, 2.0)
    assert r.passed
    r = real_bounds_check(0.5)
    assert (r.lower, r.upper) == (-2.0, -1.0)
    assert r.passed
    r = real_bounds_check(10.0)
    assert r.lower == pytest.approx(1 / 9)
    assert r.value == pytest.approx(1.000994575127818, abs=1e-12)
    assert r.passed
    with pytest.raises(PoleError):
        real_bounds_check(1.0)
    with pytest.raises(DomainError):
        real_bounds_check(0.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0))
def test_real_bounds_property(sigma):
    if abs(sigma - 1.0) < 1e-3:
        return
    assert real_bounds_check(sigma).passed
