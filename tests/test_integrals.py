"""Step function integral engine tests."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from per_cell import prefix
from zetalab import (
    DomainError,
    PrecisionError,
    StepKind,
    estimate_sigma_c,
    integrate_step,
    j_xi,
    lambda_series,
    run_default_suite,
    sieve_range,
)


def test_constant_function_closed_forms():
    X = 10**5
    # half-shifted kernel at s=2 integrates u^(-5/2)
    r = integrate_step(StepKind.ONE, 2.0, X)
    assert r.value == pytest.approx((1 - X**-1.5) / 1.5, abs=1e-13)
    assert r.converged and r.tail_estimate < 1e-6
    # plain kernel, q = 2
    r = integrate_step(StepKind.ONE, 2.0, X, kernel="plain")
    assert r.value == pytest.approx(1 - 1 / X, abs=1e-13)
    # q = 1 exactly: the log branch
    r = integrate_step(StepKind.ONE, 1.0, X, kernel="plain")
    assert r.value == pytest.approx(math.log(X), rel=1e-14)
    assert r.tail_estimate == math.inf
    assert not r.converged


def test_f_one_at_x_two_is_zero():
    assert integrate_step(StepKind.F_ONE, 2.0, 2).value == 0j


def test_quadrature_oracle_per_cell():
    # independent numeric integration, cell by cell, against the closed form
    X = 300
    for kind in (StepKind.F_HALF, StepKind.F_ONE, StepKind.T_SUM):
        g = prefix(kind, X)
        for s in (0.8, 2.0):
            q_exp = s + 0.5 if kind in (StepKind.F_HALF, StepKind.F_ONE) else s
            total = 0.0
            for n in range(1, X):
                part, _ = quad(lambda u: u**-q_exp, n, n + 1, epsabs=1e-14)
                total += g[n - 1] * part
            mine = integrate_step(kind, s, X).value
            assert mine.real == pytest.approx(total, rel=1e-8, abs=1e-12), (kind, s)
            assert mine.imag == 0.0


def test_p_over_u_cell_shape():
    # integrand on [n, n+1) is P(n)/u * u^(-s), i.e. P(n) * u^(-s-1)
    X = 200
    g = prefix(StepKind.P_OVER_U, X)
    s = 1.5
    total = 0.0
    for n in range(1, X):
        part, _ = quad(lambda u: u ** -(s + 1), n, n + 1, epsabs=1e-14)
        total += g[n - 1] * part
    mine = integrate_step(StepKind.P_OVER_U, s, X).value
    assert mine.real == pytest.approx(total, rel=1e-10)


def test_partial_summation_exact_p_route():
    # sum_{n<=X} lambda(n) n^-s = s * int_1^X P(u) u^(-s-1) du + P(X) X^-s;
    # lambda_series sums F_ONE's lambda(n)/n stream, the integral P's lambda(n)
    for s in (2.0, 1.5 + 2j):
        X = 5000
        p_final = int(np.sum(sieve_range(1, X + 1).values))
        lhs = lambda_series(s, X)
        rhs = (
            s * integrate_step(StepKind.P_OVER_U, s, X, kernel="plain").value
            + p_final * X ** complex(-s)
        )
        assert abs(lhs - rhs) < 1e-12, s


def test_partial_summation_exact_t_route():
    # sum_{n<=X} lambda(n) n^-s = (s-1) * int_1^X T(u) u^(-s) du + T(X) X^(1-s)
    X = 5000
    g = prefix(StepKind.T_SUM, X)
    for s in (2.0, 3.0, 1.5 + 2j):
        lhs = lambda_series(s, X)
        rhs = (s - 1) * integrate_step(
            StepKind.T_SUM, s, X, kernel="plain"
        ).value + g[-1] * X ** complex(1 - s)
        assert abs(lhs - rhs) < 1e-12, s


def test_additivity_against_reference():
    # integral over [1, Y] minus [1, X] equals the directly-summed middle part
    X, Y, s = 700, 2500, 1.3 + 0.7j
    kind = StepKind.F_HALF
    whole = integrate_step(kind, s, Y).value
    head = integrate_step(kind, s, X).value
    g = prefix(kind, Y)
    q = s + 0.5
    ns = np.arange(X, Y, dtype=np.float64)
    w = (np.power(ns, 1 - q) - np.power(ns + 1, 1 - q)) / (q - 1)
    middle = np.sum(g[X - 1 : Y - 1] * w)
    assert abs(whole - (head + middle)) < 1e-13


def test_conjugate_symmetry():
    for kind in (StepKind.F_HALF, StepKind.L_XI):
        s = 1.2 + 1.7j
        a = integrate_step(kind, s, 4000).value
        b = integrate_step(kind, s.conjugate(), 4000).value
        assert abs(a.conjugate() - b) < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.55, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=50, max_value=2000),
)
def test_linearity_collapse_property(sigma, t, X):
    s = complex(sigma, t)
    vh = integrate_step(StepKind.F_HALF, s, X).value
    vo = integrate_step(StepKind.F_ONE, s, X).value
    vl = integrate_step(StepKind.L_XI, s, X).value
    assert abs(vh - vo - vl) < 1e-12


def test_j_xi_is_the_difference():
    for s in (2.0, 0.75, 1.5 + 2j):
        X = 10**4
        vh = integrate_step(StepKind.F_HALF, s, X).value
        vo = integrate_step(StepKind.F_ONE, s, X).value
        assert abs(j_xi(s, X).value - (vh - vo)) < 1e-13


def test_j_xi_drift_within_tail():
    a = j_xi(2.0, 10**4)
    b = j_xi(2.0, 10**5)
    assert abs(b.value - a.value) < a.tail_estimate
    assert b.tail_estimate < a.tail_estimate


def test_j_xi_domain():
    with pytest.raises(DomainError):
        j_xi(0.5, 1000)
    with pytest.raises(DomainError):
        j_xi(0.3 + 2j, 1000)


def test_tail_model_fields():
    r = integrate_step(StepKind.F_HALF, 2.0, 10**4)
    assert r.tail_estimate > 0 and math.isfinite(r.tail_estimate)
    assert "sqrt(u)" in r.tail_model
    assert r.truncation == 10**4
    r = integrate_step(StepKind.F_HALF, 0.8, 10**4)
    assert r.tail_estimate == math.inf
    assert r.tail_model == "unmodeled; conditional"
    r = integrate_step(StepKind.T_SUM, 2.0, 10**4)
    assert "sqrt" not in r.tail_model


def test_singular_exponent_guards():
    kind = StepKind.F_ONE
    with pytest.raises(DomainError):
        integrate_step(kind, 0.5 + 1e-12, 100)  # too close to the kernel singularity
    with pytest.raises(DomainError):
        integrate_step(kind, 1.0 - 1e-12, 100, kernel="plain")
    # exactly singular exponents take the log branch instead
    r = integrate_step(kind, 0.5, 100)
    assert math.isfinite(r.value.real)
    with pytest.raises(DomainError):
        integrate_step(kind, 2.0, 100, kernel="mystery")
    with pytest.raises(DomainError):
        integrate_step(kind, 2.0, X=1)


NON_FINITE = (math.nan, math.inf, -math.inf, complex(2, math.inf), complex(math.nan, 1))


@pytest.mark.parametrize("s", NON_FINITE, ids=repr)
def test_non_finite_s_is_a_domain_error(s):
    for kind in StepKind:
        with pytest.raises(DomainError, match="finite"):
            integrate_step(kind, s, 100)
    with pytest.raises(DomainError, match="finite"):
        lambda_series(s, 100)
    with pytest.raises(DomainError):  # -inf already fails sigma > 1/2
        j_xi(s, 100)
    with pytest.raises(DomainError):
        run_default_suite((s,), 100)


@pytest.mark.parametrize("kind", list(StepKind), ids=lambda k: k.value)
def test_a_sum_past_double_precision_is_refused(kind):
    """At s = -400 every kind's sum overflows: the refusal names the
    request's kind, exponent and stop instead of returning inf or nan."""
    with pytest.raises(PrecisionError, match=rf"{kind.value} sum at q=\S+ below 100 "):
        integrate_step(kind, complex(-400, 3), 100)


@pytest.mark.parametrize("sigma", (math.nan, math.inf))
def test_non_finite_sigma_is_a_domain_error(sigma):
    with pytest.raises(DomainError, match="finite"):
        estimate_sigma_c(StepKind.F_ONE, [0.4, sigma], [10, 100, 1000])


def test_sigma_c_constant_function():
    est = estimate_sigma_c(
        StepKind.ONE,
        [0.8, 0.9, 1.0, 1.1, 1.2],
        [10**2, 10**3, 10**4, 10**5],
        kernel="plain",
    )
    assert est.classifications[0.8] == "diverging"
    assert est.classifications[1.2] == "converging"
    assert est.lower <= 1.0 <= est.upper
    assert est.upper - est.lower <= 0.2 + 1e-12


def test_sigma_c_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    est = estimate_sigma_c(
        StepKind.ONE,
        [0.9, 1.1],
        [10**2, 10**3, 10**4],
        kernel="plain",
        trace_path=str(path),
    )
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert set(rows[0]) == {"sigma", "X", "re", "im", "tail_estimate"}
    first = rows[0]
    assert float(first["sigma"]) == 0.9
    v = est.traces[0.9][0]
    assert float(first["re"]) == v.real


def test_sigma_c_validation():
    kind = StepKind.ONE
    with pytest.raises(DomainError):
        estimate_sigma_c(kind, [0.9], [100, 1000, 10000])
    with pytest.raises(DomainError):
        estimate_sigma_c(kind, [1.1, 0.9], [100, 1000, 10000])
    with pytest.raises(DomainError):
        estimate_sigma_c(kind, [0.9, 1.1], [100, 1000])
    with pytest.raises(DomainError):
        estimate_sigma_c(kind, [0.9, 1.1], [1000, 1000, 1000])


def test_every_stream_validates_its_arguments():
    for kind in StepKind:
        with pytest.raises(DomainError):
            integrate_step(kind, 2.0, 2**63 + 1)
