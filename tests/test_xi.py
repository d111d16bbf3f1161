"""Mean value theorem exponent sequence tests."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import DomainError, check_monotone_limit, xi_residual
from zetalab.xi import write_xi_csv, xi


def _bisect_xi(n: float, alpha: float = 0.5, beta: float = 1.0) -> float:
    # root of  n^(-beta) - n^(-alpha) + (beta-alpha) log(n) n^(-x)  in (alpha, beta)
    def g(x):
        return n**-beta - n**-alpha + (beta - alpha) * math.log(n) * n**-x

    lo, hi = alpha, beta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_xi_frozen_value_at_two():
    assert xi(2) == pytest.approx(0.7427869302187146, abs=1e-15)


def test_xi_matches_bisection_small():
    for n in (2, 3, 10, 100, 12345):
        assert xi(n) == pytest.approx(_bisect_xi(n), abs=1e-12)


def test_xi_matches_bisection_random(rng):
    for n in rng.integers(2, 10**9, size=50):
        n = int(n)
        assert xi(n) == pytest.approx(_bisect_xi(n), abs=1e-12), n


def test_defining_residual_small_on_log_grid():
    ns = np.unique(np.round(np.logspace(np.log10(2), 6, 400)).astype(np.int64))
    res = xi_residual(ns)
    scale = ns.astype(np.float64) ** -0.5  # dominant term of the identity
    assert np.max(np.abs(res) / scale) < 1e-14


def test_xi_vectorized_matches_scalar():
    ns = np.array([2, 3, 17, 1000])
    vec = xi(ns)
    assert vec.shape == (4,)
    for i, n in enumerate(ns):
        assert vec[i] == xi(int(n))


def test_xi_strictly_decreasing_prefix():
    rep = check_monotone_limit(10**5)
    assert rep.monotone
    assert rep.first_increase is None
    assert rep.gap_at_nmax > 0


def test_xi_interior_and_limits():
    # xi sits strictly inside (alpha, beta) and drifts toward alpha
    assert 0.5 < xi(10**9) < xi(2) < 1.0
    assert xi(10**8) - 0.5 == pytest.approx(0.12, abs=5e-3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_xi_generic_interval_properties(n):
    alpha, beta = 0.5, 1.0
    value = xi(n)
    assert alpha < value < beta
    # the defining identity itself, relative to its largest term
    res = xi_residual(n)
    assert abs(res) < 1e-13 * (n**-alpha + (beta - alpha) * math.log(n) * n ** -value)


def test_perturbation_breaks_identity():
    n = 1000.0
    good = abs(
        n**-1.0 - n**-0.5 + 0.5 * math.log(n) * n ** -xi(1000)
    )
    bad = abs(n**-1.0 - n**-0.5 + 0.5 * math.log(n) * n ** -(xi(1000) + 1e-9))
    assert bad > 100 * max(good, 1e-18)


def test_domain_errors():
    with pytest.raises(DomainError):
        xi(1)
    with pytest.raises(DomainError):
        xi_residual(0)
    with pytest.raises(DomainError):
        check_monotone_limit(2)


def test_write_xi_csv(tmp_path):
    path = tmp_path / "xi.csv"
    rows = write_xi_csv(str(path), 10**6, points=50)
    with open(path) as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == rows
    assert records[0]["n"] == "2"
    assert records[-1]["n"] == "1000000"
    mid = records[len(records) // 2]
    assert float(mid["xi"]) == pytest.approx(xi(int(mid["n"])), abs=1e-15)
