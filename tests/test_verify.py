"""Identity verification layer tests."""

import json
import math
import pathlib

import numpy as np
import pytest

from zetalab import (
    DomainError,
    explore_condition_r,
    fit_growth_exponent,
    growth_exponent_diagnostic,
    l_x,
    run_default_suite,
    sieve_range,
    verify_finite_linearity,
    verify_pnt_limit,
    verify_ratio_decomposition,
    verify_ratio_integral,
    verify_reciprocal_integral,
    verify_shifted_identity,
    write_report_json,
)
from zetalab.verify import report_json_text, sort_cases

JSON_FIELDS = [
    "name", "s_re", "s_im", "X", "lhs_re", "lhs_im",
    "rhs_re", "rhs_im", "residual", "tolerance", "pass", "flags",
]


def test_pnt_limit_single_term():
    c = verify_pnt_limit(2)
    assert c.lhs == -0.5 + 0j
    assert c.residual == pytest.approx(0.5)
    assert c.passed and "coarse_band" in c.flags


def test_pnt_limit_trend_nonincreasing():
    residuals = [verify_pnt_limit(x).residual for x in (10**3, 10**4, 10**5)]
    assert all(b <= a * 1.1 for a, b in zip(residuals, residuals[1:]))


def test_residual_monotonicity_invariant():
    # non-increasing along X for sigma >= 1.5, allowing 10% noise
    for builder in (verify_reciprocal_integral, verify_ratio_integral):
        for s in (1.5 + 2j, 2.0):
            res = [builder(s, x).residual for x in (10**3, 10**4, 10**5)]
            assert all(b <= a * 1.1 for a, b in zip(res, res[1:])), (builder, s)


def test_case_invariants():
    c = verify_ratio_integral(2.0, 10**4)
    assert c.residual == abs(c.lhs - c.rhs)
    assert c.passed == (c.residual <= c.tolerance)
    assert c.tolerance >= 1e-6


def test_empirical_band_is_flagged_and_honest():
    c = verify_ratio_decomposition(0.75, 10**4)
    assert "empirical" in c.flags
    assert c.tolerance == 1e-2
    assert not c.passed  # the conditional region genuinely misses the band
    c2 = verify_shifted_identity(0.75, 10**4)
    assert "empirical" in c2.flags
    assert not c2.passed


def test_shifted_identity_series_crosscheck():
    c = verify_shifted_identity(2.0, 10**4)
    gap_flags = [f for f in c.flags if f.startswith("series_xcheck_gap=")]
    assert len(gap_flags) == 1
    gap = float(gap_flags[0].split("=", 1)[1])
    assert gap < 1e-4


def test_finite_linearity_everywhere():
    for s in (2.0, 0.75, 0.6 + 1j):
        c = verify_finite_linearity(s, 2000)
        assert c.passed and c.tolerance == 1e-12


def test_domain_guards():
    with pytest.raises(DomainError):
        verify_pnt_limit(1)
    with pytest.raises(DomainError):
        verify_reciprocal_integral(0.9, 100)
    with pytest.raises(DomainError):
        verify_ratio_integral(1.0, 100)
    with pytest.raises(DomainError):
        verify_ratio_decomposition(0.5, 100)
    with pytest.raises(DomainError):
        verify_shifted_identity(1.0, 100)


def test_condition_r_hand_values():
    r = explore_condition_r(2)
    assert r.max_value == pytest.approx(-(2**-0.5 - 0.5), abs=1e-15)
    assert r.argmax == 2
    assert r.best_r == pytest.approx(1 + (2**-0.5 - 0.5), abs=1e-15)

    # independent brute force over x <= 50
    vals = {x: l_x(x) for x in range(2, 51)}
    best_x = max(vals, key=vals.get)
    r = explore_condition_r(50)
    assert r.argmax == best_x
    assert r.max_value == pytest.approx(vals[best_x], abs=1e-13)
    assert r.best_r == pytest.approx(1 - vals[best_x], abs=1e-13)


def test_condition_r_observes_only():
    r = explore_condition_r(10**4)
    assert r.max_value < 0  # stays below zero on this range
    assert r.best_r > 1
    assert not hasattr(r, "passed")


def test_growth_exponent_synthetic_sqrt():
    xs = np.arange(10, 10**5)
    exponent, stderr, peaks = fit_growth_exponent(xs, np.floor(np.sqrt(xs)))
    assert exponent == pytest.approx(0.5, abs=0.02)
    assert peaks > 100


def test_growth_exponent_needs_peaks():
    with pytest.raises(DomainError):
        fit_growth_exponent([10, 11], [3, 3])


def test_growth_exponent_diagnostic_runs():
    rep = growth_exponent_diagnostic(10**5)
    assert 0.3 < rep.exponent < 0.7  # observational sanity, not an assertion of RH
    assert rep.peak_count > 50
    rep_small = growth_exponent_diagnostic(10**3)
    assert "small_sample" in rep_small.flags
    with pytest.raises(DomainError):
        growth_exponent_diagnostic(999)


def test_suite_structure_and_determinism():
    a = run_default_suite(X=2000)
    b = run_default_suite(X=2000)
    assert report_json_text(a) == report_json_text(b)
    names = {c.name for c in a}
    assert names == {
        "pnt_limit",
        "zeta_reciprocal_integral",
        "ratio_integral",
        "ratio_decomposition",
        "shifted_ratio_identity",
        "finite_linearity",
    }
    assert a == sort_cases(a)  # already sorted
    # sigma > 1 points get every route, conditional points the empirical ones
    assert sum(c.name == "ratio_integral" for c in a) == 3
    assert sum(c.name == "ratio_decomposition" for c in a) == 5


def test_json_schema_exact(tmp_path):
    cases = run_default_suite(X=500)
    path = tmp_path / "report.json"
    write_report_json(cases, str(path))
    payload = json.loads(path.read_text())
    assert len(payload) == len(cases)
    for record in payload:
        assert list(record) == JSON_FIELDS
    by_name = [r["name"] for r in payload]
    assert by_name == sorted(by_name)
    pnt = [r for r in payload if r["name"] == "pnt_limit"]
    assert len(pnt) == 1 and pnt[0]["s_re"] is None and pnt[0]["s_im"] is None
    assert all(isinstance(r["pass"], bool) for r in payload)
    assert all(r["residual"] == pytest.approx(
        abs(complex(r["lhs_re"], r["lhs_im"]) - complex(r["rhs_re"], r["rhs_im"])),
        abs=1e-15,
    ) for r in payload)


GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_all_1e5.json"


def test_report_matches_the_golden_report():
    """The `verify --all --X 1e5` report against the one recorded in
    tests/data: every number within 1e-13 * max(1, |v|), names and pass
    flags exactly. A flag's text matches exactly up to its number, which
    is printed to 4 digits and so may also move by half a unit there."""
    golden = json.loads(GOLDEN.read_text())
    report = json.loads(report_json_text(run_default_suite(X=10**5)))
    assert [(r["name"], r["pass"]) for r in report] == [(r["name"], r["pass"]) for r in golden]
    for got, want in zip(report, golden):
        assert list(got) == list(want)
        for field, value in want.items():
            if field == "flags":
                assert len(got[field]) == len(value), (want["name"], got[field], value)
                for g, w in zip(got[field], value):
                    g_name, _, g_num = g.partition("=")
                    w_name, _, w_num = w.partition("=")
                    assert g_name == w_name and bool(g_num) == bool(w_num), (g, w)
                    if w_num:
                        w_num = float(w_num)
                        bound = 1e-13 * max(1.0, abs(w_num)) + 5e-4 * abs(w_num)
                        assert abs(float(g_num) - w_num) <= bound, (want["name"], g, w)
            elif isinstance(value, float):
                assert abs(got[field] - value) <= 1e-13 * max(1.0, abs(value)), (want["name"], field)
            else:
                assert got[field] == value, (want["name"], field)
