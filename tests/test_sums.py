"""Dirichlet polynomial partial sum tests."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import DomainError, PrefixEvaluator, f_x, l_x, sieve_range
from zetalab.liouville import iter_lambda_segments, liouville, mobius_segment
from zetalab.sums import partial_sums
from zetalab.xi import xi
from zetalab.compensated import CompensatedSum


def test_hand_values():
    assert f_x(0.5, 3) == pytest.approx(-(2**-0.5 + 3**-0.5), abs=1e-15)
    assert f_x(1.0, 1) == 0.0
    assert f_x(0.5, 1) == 0.0
    assert l_x(1) == 0.0
    assert l_x(2) == pytest.approx(-(2**-0.5 - 0.5), abs=1e-16)


def test_f_one_matches_exact_rational():
    x = 500
    exact = sum(Fraction(liouville(n), n) for n in range(2, x + 1))
    assert f_x(1.0, x) == pytest.approx(float(exact), abs=1e-13)


def test_decomposition_identity():
    for x in (10, 1000, 10**5):
        fa = f_x(0.5, x)
        fb = f_x(1.0, x)
        lv = l_x(x)
        assert abs(fa - fb - lv) <= 1e-10 * (1.0 + abs(fa))


def test_l_x_direct_route_agrees():
    # the direct route exponentiates xi(n): (beta-alpha) log(n) n^(-xi(n)) per term
    for x in (10, 5000):
        lam = sieve_range(2, x + 1).values
        ns = np.arange(2, x + 1, dtype=np.float64)
        terms = lam * (1.0 - 0.5) * np.log(ns) * np.power(ns, -xi(ns))
        assert l_x(x) == pytest.approx(math.fsum(terms.tolist()), abs=1e-11)


def test_order_independence():
    x = 20000
    table = sieve_range(1, x + 1)
    for alpha in (0.5, 1.0, 0.25):
        ns = np.arange(1, x + 1, dtype=np.float64)
        terms = table.values * ns**-alpha
        terms[0] = 0.0
        acc = CompensatedSum()
        for t in terms[::-1]:  # descending-n summation
            acc.add(float(t))
        forward = f_x(alpha, x)
        assert abs(acc.value - forward) <= 1e-11 * max(1.0, abs(forward))


def test_segmenting_invariance(segment_length):
    default = f_x(0.5, 12000)
    for seg in (100, 999, 4096):
        segment_length(seg)
        assert f_x(0.5, 12000) == pytest.approx(default, abs=1e-13)


def test_prefix_evaluator_history_and_contiguity(segment_length):
    ev = PrefixEvaluator(1.0, record_history=True)
    segment_length(100)
    for lo, lam in iter_lambda_segments(1, 1025):
        ev.update(lo, lam)
    marks = [n for n, _ in ev.history]
    assert marks == [2**k for k in range(11)]
    n8, v8 = ev.history[3]
    assert n8 == 8
    assert v8 == pytest.approx(f_x(1.0, 8), abs=1e-15)

    ev2 = PrefixEvaluator(1.0)
    with pytest.raises(DomainError):
        ev2.update(5, np.ones(3, dtype=np.int8))


def test_generic_coefficients_through_evaluator():
    # the evaluator is coefficient-agnostic; feed mobius instead of lambda
    x = 3000
    mu = mobius_segment(1, x + 1)
    ev = PrefixEvaluator(1.0)
    ev.update(1, mu)
    ns = np.arange(1, x + 1, dtype=np.float64)
    direct = float(np.sum(mu[1:] / ns[1:]))
    assert ev.value == pytest.approx(direct, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4000),
    st.integers(min_value=1, max_value=2000),
    st.floats(min_value=0.3, max_value=2.0),
)
def test_tail_bound_between_truncations(x, gap, alpha):
    # |F_y - F_x| is at most the sum of |n^-alpha| over the gap
    y = x + gap
    diff = abs(f_x(alpha, y) - f_x(alpha, x))
    bound = gap * x**-alpha
    assert diff <= bound + 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        f_x(0.5, 0)
    with pytest.raises(DomainError):
        l_x(0)


def test_write_sums_csv(tmp_path):
    path = tmp_path / "sums.csv"
    rows = partial_sums(1000, csv_path=str(path)).rows
    with open(path) as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == rows
    xs = [int(r["x"]) for r in records]
    assert xs == [2**k for k in range(10)] + [1000]
    last = records[-1]
    assert float(last["F_half"]) == pytest.approx(f_x(0.5, 1000), abs=1e-14)
    assert float(last["F_one"]) == pytest.approx(f_x(1.0, 1000), abs=1e-14)
    assert float(last["L"]) == pytest.approx(l_x(1000), abs=1e-14)
    resid = float(last["F_half"]) - float(last["F_one"]) - float(last["L"])
    assert abs(resid) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.sampled_from([97, None]))
def test_sums_csv_rows_match_standalone_sums(tmp_path_factory, x, seg):
    # rows are read off inside segments and at their edges alike, and each
    # row has the bits of its standalone sums at the same segment length
    path = tmp_path_factory.mktemp("rows") / "sums.csv"
    marks = sorted({2**k for k in range(x.bit_length())} | {x})
    with pytest.MonkeyPatch.context() as mp:
        if seg is not None:
            mp.setattr("zetalab.liouville.DEFAULT_SEGMENT", seg)
        partial_sums(x, csv_path=str(path))
        expected = [[str(m), repr(f_x(0.5, m)), repr(f_x(1.0, m)), repr(l_x(m))] for m in marks]
    with open(path) as fh:
        assert list(csv.reader(fh))[1:] == expected
