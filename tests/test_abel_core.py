"""The Abel-summation integral core against the per-cell route, and its sieve passes."""

import functools
import importlib
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from per_cell import per_cell_integral
from zetalab import (
    DomainError,
    StepKind,
    estimate_sigma_c,
    explore_condition_r,
    f_x,
    growth_exponent_diagnostic,
    integrate_step,
    run_default_suite,
    verify_finite_linearity,
    verify_pnt_limit,
    verify_ratio_decomposition,
    verify_ratio_integral,
    verify_reciprocal_integral,
    verify_shifted_identity,
    ZetalabError,
)
from zetalab.cli import main
from zetalab.liouville import _factor_segment, _iter_segments, mobius_segment, run_scan, sieve_range
from zetalab.sums import partial_sums
from zetalab.integrals import (
    _SUB_BLOCK,
    _TAYLOR_TOL,
    _abel_spread,
    _coefficients,
    _envelope_bound,
    _evaluate,
    _expm1_over,
    _integral,
    _live,
    _moments,
    _Polynomial,
    _Prefix,
    _taylor_order,
    _taylor_quotient,
)
from zetalab.verify import DEFAULT_S_POINTS, report_json_text, sort_cases

integrals_module = importlib.import_module("zetalab.integrals")
KERNELS = ("plain", "half_shifted")
# Effective kernel exponents p: exactly 1 (log limit), 1 +- 1e-6 (just
# outside the 1e-9 guard), 1.005 and 1.02 (small q, where a difference
# x^q G - sum a(n) n^q taken at the end of the pass would cancel), real
# values above and below 1, complex values in pairs that share an
# imaginary part, a complex value next to the log limit, a large
# imaginary part, and p = 5, whose |q| h > 1 keeps it on the direct
# route past the first sub-block.
EXPONENTS = (
    1.0, 1 + 1e-6, 1 - 1e-6, 1.005, 1.02, 2.5, 1.25, 0.7,
    2 + 2j, 1.5 + 2j, 1.1 + 1j, 2.1 + 1j, 1.2 + 0.3j, 0.8 + 0.3j, 1 + 1e-6j,
    1.5 + 30j, 5.0,
)


def _close(a: complex, b: complex, rel: float = 1e-13) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _s_for(kind: StepKind, kernel: str, p: complex) -> complex:
    """The s at which kind's integrand under kernel has exponent p."""
    s = p - 1.0 if kind is StepKind.P_OVER_U else p
    return s - 0.5 if kernel == "half_shifted" else s


@pytest.mark.parametrize("kind", list(StepKind))
@pytest.mark.parametrize("kernel", KERNELS)
def test_abel_matches_per_cell(kind, kernel):
    X = 3000
    requests = {p: _integral(kind, _s_for(kind, kernel, p), X, kernel) for p in EXPONENTS}
    together = _evaluate(requests.values())  # one pass for every exponent
    for p in EXPONENTS:
        s = _s_for(kind, kernel, p)
        mine = integrate_step(kind, s, X, kernel=kernel).value
        ref = per_cell_integral(kind, s, X, kernel)
        assert _close(mine, ref), (p, mine, ref)
        assert _close(together[requests[p]].value, ref), (p, together[requests[p]], ref)


@pytest.mark.parametrize(
    "length, boundary",
    [(97, 1 + 97 * 10), (4097, 1 + 4097 * 2), (None, 1 + _SUB_BLOCK)],
)
def test_abel_at_segment_and_sub_block_boundaries(segment_length, length, boundary):
    if length is not None:
        segment_length(length)
    for X in (boundary - 1, boundary, boundary + 1):
        for kind, kernel, p in (
            (StepKind.F_HALF, "half_shifted", 2 + 2j),
            (StepKind.L_XI, "half_shifted", 1.25),
            (StepKind.MU_ONE, "plain", 1.0),
            (StepKind.P_OVER_U, "plain", 1 + 1e-6),
        ):
            s = _s_for(kind, kernel, p)
            mine = integrate_step(kind, s, X, kernel=kernel).value
            assert _close(mine, per_cell_integral(kind, s, X, kernel)), (X, kind, p)


@pytest.mark.parametrize("kind, kernel", [
    (StepKind.F_HALF, "half_shifted"), (StepKind.MU_ONE, "plain"), (StepKind.P_OVER_U, "plain"),
])
def test_abel_matches_per_cell_across_the_route_switch(kind, kernel, monkeypatch):
    """At X = 1e6, p = 5 and p = 1.5 + 30i take the direct route in
    several sub-blocks and the moment route in the later ones."""
    routes = {}
    original = _taylor_order

    def recording(x):
        order = original(x)
        routes.setdefault(order is None, set()).add(x)
        return order

    monkeypatch.setattr(integrals_module, "_taylor_order", recording)
    X = 10**6
    for p in (5.0, 1.5 + 30j):
        routes.clear()
        s = _s_for(kind, kernel, p)
        mine = integrate_step(kind, s, X, kernel=kernel).value
        assert len(routes.get(True, ())) > 1 and routes.get(False), (p, routes)
        assert _close(mine, per_cell_integral(kind, s, X, kernel)), (kind, p)


@pytest.mark.parametrize("x", [0.0, 1e-6, 0.016, 0.5, 0.99, 1.0, math.nextafter(1.0, 2.0)])
def test_taylor_order_is_the_smallest_that_meets_the_bound(x):
    """K >= 1 is the smallest order with x^K/(K+1)! <= 2^-60, the bound
    on T's first omitted term."""
    order = _taylor_order(x)
    if x > 1.0:
        assert order is None  # the direct route
        return
    assert order >= 1 and x**order / math.factorial(order + 1) <= _TAYLOR_TOL
    assert order == 1 or x ** (order - 1) / math.factorial(order) > _TAYLOR_TOL


def _sub_block(centre, length):
    """ns, +-1/n coefficients, log n, and the block's log N and h."""
    ns = np.arange(centre - length // 2, centre + length // 2, dtype=np.float64)
    a = np.random.default_rng(centre).choice([-1.0, 1.0], length) / ns
    logn = np.log(ns)
    return ns, a, logn, (logn[0] + logn[-1]) / 2, (logn[-1] - logn[0]) / 2


def _fsum_close(value, terms, rel=1e-15):
    exact = complex(math.fsum(terms.real), math.fsum(np.imag(terms)))
    return abs(value - exact) <= rel * math.fsum(np.abs(terms))


@pytest.mark.parametrize("centre, length", [(10**4, 1 << 11), (10**6, _SUB_BLOCK)])
def test_moment_route_matches_a_direct_sum_on_one_sub_block(centre, length):
    """With +-1/n coefficients, N^q (m_0 + q T) is the block's
    sum a(n) n^q to 1e-15 of sum |a(n) n^q|, up to |q| h = 1."""
    ns, a, logn, log_mid, h = _sub_block(centre, length)
    edge = 0.99 / h  # |q| h just inside the moment route
    for q in (-2.5, -0.25, 0.3, -1 - 2j, -0.1 - 1j, 0.5 + 3j, -edge, edge * (0.6 - 0.8j)):
        order = _taylor_order(abs(q) * h)
        assert order is not None, q
        m = _moments({0: a}, {0: order}, logn - log_mid)[0]
        value = np.exp(q * log_mid) * (m[0] + q * _taylor_quotient(q, m, order))
        assert _fsum_close(value, a * np.exp(q * logn)), (q, order)


@pytest.mark.parametrize("centre, length", [(10**4, 1 << 11), (10**6, _SUB_BLOCK)])
def test_moment_route_matches_a_direct_integral_on_one_sub_block(centre, length):
    """N^q (m_0 expm1(q D)/q - T), D = log(x/N), is the block's share
    sum a(n) n^q expm1(q log(x/n))/q of an integral to x, to 1e-15 of the
    sum of the terms' absolute values: at q = 0 and next to it, up to
    |q| h = 1, and with x at the block's end or far beyond it."""
    ns, a, logn, log_mid, h = _sub_block(centre, length)
    edge = 0.99 / h
    for q in (0.0, 1e-9, -1e-6j, -0.02, 0.3, -1 - 2j, edge, -edge):
        with np.errstate(over="ignore", under="ignore"):
            power = np.abs(np.exp(q * logn))
        if not (np.all(np.isfinite(power)) and power.min() >= np.finfo(np.float64).tiny):
            continue  # n^q is not a normal float here: +-0.99/h at N = 1e6
        order = _taylor_order(abs(q) * h)
        m = _moments({0: a}, {0: order}, logn - log_mid)[0]
        t = _taylor_quotient(q, m, order)
        for x in (ns[-1] + 1, 1.5e6, 1e7):
            log_x = math.log(x)
            value = np.exp(q * log_mid) * (m[0] * _expm1_over(q, log_x - log_mid) - t)
            d = log_x - logn
            terms = a * (np.exp(q * logn) * np.expm1(q * d) / q if q else d)
            assert _fsum_close(value, terms), (q, x, order)


class _ProcessLog:
    """Lines appended to one file by every process that records: the
    fields given to record() and the recording pid, so that a count sees
    the calls made in a forked sieve or fold child too."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def record(self, *fields):
        with open(self.path, "a") as fh:
            fh.write(" ".join(map(str, (*fields, os.getpid()))) + "\n")

    def rows(self):
        """(fields..., pid) of each record, in order, as strings."""
        with open(self.path) as fh:
            return [tuple(line.split()) for line in fh]

    def pids(self):
        return {int(row[-1]) for row in self.rows()}

    def clear(self):
        open(self.path, "w").close()

    def __len__(self):
        return len(self.rows())

    def __repr__(self):
        return repr(self.rows())


class _CallLog(_ProcessLog):
    """The (lo, hi) of each recorded kernel call, in order, from every
    process. Compares equal to the list of (lo, hi)."""

    def __eq__(self, other):
        return [(int(lo), int(hi)) for lo, hi, _ in self.rows()] == other


@pytest.fixture
def kernel_calls(monkeypatch, tmp_path):
    """Record the calls to liouville._factor_segment, wherever the name is
    bound and in whichever process they run."""
    original = importlib.import_module("zetalab.liouville")._factor_segment
    calls = _CallLog(tmp_path / "kernel_calls.txt")

    def counting(lo, hi, base_primes):
        calls.record(lo, hi)
        return original(lo, hi, base_primes)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("zetalab") and getattr(module, "_factor_segment", None) is original:
            monkeypatch.setattr(module, "_factor_segment", counting)
    return calls


def _one_pass(stop, length):
    """The kernel calls of a single pass over [1, stop)."""
    return [(lo, min(lo + length, stop)) for lo in range(1, stop, length)]


def _standalone_cases(X):
    cases = [verify_pnt_limit(X)]
    for s in map(complex, DEFAULT_S_POINTS):
        if s.real > 1:
            cases += [verify_reciprocal_integral(s, X), verify_ratio_integral(s, X)]
        if s.real > 0.5:
            cases += [verify_ratio_decomposition(s, X), verify_shifted_identity(s, X)]
        cases.append(verify_finite_linearity(s, X))
    return sort_cases(cases)


def test_suite_sieves_each_n_once(kernel_calls, segment_length):
    X = 10**4
    segment_length(4097)
    suite = run_default_suite(X=X)
    # one pass to X + 1 (F_X(1) sums through n = X) serves lambda and mu alike
    assert kernel_calls == _one_pass(X + 1, 4097)
    assert kernel_calls.pids() - {os.getpid()}  # the later segments were sieved in a child
    assert report_json_text(suite) == report_json_text(_standalone_cases(X))


def test_requests_of_one_pass_do_not_couple(monkeypatch):
    """Each complex request of the suite gets the same bits from the
    suite's one pass as from a pass of its own, where no other exponent,
    kind, stop or window sets the moment orders or the ranges of its
    sub-blocks."""
    seen = {}

    def recording(requests):
        seen.update(_evaluate(requests))
        return seen

    verify_module = importlib.import_module("zetalab.verify")
    monkeypatch.setattr(verify_module, "_evaluate", recording)
    X = 10**5
    run_default_suite(X=X)
    shared = [r for r in seen if isinstance(r.q, complex)]
    assert len({r.q.imag for r in shared}) < len({r.q for r in shared})  # some do share
    for r in shared:
        assert repr(_evaluate([r])[r]) == repr(seen[r]), r


def test_a_request_gets_the_same_bits_alone_and_in_any_pass():
    """A request alone and the same request in a pass with other stops
    and windows, inside its sub-blocks and its envelope window, agree
    bit for bit: value, tail estimate and tail model."""
    X = 3 * 10**5
    requests = [
        _integral(kind, s, X, tolerance=math.inf)
        for kind in (StepKind.F_HALF, StepKind.MU_ONE, StepKind.L_XI, StepKind.F_ONE)
        for s in (0.505 + 0.003j, 0.75, 1.5 + 2j, 2.0, 0.6 + 1j)
    ] + [_Polynomial(StepKind.P_OVER_U, -1.5 - 2j, X), _Polynomial(StepKind.F_ONE, 0.0, X)]
    others = [
        _Polynomial(StepKind.ONE, 0.0, 12345),
        _Polynomial(StepKind.MU_ONE, -0.75, 54321),
        _integral(StepKind.F_HALF, 1.25, 2 * 10**5 + 3),
    ]
    together = _evaluate([*requests, *others])
    for r in requests:
        assert repr(together[r]) == repr(_evaluate([r])[r]), r


def _rounded_inverse_sqrt(n: int) -> float:
    """n^(-1/2) correctly rounded, for n < 2^54. n^(-1/2) lies in
    [z, z + 1) 2^-k with z = floor(2^k n^(-1/2)) exact, and is a midpoint
    between doubles for no n; those midpoints are multiples of 2^-81, none
    strictly between z 2^-k and (z + 1) 2^-k. So (z + 1/2) 2^-k, correctly
    rounded by CPython's int division, rounds as n^(-1/2) does."""
    k = 256
    z = math.isqrt((1 << 2 * k) // n)
    return (2 * z + 1) / (1 << (k + 1))


@pytest.mark.parametrize("b", [1, 10**6 - _SUB_BLOCK // 2, 2**52 - _SUB_BLOCK // 2])
def test_coefficients_take_one_reciprocal_and_its_square_root(b):
    """On a sub-block from b, the n^(-1) kinds are lambda / n (mu / n)
    bit for bit; F_HALF's n^(-1/2) lies within an ulp of the correctly
    rounded value and never increases with n; L_XI's weight is F_HALF's
    minus F_ONE's, rounded once; and a(1) = 0 but for T_SUM."""
    rng = np.random.default_rng(b)
    lam_i8 = rng.choice(np.array([-1, 1], dtype=np.int8), _SUB_BLOCK)
    sq = rng.random(_SUB_BLOCK) < 0.4
    ns = np.arange(b, b + _SUB_BLOCK, dtype=np.float64)
    lam = lam_i8.astype(np.float64)
    a = _coefficients(ns, lam, sq)
    head = slice(1 if b == 1 else 0, None)
    assert np.array_equal(a(StepKind.T_SUM), lam / ns)
    assert np.array_equal(a(StepKind.F_ONE)[head], (lam / ns)[head])
    assert np.array_equal(a(StepKind.MU_ONE)[head], (np.where(sq, 0.0, lam) / ns)[head])
    root = a(StepKind.F_HALF) * lam
    assert np.all(root[head] > 0) and np.all(np.diff(root[head]) <= 0)
    exact = np.array([_rounded_inverse_sqrt(n) for n in range(b, b + _SUB_BLOCK)])
    assert np.all(np.abs(root - exact)[head] <= np.spacing(exact)[head])
    assert np.array_equal(a(StepKind.L_XI), a(StepKind.F_HALF) - a(StepKind.F_ONE))
    if b == 1:
        assert [a(k)[0] for k in (StepKind.F_HALF, StepKind.F_ONE, StepKind.L_XI,
                                  StepKind.MU_ONE)] == [0.0] * 4
        assert a(StepKind.T_SUM)[0] == lam[0] and a(StepKind.ONE)[0] == 1.0


@pytest.mark.parametrize("b, c", [
    (1, 2), (1, 3), (8, 10), (48, 51), (2, 9), (1 + _SUB_BLOCK, 2 + _SUB_BLOCK),
])
def test_liveness_reads_the_range_and_the_squareful_mask(b, c):
    """_live(kind, b, j, squareful) is a(kind)[:j].any() for every kind on
    the range [b, c) of a sub-block from b: [1, 2) holds only a(1) = 0 for
    the a(1) = 0 kinds, mu is 0 on all of [8, 10) and [48, 51), and ONE
    is dead past n = 1."""
    stop = c + 8
    (_, (lam_i8, squareful)), = _iter_segments(_factor_segment, 1, stop)
    lam_i8, squareful = lam_i8[b - 1:], squareful[b - 1:]
    a = _coefficients(np.arange(b, stop, dtype=np.float64), lam_i8.astype(np.float64), squareful)
    j = c - b
    for kind in StepKind:
        assert _live(kind, b, j, squareful) == bool(a(kind)[:j].any()), kind
    if (b, c) in ((8, 10), (48, 51)):
        assert not _live(StepKind.MU_ONE, b, j, squareful)


def _coefficients_built(monkeypatch, tmp_path):
    """A _ProcessLog of (kind name, pid) for each lookup of a kind's
    coefficients on a sub-block from now on, in whichever process."""
    built = _ProcessLog(tmp_path / "coefficients.txt")
    real = integrals_module._coefficients

    def recording(ns, lam, squareful):
        a = real(ns, lam, squareful)
        return lambda kind: built.record(kind.name) or a(kind)

    monkeypatch.setattr(integrals_module, "_coefficients", recording)
    return built


def _kinds_by_pid(built):
    """pid -> the set of kinds whose coefficients it built."""
    kinds = {}
    for name, pid in built.rows():
        kinds.setdefault(int(pid), set()).add(StepKind[name])
    return kinds


def test_the_suite_builds_no_p_over_u_coefficients(monkeypatch, tmp_path):
    """The suite's series cross-check sums F_ONE's stream, so its pass
    builds the coefficients of F_HALF, F_ONE, L_XI and MU_ONE alone, in
    the caller and any fold child; and StepKind members hash in C, by
    identity."""
    log = _coefficients_built(monkeypatch, tmp_path)
    run_default_suite(X=10**5)
    built = set().union(*_kinds_by_pid(log).values())
    assert built == {StepKind.F_HALF, StepKind.F_ONE, StepKind.L_XI, StepKind.MU_ONE}
    assert StepKind.__hash__ is object.__hash__


@pytest.mark.parametrize("X, mib", [(10**5, 4.5), (10**6, 6.1)])
def test_suite_memory_stays_near_the_sieve(X, mib):
    """The suite allocates at most 4.5 MiB at its peak at X = 1e5 and
    6.1 MiB at X = 1e6, where the sieve segment alone is 2 MiB: the
    sub-block arrays in use (256 KiB each), but no envelope fold's arrays
    kept through the sub-block's moments (5.1 MiB at 1e5 with them) and no
    direct-route power kept past its exponent (6.2 MiB at 1e6 with it)."""
    run_default_suite(X=10**4)
    tracemalloc.start()
    try:
        run_default_suite(X=X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


# The kinds whose a(n) is c(n) w(n) with w positive and non-increasing
# from n = 4, c lambda or mu: those an envelope fold may skip.
_BOUNDED = (StepKind.F_HALF, StepKind.F_ONE, StepKind.T_SUM, StepKind.L_XI,
            StepKind.MU_ONE, StepKind.P_OVER_U)


@settings(max_examples=100, deadline=None)
@example(b=4, m=1, plus=1.0, squareful=0.0, g0=0.0, cut=(0.0, 1.0), seed=0)
@example(b=2**53 - _SUB_BLOCK, m=_SUB_BLOCK, plus=1.0, squareful=0.0, g0=-1e-12,
         cut=(0.5, 1.0), seed=1)
@example(b=2**62, m=_SUB_BLOCK, plus=0.5, squareful=0.4, g0=3.0, cut=(0.0, 1.0), seed=2)
@given(
    b=st.integers(min_value=4, max_value=2**62),
    m=st.integers(min_value=1, max_value=_SUB_BLOCK),
    plus=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    squareful=st.sampled_from([0.0, 0.4]) | st.floats(min_value=0.0, max_value=1.0),
    g0=st.sampled_from([0.0]) | st.floats(min_value=-1e-12, max_value=1e-12)
    | st.floats(min_value=-1e3, max_value=1e3),
    cut=st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_envelope_bound_holds_every_value_of_a_sub_block(b, m, plus, squareful, g0, cut, seed):
    """Every float |g0 + np.cumsum(a)| / ns**ex that an envelope fold
    forms on the slice [i, j) of a sub-block of m terms from b, G being g0
    just before it, lies within the bound _envelope_bound takes from the
    slice's first n and the 64-term group bound of the block's lambda or
    mu, for every kind an envelope may skip and every envelope exponent,
    checked in exact arithmetic. The terms are the pass's own floats
    (_coefficients). Each lambda is +1 with chance plus, and a share
    squareful of the n is squareful (mu = 0 there)."""
    rng = np.random.default_rng(seed)
    lam = np.where(rng.random(m) < plus, 1, -1).astype(np.int8)
    sq = rng.random(m) < squareful
    ns = np.arange(b, b + m, dtype=np.float64)
    a = _coefficients(ns, lam.astype(np.float64), sq)  # the pass's terms: 1/n and its np.sqrt
    powers = functools.cache(lambda ex: ns**ex)
    i = min(int(cut[0] * m), m - 1)
    j = max(i + 1, int(cut[1] * m))
    for kind in _BOUNDED:
        c = lam * ~sq if kind is StepKind.MU_ONE else lam
        # the pass's d, and the least d, which leaves the rounding margins less room
        ds = (_abel_spread(c), int(np.abs(np.cumsum(c, dtype=np.int64)).max()))
        assert ds[0] >= ds[1]
        g_abs = np.abs(g0 + np.cumsum(a(kind)))
        for ex in (0.0, 0.5, 1.0):
            peak = float((g_abs[i:j] / powers(ex)[i:j]).max())
            for d in ds:
                bound = _envelope_bound(kind, ex, float(ns[0]), float(ns[i]), m, g0, d)
                assert Fraction(peak) <= Fraction(bound), (kind, ex, d)


def _count_envelope_folds(monkeypatch, tmp_path):
    """A _ProcessLog whose length counts the envelope folds from now on,
    those of a fold child included."""
    folds = _ProcessLog(tmp_path / "folds.txt")
    real = integrals_module._envelope_peak

    def counting(g_abs, powers):
        folds.record()
        return real(g_abs, powers)

    monkeypatch.setattr(integrals_module, "_envelope_peak", counting)
    return folds


def test_skipped_envelope_folds_change_no_bit(monkeypatch, tmp_path):
    """Folding every sub-block into every envelope, as a pass without
    the Abel bound would, leaves the suite's report, integrate_step of
    every kind and kernel at sigma > 1 and a Mu_one sigma-c trace bit for
    bit as they are."""
    X = 3 * 10**5
    folds = _count_envelope_folds(monkeypatch, tmp_path)

    def run(name):
        trace = tmp_path / name
        estimate_sigma_c(StepKind.MU_ONE, [1.1, 1.2, 1.3, 1.4], [10**4, 10**5, X],
                         trace_path=str(trace))
        steps = [integrate_step(kind, s, X, kernel=kernel)
                 for kind in StepKind for kernel in KERNELS for s in (1.5, 2.25 + 1j)]
        return report_json_text(run_default_suite(X=X)), trace.read_text(), repr(steps)

    skipping = run("skipping.csv")
    skipped_folds = len(folds)
    monkeypatch.setattr(integrals_module, "_envelope_bound", lambda *args: math.inf)
    folds.clear()
    assert run("folding.csv") == skipping
    assert skipped_folds < len(folds)  # the bound did skip some


def test_most_envelope_folds_past_a_million_are_skipped(monkeypatch, tmp_path):
    """Of the 128 (kind, window, sub-block) envelope folds of the suite
    at X = 1e6, few can raise an envelope: the first sub-block of each
    of its 5 windows must fold, and 15 do in all. A pass that quietly
    folds every sub-block again fails here."""
    folds = _count_envelope_folds(monkeypatch, tmp_path)
    run_default_suite(X=10**6)
    assert 5 <= len(folds) <= 30


def test_no_float_depends_on_a_grid_multiple_segment_length(segment_length):
    """At every segment length that is a multiple of _SUB_BLOCK the
    sub-blocks lie on one grid from n = 1, so the suite's report, the
    sigma-c traces, the partial sums and a sign scan keep every bit."""
    X = 3 * 10**5

    def run():
        est = estimate_sigma_c(StepKind.F_ONE, [0.4, 0.5, 0.6], [10**4, 10**5, X])
        return repr((report_json_text(run_default_suite(X=X)), est.traces,
                     partial_sums(X, (0.3,)), run_scan(10 * X)))

    default = run()
    for length in (_SUB_BLOCK, 3 * _SUB_BLOCK, 1 << 21):
        segment_length(length)
        assert run() == default, length


def test_sigma_c_is_one_pass_and_matches_integrate_step(kernel_calls, segment_length):
    grid = [0.40, 0.45, 0.50, 0.55, 0.60]
    schedule = [10**2, 10**3, 10**4, 3 * 10**4]
    segment_length(4097)
    est = estimate_sigma_c(StepKind.F_ONE, grid, schedule)
    assert kernel_calls == _one_pass(schedule[-1], 4097)
    for sigma in grid:
        for x, value in zip(schedule, est.traces[sigma]):
            assert repr(value) == repr(integrate_step(StepKind.F_ONE, sigma, x).value), (sigma, x)


def test_one_alone_runs_no_kernel(kernel_calls):
    X = 10**5
    for kernel in KERNELS:
        value = integrate_step(StepKind.ONE, 2.0, X, kernel=kernel).value
        assert _close(value, per_cell_integral(StepKind.ONE, 2.0, X, kernel))
    assert kernel_calls == []


def test_sums_command_is_one_pass(kernel_calls, capsys, segment_length):
    segment_length(1000)
    assert main(["sums", "--x", "3000"]) == 0
    assert "L_3000" in capsys.readouterr().out
    assert kernel_calls == _one_pass(3001, 1000)


def test_sums_out_with_alpha_is_one_pass(kernel_calls, capsys, tmp_path, segment_length):
    path = tmp_path / "sums.csv"
    segment_length(1000)
    argv = ["sums", "--x", "3000", "--alpha", "0.25"]
    assert main(argv + ["--out", str(path)]) == 0
    assert kernel_calls == _one_pass(3001, 1000)
    # the alpha total and the CSV are what their standalone routes give
    assert f"F_3000(0.25) = {f_x(0.25, 3000):.15g}" in capsys.readouterr().out
    partial_sums(3000, csv_path=str(tmp_path / "alone.csv"))
    assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_scans_are_one_pass(kernel_calls, segment_length):
    segment_length(1000)
    explore_condition_r(3000)
    assert kernel_calls == _one_pass(3001, 1000)
    kernel_calls.clear()
    growth_exponent_diagnostic(3000)
    assert kernel_calls == _one_pass(3001, 1000)


def test_ratio_decomposition_at_the_pole_raises_before_the_pass(kernel_calls):
    with pytest.raises(DomainError):
        verify_ratio_decomposition(1.0, 10**6)
    assert kernel_calls == []


@pytest.fixture
def one_thread(monkeypatch):
    """Let a pass split as in a process of one thread, which it is not
    where numpy's BLAS pool has more: the split path's tests then run
    too, only slower."""
    monkeypatch.setattr(integrals_module, "_one_thread", lambda: True)


@pytest.mark.parametrize("length", [None, 30011])
def test_a_split_pass_sieves_each_n_once(one_thread, within_a_minute, kernel_calls, segment_length, monkeypatch,
                                         tmp_path, length):
    """The suite's pass folds the root kinds, F_HALF and L_XI, in a forked
    child and F_ONE and MU_ONE in the caller, from one sieve pass over one
    segment, or over four."""
    X = 10**5
    if length is not None:
        segment_length(length)
    built = _coefficients_built(monkeypatch, tmp_path)
    run_default_suite(X=X)
    assert kernel_calls == (_one_pass(X + 1, length) if length else [(1, X + 1)])
    by_pid = _kinds_by_pid(built)
    assert by_pid.pop(os.getpid()) == {StepKind.F_ONE, StepKind.MU_ONE}
    assert list(by_pid.values()) == [{StepKind.F_HALF, StepKind.L_XI}]


@pytest.mark.parametrize("length", [None, 3 * _SUB_BLOCK])
def test_a_split_pass_keeps_every_bit(one_thread, within_a_minute, segment_length, monkeypatch, length):
    """The suite's report is byte-identical whether its pass folds in two
    processes or, without os.fork, in one."""
    X = 10**5
    if length is not None:
        segment_length(length)
    split = report_json_text(run_default_suite(X=X))
    monkeypatch.delattr(os, "fork")
    assert report_json_text(run_default_suite(X=X)) == split


@pytest.mark.parametrize("terms, split", [(_SUB_BLOCK, False), (_SUB_BLOCK + 1, True)])
def test_a_pass_splits_only_past_one_sub_block(one_thread, within_a_minute, monkeypatch, tmp_path, terms, split):
    """A pass of both families over one sub-block stays in-process."""
    built = _coefficients_built(monkeypatch, tmp_path)
    _evaluate([_Polynomial(StepKind.F_HALF, 0.0, terms + 1), _Polynomial(StepKind.F_ONE, 0.0, terms + 1)])
    assert (built.pids() != {os.getpid()}) == split


def test_a_family_with_a_prefix_folds_in_the_caller(one_thread, within_a_minute, monkeypatch, tmp_path):
    """_Prefix visits run in the caller, and a pass that holds one does
    not split: with an F_HALF prefix, the caller folds both families and
    F_ONE's value keeps its bits; so with a prefix in each family too."""
    stop = 3 * _SUB_BLOCK
    seen = []
    prefix = _Prefix(StepKind.F_HALF, stop, lambda ns, g: seen.append(ns[-1]))
    poly = _Polynomial(StepKind.F_ONE, -0.5, stop)
    built = _coefficients_built(monkeypatch, tmp_path)
    value = _evaluate([prefix, poly])[poly]
    assert seen[-1] == stop - 1
    assert built.pids() == {os.getpid()}
    assert repr(value) == repr(_evaluate([poly])[poly])
    built.clear()
    _evaluate([prefix, _Prefix(StepKind.MU_ONE, stop, lambda ns, g: None), poly])
    assert built.pids() == {os.getpid()}


def test_a_process_with_a_second_thread_does_not_split(within_a_minute, monkeypatch, tmp_path):
    """A pass splits only in a process of one thread: in one that runs a
    second, a BLAS pool's worker or any other, the pass stays in-process.
    A fresh interpreter whose BLAS is pinned to one thread runs one."""
    built = _coefficients_built(monkeypatch, tmp_path)
    stop = 3 * _SUB_BLOCK
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert not integrals_module._one_thread()
        _evaluate([_Polynomial(StepKind.F_HALF, 0.0, stop), _Polynomial(StepKind.F_ONE, 0.0, stop)])
    finally:
        done.set()
        thread.join(timeout=60)
    assert built.pids() == {os.getpid()}
    if os.path.isdir("/proc/self/task"):  # where _one_thread can read it
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", "import zetalab.cli; from zetalab.integrals import _one_thread; "
             "print(_one_thread())"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout == "True\n", proc.stderr


@pytest.mark.parametrize("length", [None, 3 * _SUB_BLOCK])
def test_an_error_in_the_fold_child_reaches_the_caller(one_thread, within_a_minute, segment_length, monkeypatch,
                                                       length):
    """An exception raised in the fold child alone is raised in the
    caller with its type and message: once the caller has folded its one
    segment, or at its next send, as the child stops reading."""
    if length is not None:
        segment_length(length)
    caller, real = os.getpid(), integrals_module._coefficients

    def failing(ns, lam, squareful):
        if os.getpid() != caller:
            raise LookupError("in the fold child")
        return real(ns, lam, squareful)

    monkeypatch.setattr(integrals_module, "_coefficients", failing)
    with pytest.raises(LookupError) as raised:
        run_default_suite(X=10**5)
    assert type(raised.value) is LookupError and str(raised.value) == "in the fold child"


@pytest.mark.parametrize("length", [None, 3 * _SUB_BLOCK])
def test_an_error_the_fold_child_cannot_send_is_its_exit_status(one_thread, within_a_minute, segment_length,
                                                                monkeypatch, capfd, length):
    """An exception raised in the fold child alone that cannot be pickled
    ends the child with status 1 and its traceback on fd 2; the caller
    raises that status, once it has folded its one segment or at its
    next send, and leaves no child."""
    if length is not None:
        segment_length(length)
    caller, real = os.getpid(), integrals_module._coefficients

    def failing(ns, lam, squareful):
        if os.getpid() != caller:
            raise LookupError(lambda: None)
        return real(ns, lam, squareful)

    monkeypatch.setattr(integrals_module, "_coefficients", failing)
    with pytest.raises(ZetalabError, match="^the Abel fold process exited with status 1$"):
        run_default_suite(X=10**5)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "Traceback" in capfd.readouterr().err


@pytest.mark.parametrize("length", [None, 30011])
def test_a_split_pass_sends_the_fold_child_one_byte_per_n(one_thread, within_a_minute, segment_length,
                                                          monkeypatch, tmp_path, length):
    """The caller writes each segment's lambda alone into the fold
    child's pipe, one byte per n: the root kinds read no squareful mask."""
    X = 10**5
    if length is not None:
        segment_length(length)
    writes, real = _ProcessLog(tmp_path / "writes.txt"), integrals_module._write_all

    def recording(w, data):
        writes.record(w, memoryview(data).nbytes)
        real(w, data)

    monkeypatch.setattr(integrals_module, "_write_all", recording)
    run_default_suite(X=X)
    sent = [(int(w), int(nbytes)) for w, nbytes, pid in writes.rows() if int(pid) == os.getpid()]
    assert len({w for w, _ in sent}) == 1
    assert [nbytes for _, nbytes in sent] == [hi - lo for lo, hi in _one_pass(X + 1, length or X)]
    assert sum(nbytes for _, nbytes in sent) == X


def test_an_error_in_the_caller_kills_and_reaps_both_children(one_thread, within_a_minute, segment_length,
                                                              monkeypatch):
    """An exception in the caller's fold ends the pass at once: the fold
    child, which here waits until it is killed, and the stream's sieve
    child are both killed and reaped."""
    segment_length(3 * _SUB_BLOCK)
    caller = os.getpid()

    def failing(ns, lam, squareful):
        if os.getpid() == caller:
            raise LookupError("in the caller")
        time.sleep(90)  # past within_a_minute, should the kill be missing

    monkeypatch.setattr(integrals_module, "_coefficients", failing)
    with pytest.raises(LookupError, match="^in the caller$"):
        run_default_suite(X=10**5)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_fold_child_result_past_one_pipe_buffer_gets_through(one_thread, within_a_minute):
    """A fold child's pickled result longer than a 64 KiB pipe buffer is
    read to its end before the child is reaped, and keeps every bit."""
    stop = _SUB_BLOCK + 2
    roots = [_Polynomial(StepKind.F_HALF, complex(0.0, k * 1e-5), stop) for k in range(4000)]
    out = _evaluate([*roots, _Polynomial(StepKind.F_ONE, 0.0, stop)])
    assert len(pickle.dumps((True, ([out[r] for r in roots], [])))) > 2**16
    alone = _evaluate(roots)
    assert all(repr(out[r]) == repr(alone[r]) for r in roots)


def _prefix_coefficients(kind, stop):
    """a(n) for n in [1, stop), from the sieve's table rather than the core."""
    ns = np.arange(1, stop, dtype=np.float64)
    lam = sieve_range(1, stop).values.astype(np.float64)
    if kind is StepKind.P_OVER_U:
        return lam  # a(1) = lambda(1) = 1, so G(n) = P(n)
    a = {
        StepKind.F_HALF: lam * ns**-0.5,
        StepKind.L_XI: lam * (ns**-0.5 - 1.0 / ns),
        StepKind.MU_ONE: mobius_segment(1, stop) / ns,
    }[kind]
    a[0] = 0.0
    return a


@pytest.mark.parametrize("length", [89, 4097, None])
def test_prefix_visits_see_each_n_once_in_order(segment_length, length):
    """_Prefix visits cover [1, stop) once, in ascending order, with the
    running sum of the kind's a(n), among other requests whose stops and
    windows fall inside the sub-blocks, through ranges where a(n)
    vanishes; an enveloped integral of F_HALF shares its running G with
    the F_HALF visits."""
    stops = {StepKind.P_OVER_U: 10007, StepKind.F_HALF: 5000, StepKind.L_XI: 9999,
             StepKind.MU_ONE: 7001}
    seen = {kind: [] for kind in stops}
    prefixes = [
        _Prefix(kind, stop, lambda ns, g, kind=kind: seen[kind].append((ns.copy(), g.copy())))
        for kind, stop in stops.items()
    ]
    others = [
        _Polynomial(StepKind.ONE, 0.0, 2),  # a range [1, 2) where only P_OVER_U is live
        _Polynomial(StepKind.F_ONE, 0.0, 3001),
        _Polynomial(StepKind.L_XI, -0.5 + 1j, 12345),
        _integral(StepKind.F_HALF, 2.0, 7777),
    ]
    if length is not None:
        segment_length(length)
    _evaluate([*prefixes, *others])
    for kind, stop in stops.items():
        ns = np.concatenate([ns for ns, _ in seen[kind]])
        g = np.concatenate([g for _, g in seen[kind]])
        assert np.array_equal(ns, np.arange(1, stop)), kind
        expected = np.cumsum(_prefix_coefficients(kind, stop))
        if kind is StepKind.P_OVER_U:
            assert np.array_equal(g, expected)  # integers: exact
        else:
            assert np.max(np.abs(g - expected)) <= 1e-13, kind


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(list(StepKind)),
    st.sampled_from(KERNELS),
    st.floats(min_value=0.55, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=2, max_value=3000),
)
def test_segment_size_invariance(kind, kernel, sigma, t, X):
    s = complex(sigma, t)
    assume(all(abs(s + shift - 1.0) > 1e-6 for shift in (0.0, 0.5, 1.0, 1.5)))
    base = integrate_step(kind, s, X, kernel=kernel)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("zetalab.liouville.DEFAULT_SEGMENT", 89)
        small = integrate_step(kind, s, X, kernel=kernel)
    assert _close(small.value, base.value)
