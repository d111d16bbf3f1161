"""The Abel-summation integral core against the per-cell route, and its sieve passes."""

import functools
import importlib
import math
import os
import sys
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
)
from zetalab.cli import main
from zetalab.compensated import CompensatedSum
from zetalab.liouville import _factor_segment, _iter_segments, mobius_segment, run_scan, sieve_range
from zetalab.sums import partial_sums
from zetalab.integrals import (
    _SUB_BLOCK,
    _TAYLOR_TOL,
    _abel_spread,
    _coefficients,
    _envelope_bound,
    _evaluate,
    _integral_series,
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
    """ns, +-1 coefficients c(n) as lambda's, log n, and the block's log N and h."""
    ns = np.arange(centre - length // 2, centre + length // 2, dtype=np.float64)
    c = np.random.default_rng(centre).choice([-1.0, 1.0], length)
    logn = np.log(ns)
    return ns, c, logn, (logn[0] + logn[-1]) / 2, (logn[-1] - logn[0]) / 2


def _fsum_close(value, terms, rel=1e-15):
    exact = complex(math.fsum(terms.real), math.fsum(np.imag(terms)))
    return abs(value - exact) <= rel * math.fsum(np.abs(terms))


# (centre, length, w) of a sub-block of +-1 coefficients read at each shift w at which the
# kinds read lambda's and mu's streams; the unshifted case keeps the block's own id
SHIFTED_BLOCKS = [
    pytest.param(centre, length, w, id=f"{centre}-{length}" + (f"-w{w}" if w else ""))
    for centre, length in ((10**4, 1 << 11), (10**6, _SUB_BLOCK))
    for w in (0.0, -0.5, -1.0)
]


@pytest.mark.parametrize("centre, length, w", SHIFTED_BLOCKS)
def test_moment_route_matches_a_direct_sum_on_one_sub_block(centre, length, w):
    """With +-1 coefficients c(n) read at a shift w of the exponent q,
    N^u (M_0 + u T), u = q + w, is the block's sum c(n) n^u to 1e-15 of
    sum |c(n) n^u|, up to |u| h = 1."""
    ns, c, logn, log_mid, h = _sub_block(centre, length)
    edge = 0.99 / h  # |q| h just inside the moment route
    for q in (-2.5, -0.25, 0.3, -1 - 2j, -0.1 - 1j, 0.5 + 3j, -edge, edge * (0.6 - 0.8j)):
        u = q + w
        order = _taylor_order(abs(u) * h)
        if order is None:
            assert w, q  # unshifted, every q here is on the moment route
            continue
        m = _moments({0: c}, {0: order}, logn - log_mid)[0]
        value = np.exp(u * log_mid) * (m[0] + u * _taylor_quotient(u, m, order))
        assert _fsum_close(value, c * np.exp(u * logn)), (q, order)


@pytest.mark.parametrize("centre, length, w", SHIFTED_BLOCKS)
def test_moment_route_matches_a_direct_integral_on_one_sub_block(centre, length, w):
    """N^u sum_k c_k M_k / k!, u = q + w, D = log(x/N) (_integral_series),
    is the block's share sum c(n) n^w n^q expm1(q log(x/n))/q of an
    integral to x, with +-1 coefficients c(n) read at a shift w, to 1e-15
    of the sum of the terms' absolute values: at q = 0 and next to it, up
    to max(|u|, |w|) h = 1, and with x at the block's end or far beyond it."""
    ns, c, logn, log_mid, h = _sub_block(centre, length)
    edge = 0.99 / h
    for q in (0.0, 1e-9, -1e-6j, -0.02, 0.3, -1 - 2j, edge, -edge):
        u = q + w
        with np.errstate(over="ignore", under="ignore"):
            power = np.abs(np.exp(u * logn))
        if not (np.all(np.isfinite(power)) and power.min() >= np.finfo(np.float64).tiny):
            continue  # n^u is not a normal float here: +-0.99/h at N = 1e6
        order = _taylor_order(max(abs(u), abs(w)) * h)
        if order is None:
            assert w, q  # unshifted, every q here is on the moment route
            continue
        m = _moments({0: c}, {0: order}, logn - log_mid)[0]
        for x in (ns[-1] + 1, 1.5e6, 1e7):
            log_x = math.log(x)
            value = np.exp(u * log_mid) * _integral_series(q, w, m, order, log_x - log_mid)
            d = log_x - logn
            terms = c * np.exp(w * logn) * (np.exp(q * logn) * np.expm1(q * d) / q if q else d)
            assert _fsum_close(value, terms), (q, x, order)


class _ProcessLog:
    """Lines appended to one file by every process that records: the
    fields given to record() and the recording pid, so that a count sees
    the calls made in a forked sieve child too."""

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

    def counting(lo, hi, base_primes, **options):
        calls.record(lo, hi)
        return original(lo, hi, base_primes, **options)

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


def test_every_sum_of_the_suite_is_fsum_of_its_terms_in_any_order(monkeypatch):
    """Each request's value in the suite's pass, and each running G, is
    math.fsum of the terms added to its sums, bit for bit, and the same
    terms added in reverse order give the same bits."""
    terms, folds = {}, []
    add, init = CompensatedSum.add, integrals_module._Fold.__init__

    def recording_add(self, term):
        terms.setdefault(self, []).append(float(term))
        add(self, term)

    def recording_init(self, requests):
        init(self, requests)
        folds.append(self)

    monkeypatch.setattr(CompensatedSum, "add", recording_add)
    monkeypatch.setattr(integrals_module._Fold, "__init__", recording_init)
    run_default_suite(X=10**5)
    monkeypatch.undo()
    (fold,) = folds
    sums = [*fold.sums.values(), *fold.g.values()]
    parts = [p for acc in sums for p in ((acc,) if isinstance(acc, CompensatedSum) else (acc.re, acc.im))]
    assert fold.sums and fold.g and set(parts) == set(terms)
    for acc in parts:
        added = terms[acc]
        assert acc.value.hex() == math.fsum(added).hex()
        backwards = CompensatedSum()
        for term in reversed(added):
            backwards.add(term)
        assert backwards.value.hex() == acc.value.hex()


def test_a_pass_that_reads_no_mu_sieves_no_squareful_mask(monkeypatch, tmp_path, segment_length):
    """A pass without a MU_ONE request sieves lambda alone, with no
    squareful mask, in the caller and in its sieve child, and each of its
    requests gets the same bits as next to a MU_ONE request, whose pass
    builds the mask."""
    masks = _ProcessLog(tmp_path / "masks.txt")
    liouville_module = importlib.import_module("zetalab.liouville")
    original = liouville_module._factor_segment

    def recording(lo, hi, base_primes, mask=True):
        masks.record(mask)
        return original(lo, hi, base_primes, mask=mask)

    for module in (liouville_module, integrals_module):  # integrals imports it by name
        monkeypatch.setattr(module, "_factor_segment", recording)
    segment_length(3 * _SUB_BLOCK)
    X = 3 * 10**5
    requests = [
        _integral(kind, s, X)
        for kind in (StepKind.F_HALF, StepKind.F_ONE, StepKind.L_XI, StepKind.T_SUM, StepKind.P_OVER_U)
        for s in (0.75, 1.5 + 2j)
    ] + [_Polynomial(StepKind.F_ONE, 0.0, X + 1)]
    alone = _evaluate(requests)
    assert {mask for mask, _ in masks.rows()} == {"False"}
    assert len(masks.pids()) == 2  # the caller's first segment and the child's
    masks.clear()
    mu = _integral(StepKind.MU_ONE, 2.0, X)
    together = _evaluate([*requests, mu])
    assert {mask for mask, _ in masks.rows()} == {"True"}
    for r in requests:
        assert repr(together[r]) == repr(alone[r]), r


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
    """_live(mu, b, j, squareful) is whether mu's stream (mu True) or
    lambda's has a nonzero c(n) on the range [max(b, 2), c) of a sub-block
    from b: [1, 2) holds no stream term, and mu is 0 on all of [8, 10) and
    [48, 51)."""
    stop = c + 8
    (_, (lam_i8, squareful)), = _iter_segments(_factor_segment, 1, stop)
    lam_i8, squareful = lam_i8[b - 1:], squareful[b - 1:]
    first, j = int(b == 1), c - b
    for mu in (False, True):
        stream = np.where(squareful, 0, lam_i8) if mu else lam_i8
        assert _live(mu, b, j, squareful) == bool(stream[first:j].any()), mu
    if (b, c) in ((1, 2), (8, 10), (48, 51)):
        assert not _live(True, b, j, squareful)


def test_the_suite_folds_the_moments_of_two_streams_alone(monkeypatch):
    """Every moment call of the suite's pass holds lambda's stream, mu's
    or both, never a kind's own a(n): each kind reads one of the two at a
    shift of its exponent. StepKind members hash in C, by identity."""
    calls, real = [], integrals_module._moments

    def recording(a, rows, delta):
        calls.append(set(a))
        return real(a, rows, delta)

    monkeypatch.setattr(integrals_module, "_moments", recording)
    run_default_suite(X=10**5)
    assert calls and all(streams <= {False, True} for streams in calls)
    assert set().union(*calls) == {False, True}
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
    """A _ProcessLog whose length counts the envelope folds from now on."""
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
