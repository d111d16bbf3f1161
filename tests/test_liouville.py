"""Sieve, scan, and checkpoint tests for the Liouville module."""

import dataclasses
import itertools
import math
import os
import re
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import importlib

lv = importlib.import_module("zetalab.liouville")

from zetalab import (
    CapacityError,
    DomainError,
    LiouvilleTable,
    ScanCheckpoint,
    ZetalabError,
    iter_lambda_segments,
    iter_mobius_segments,
    run_default_suite,
    run_scan,
    sieve_range,
)
from zetalab.liouville import liouville


def _omega_oracle(n: int) -> int:
    return sum(sympy.factorint(n).values())


def test_liouville_matches_factorint_small():
    for n in range(1, 2000):
        assert liouville(n) == (-1) ** _omega_oracle(n), n


def test_liouville_matches_factorint_random(rng):
    for n in rng.integers(1, 10**7, size=200):
        n = int(n)
        assert liouville(n) == (-1) ** _omega_oracle(n), n


def test_liouville_known_values():
    # lambda at primes is -1, at prime squares +1, lambda(1) = 1
    assert liouville(1) == 1
    assert liouville(2) == -1
    assert liouville(4) == 1
    assert liouville(8) == -1
    assert liouville(9) == 1
    assert liouville(12) == -1  # 2^2 * 3
    assert liouville(997) == -1


def test_liouville_domain():
    with pytest.raises(DomainError):
        liouville(0)
    with pytest.raises(DomainError):
        liouville(-5)
    with pytest.raises(DomainError):
        liouville(1 << 63)


@given(st.integers(1, 100), st.integers(1, 100))
def test_liouville_completely_multiplicative(m, n):
    assert liouville(m * n) == liouville(m) * liouville(n)


# 31607 is the largest base prime for hi near 1e9; around its square the
# sieve finds a square factor only through that last prime.
_LAST_SQUARE = 31607**2


def test_segment_far_window_matches_trial_division():
    for lo in (10**9, _LAST_SQUARE - 1024):
        vals = lv.lambda_segment(lo, lo + 2048)
        for i in [*range(0, 2048, 37), 1024]:
            assert vals[i] == liouville(lo + i), lo + i


def _trial_division(n: int, bound: int):
    """(Omega(n), squarefree) by division by every d in [2, bound]; a
    cofactor left above bound counts as one prime factor."""
    ds = np.arange(2, bound + 1, dtype=np.int64)
    omega, squarefree = 0, True
    for d in ds[n % ds == 0].tolist():  # composite d no longer divide when reached
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        omega += k
        squarefree &= k < 2
    return omega + (n > 1), squarefree


# Near 2^62 the primes up to sqrt(n) (about 2^31) are out of reach, so
# the kernel gets the primes up to this bound and the oracle divides by
# the same range: that checks its log weights and thresholds there.
_FAR_BOUND = 1 << 12


@st.composite
def _kernel_windows(draw):
    """(lo, hi, prime bound or None for all primes to sqrt(hi - 1))."""
    kind = draw(st.sampled_from(["tiny", "wheel", "2^40", "2^62"]))
    if kind == "tiny":  # hi <= 50: wheel primes above the base limit
        lo = draw(st.integers(1, 49))
        return lo, draw(st.integers(lo + 1, 50)), None
    first_k = {"wheel": 0, "2^40": 2**40 // lv._WHEEL, "2^62": 2**62 // lv._WHEEL}[kind]
    k = first_k + draw(st.integers(0, 2000))
    lo = max(1, k * lv._WHEEL + draw(st.sampled_from([-1, 0, 1])))
    span = draw(st.integers(1, 400 if kind == "wheel" else 8))
    return lo, lo + span, _FAR_BOUND if kind == "2^62" else None


@settings(max_examples=60, deadline=None)
@example(window=(1, 2, None))
@example(window=(5039, 5042, None))
@example(window=(2**62 // 5040 * 5040 - 1, 2**62 // 5040 * 5040 + 8, _FAR_BOUND))
# c = 4099 beside s = 2^50, in the binade L = 62: the weights' error of
# Omega(s) = 50 hides c from a log scale of 8, not from 64
@example(window=(2**50 * 4099, 2**50 * 4099 + 1, _FAR_BOUND))
@given(_kernel_windows())
def test_segments_match_trial_division(window):
    """lambda_segment and mobius_segment agree with trial division at
    and around multiples of the wheel period, on tiny and on far windows."""
    lo, hi, bound = window
    base = None if bound is None else lv._base_primes(bound)
    lam = lv.lambda_segment(lo, hi, base)
    mu = lv.mobius_segment(lo, hi, base)
    for n in range(lo, hi):
        omega, squarefree = _trial_division(n, math.isqrt(n) if bound is None else bound)
        assert lam[n - lo] == (-1) ** omega, n
        assert mu[n - lo] == (lam[n - lo] if squarefree else 0), n


def test_small_windows_match_liouville():
    """Windows [lo, hi) with hi <= 2000, each with its own base primes
    and binade pieces, against trial division: every window of up to 4
    terms, so each n meets the fewest base primes its window allows,
    and every window from 1 or to 2000, which cross every binade."""
    ref = [0] + [liouville(n) for n in range(1, 2000)]
    windows = {(lo, hi) for hi in range(2, 2001) for lo in range(max(1, hi - 4), hi)}
    windows |= {(1, n) for n in range(2, 2001)} | {(n, 2000) for n in range(1, 2000)}
    for lo, hi in sorted(windows):
        assert lv.lambda_segment(lo, hi).tolist() == ref[lo:hi], (lo, hi)


@pytest.mark.parametrize("k", range(5, 45))
def test_windows_straddling_a_power_of_two_match_factorint(k):
    """Around 2^k the binade threshold changes within one window."""
    lo, hi = max(1, 2**k - 40), 2**k + 40
    lam = lv.lambda_segment(lo, hi, lv._base_primes(math.isqrt(hi - 1)))
    for n in range(lo, hi):
        assert lam[n - lo] == (-1) ** _omega_oracle(n), n


def test_log_weights_meet_the_kernel_bounds():
    """Each weight is odd and within 1 of S*log2(p); S clears the gap
    that a cofactor c >= 11 leaves up to L = 62; no sum overflows uint16."""
    primes = lv._base_primes(2**16)
    weights = lv._log_weights(primes)
    assert np.all(weights % 2 == 1)
    assert np.all(np.abs(weights - lv._LOG_SCALE * np.log2(primes)) <= 1)
    assert lv._LOG_SCALE * (math.log2(11) - 1) > 2 * 62
    assert (lv._LOG_SCALE + 1) * 63 < 2**16


def test_wheel_pattern_is_read_only():
    for pattern in (lv._WHEEL_WEIGHTS, lv._WHEEL_SQUAREFUL):
        assert len(pattern) == lv._WHEEL and not pattern.flags.writeable


def test_kernel_memory_stays_near_its_outputs():
    """One 2^20-term segment allocates at most 6 MiB at its peak: the
    uint16 log weights, the int8 and bool outputs and 2^15-term
    temporaries, but no full-length int64 array. lambda_segment builds
    no squareful mask, so it stays within 3.5 MiB."""
    lo = 50 * 2**20 + 1
    base = lv._base_primes(math.isqrt(lo + 2**20))
    for kernel, bound in ((lv._factor_segment, 6 * 2**20), (lv.lambda_segment, 3.5 * 2**20)):
        kernel(lo, lo + 2**20, base)
        tracemalloc.start()
        try:
            kernel(lo, lo + 2**20, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, kernel.__name__


def test_mobius_segment_matches_sympy():
    vals = lv.mobius_segment(1, 5000)
    for n in range(1, 5000):
        assert vals[n - 1] == sympy.mobius(n), n


def test_mobius_far_window_matches_sympy():
    for lo in (10**9, _LAST_SQUARE - 256):
        vals = lv.mobius_segment(lo, lo + 512)
        for i in range(512):
            assert vals[i] == sympy.mobius(lo + i), lo + i


def test_sieve_range_deterministic_across_segmenting(segment_length):
    segment_length(30000)
    ref = sieve_range(1, 30001)
    for seg in (1000, 7777, 10000):
        segment_length(seg)
        got = sieve_range(1, 30001)
        assert np.array_equal(ref.values, got.values)


def test_sieve_range_offsets_and_lookup():
    t = sieve_range(500, 600)
    assert len(t) == 100
    assert t.value(500) == liouville(500)
    assert t.value(599) == liouville(599)
    with pytest.raises(DomainError):
        t.value(600)


def test_sieve_range_capacity_guard():
    with pytest.raises(CapacityError):
        sieve_range(1, (1 << 26) + 3)


def test_far_windows_without_base_primes_are_refused_at_once():
    """Near 2^62 the base primes to sqrt(hi) would take 2 GiB to sieve."""
    lo, hi = 2**62 - 3000, 2**62 + 1000
    with pytest.raises(CapacityError):
        lv.lambda_segment(lo, hi)
    with pytest.raises(CapacityError):
        sieve_range(lo, hi)
    with pytest.raises(CapacityError):
        next(iter_lambda_segments(lo, hi))


def test_streaming_matches_table(segment_length):
    table = sieve_range(1, 12001)
    segment_length(997)
    chunks = [vals for _, vals in iter_lambda_segments(1, 12001)]
    assert np.array_equal(np.concatenate(chunks), table.values)


def test_mobius_streaming_matches_segment(segment_length):
    whole = lv.mobius_segment(1, 9001)
    segment_length(1234)
    chunks = [vals for _, vals in iter_mobius_segments(1, 9001)]
    assert np.array_equal(np.concatenate(chunks), whole)


def _no_fork():
    raise AssertionError("os.fork was called")


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_segment_starts_no_process(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    chunks = list(iter_lambda_segments(1, lv.DEFAULT_SEGMENT + 1))
    assert [lo for lo, _ in chunks] == [1]
    assert np.array_equal(sieve_range(1, 12001).values, lv.lambda_segment(1, 12001))


def test_past_the_base_prime_capacity_no_process_starts(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(CapacityError):
        next(iter_lambda_segments(2**60, 2**60 + 3 * lv.DEFAULT_SEGMENT))


def _abel_pass(start, stop):
    return lv._iter_segments(lv._factor_segment, start, stop)


@pytest.mark.parametrize("stream", [iter_lambda_segments, iter_mobius_segments, _abel_pass])
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_a_consumer_that_raises_leaves_no_child(within_a_minute, segment_length, stream, k):
    segment_length(1000)
    with pytest.raises(RuntimeError, match="consumer"):
        for i, _ in enumerate(stream(1, 9001)):
            if i + 1 == k:
                raise RuntimeError("consumer")
    _assert_no_child()


@pytest.mark.parametrize("stream", [iter_lambda_segments, iter_mobius_segments, _abel_pass])
def test_a_stream_closed_after_its_first_segment_leaves_no_child(within_a_minute, segment_length, stream):
    segment_length(1000)
    segments = stream(1, 9001)
    assert next(segments)[0] == 1
    segments.close()
    _assert_no_child()


def test_two_streams_at_once_close_and_leave_no_child(within_a_minute, segment_length):
    """The second stream's child inherits the first's pipe ends, so the
    first child cannot rely on seeing them close."""
    segment_length(1000)
    lam, mu = iter_lambda_segments(1, 9001), iter_mobius_segments(1, 9001)
    for (lo, a), (lo_mu, b) in itertools.islice(zip(lam, mu), 3):
        assert lo == lo_mu
        assert np.array_equal(a, lv.lambda_segment(lo, lo + 1000))
        assert np.array_equal(b, lv.mobius_segment(lo, lo + 1000))
    lam.close()
    mu.close()
    _assert_no_child()


def test_an_abel_pass_that_raises_leaves_no_child(within_a_minute, segment_length, monkeypatch):
    segment_length(1000)
    integrals = importlib.import_module("zetalab.integrals")
    real_fold, calls = integrals._fold_envelopes, []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("consumer")
        real_fold(*args)

    monkeypatch.setattr(integrals, "_fold_envelopes", failing)
    with pytest.raises(RuntimeError, match="consumer"):
        run_default_suite(X=10**4)
    _assert_no_child()


class _Unwritable:
    def view(self, dtype):
        raise RuntimeError("injected")


def test_a_segment_that_fails_in_the_child_is_an_error(within_a_minute, segment_length):
    """The second input fails after the child has written its segment's
    lambda into the pipe, so the parent reads part of a segment."""
    segment_length(1000)

    def failing(lo, hi, base_primes):
        if lo == 3001:
            raise RuntimeError("injected")
        return lv.lambda_segment(lo, hi, base_primes)

    def failing_partway(lo, hi, base_primes):
        lam, squareful = lv._factor_segment(lo, hi, base_primes)
        return (lam, _Unwritable()) if lo == 3001 else (lam, squareful)

    for segment_fn in (failing, failing_partway):
        got = []
        with pytest.raises(ZetalabError, match=r"\[3001, 4001\) exited with status 1$"):
            for lo, outs in lv._iter_segments(segment_fn, 1, 9001):
                assert all(len(out) == 1000 for out in (outs if isinstance(outs, tuple) else (outs,)))
                got.append(lo)
        assert got == [1, 1001, 2001]
        _assert_no_child()


def test_a_pipe_that_cannot_grow_carries_the_same_segments(within_a_minute, segment_length, monkeypatch):
    """Where F_SETPIPE_SZ is refused the pipe keeps its default size, of
    64 KiB on Linux, which each output here crosses several times."""
    fcntl = pytest.importorskip("fcntl")
    real_fcntl, refused = fcntl.fcntl, []

    def refusing(fd, cmd, *args):
        if cmd == getattr(fcntl, "F_SETPIPE_SZ", None):
            refused.append(fd)
            raise OSError("refused")
        return real_fcntl(fd, cmd, *args)

    monkeypatch.setattr(fcntl, "fcntl", refusing)
    segment_length(3 * 2**16 + 5)
    lam = np.concatenate([vals for _, vals in iter_lambda_segments(1, 2_000_001)])
    assert np.array_equal(lam, lv.lambda_segment(1, 2_000_001))
    lam_parts, squareful_parts = zip(*(outs for _, outs in _abel_pass(1, 2_000_001)))
    whole_lam, whole_squareful = lv._factor_segment(1, 2_000_001, None)
    assert np.array_equal(np.concatenate(lam_parts), whole_lam)
    assert np.array_equal(np.concatenate(squareful_parts), whole_squareful)
    assert len(refused) == (2 if hasattr(fcntl, "F_SETPIPE_SZ") else 0)
    _assert_no_child()


@pytest.mark.parametrize("stream", [iter_lambda_segments, iter_mobius_segments, _abel_pass])
def test_without_fork_a_stream_yields_the_same_segments(segment_length, monkeypatch, stream):
    segment_length(1000)
    forked = list(stream(1, 9001))
    monkeypatch.delattr(os, "fork")
    in_process = list(stream(1, 9001))
    assert [lo for lo, _ in in_process] == [lo for lo, _ in forked] == list(range(1, 9001, 1000))
    for (_, a), (_, b) in zip(in_process, forked):
        a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    _assert_no_child()


def test_scan_hand_values_to_ten():
    result = run_scan(10)
    # lambda on 1..10: +1 -1 -1 +1 -1 +1 -1 -1 +1 +1
    assert result.polya_final == 0
    t_exact = sum(Fraction((-1) ** _omega_oracle(n), n) for n in range(1, 11))
    assert result.turan_final == pytest.approx(float(t_exact), abs=1e-15)
    assert result.polya.first_violation is None
    assert result.turan.first_violation is None
    assert result.polya.min_value == -2
    assert result.polya.argmin == 8


def test_scan_turan_positive_to_1000():
    rep = run_scan(1000).turan
    assert rep.first_violation is None
    assert rep.min_value > 1e-6


def test_scan_polya_nonpositive_to_100k():
    rep = run_scan(10**5).polya
    assert rep.first_violation is None
    assert rep.min_value < -100  # deep negative excursion, not just boundary


def test_scan_sign_change_counter():
    # T(x) stays positive up front, so no sign change; force one by
    # scanning P over a range known to start positive (x=1) then dip.
    result = run_scan(100)
    assert result.turan.sign_change_count == 0
    assert result.polya.sign_change_count == 0  # P restricted to x >= 2 stays <= 0


def test_checkpoint_text_roundtrip(tmp_path, segment_length):
    path = tmp_path / "scan.ckpt"
    segment_length(512)
    run_scan(5000, checkpoint_path=str(path))
    ck = ScanCheckpoint.load(str(path))
    assert ck.limit == 5000
    assert ck.next_n == 5001
    text = ck.to_text()
    again = ScanCheckpoint.from_text(text)
    assert again == ck  # hex float fields survive bit-exactly


def test_checkpoint_parameter_mismatch(tmp_path, segment_length):
    path = tmp_path / "scan.ckpt"
    segment_length(512)
    run_scan(2000, checkpoint_path=str(path))
    with pytest.raises(DomainError):
        run_scan(3000, checkpoint_path=str(path))


def test_checkpoint_of_another_segment_length_is_refused(tmp_path):
    """A checkpoint of 512-term segments, as a scan in segments of 512
    leaves it, does not resume at the one segment length."""
    path = tmp_path / "scan.ckpt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "DEFAULT_SEGMENT", 512)
        run_scan(5000, checkpoint_path=str(path))
    written = path.read_bytes()
    with pytest.raises(DomainError, match="segment_size=512"):
        run_scan(5000, checkpoint_path=str(path))
    assert path.read_bytes() == written


@st.composite
def _kill_points(draw):
    """A scan limit, a segment size and how many segments finish before the crash."""
    limit = draw(st.integers(min_value=2, max_value=20000))
    seg = draw(st.integers(min_value=300, max_value=6000))
    return limit, seg, draw(st.integers(min_value=0, max_value=-(-limit // seg)))


@settings(max_examples=25, deadline=None)
@example(kill=(40000, 1024, 7), every=1, stride=1)
@example(kill=(20000, 1000, 7), every=4, stride=500)
@given(_kill_points(), st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=700))
def test_scan_resume_equivalence(kill, every, stride):
    """A resumed scan returns, saves and traces what the clean one does."""
    limit, seg, done = kill
    real_iter = lv.iter_lambda_segments

    def interrupting(start, stop):
        # done == the segment count crashes once every segment is folded in
        yield from itertools.islice(real_iter(start, stop), done)
        raise RuntimeError("injected crash")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "DEFAULT_SEGMENT", seg)
        mp.setattr(lv, "_SAVE_EVERY", every)

        def scan(name):
            ckpt, trace = (os.path.join(tmp, name + ext) for ext in (".ckpt", ".csv"))
            result = run_scan(limit, checkpoint_path=ckpt, csv_path=trace, csv_stride=stride)
            with open(ckpt, "rb") as ck_fh, open(trace, "rb") as csv_fh:
                return result, ck_fh.read(), csv_fh.read()

        clean = scan("clean")
        with pytest.MonkeyPatch.context() as crash:
            crash.setattr(lv, "iter_lambda_segments", interrupting)
            with pytest.raises(RuntimeError):
                scan("resumed")
        assert scan("resumed") == clean



@st.composite
def _scan_lengths(draw):
    """A segment length and a scan limit up to 3e4 that it cuts into at
    most 200 segments."""
    seg = draw(st.integers(min_value=1, max_value=(1 << 15) + 5))
    return draw(st.integers(min_value=2, max_value=min(30000, 200 * seg))), seg


@settings(max_examples=30, deadline=None)
@example(cut=(30000, (1 << 15) + 5))
@example(cut=(30000, 997))
@example(cut=(200, 1))
@given(_scan_lengths())
def test_scan_at_a_patched_segment_length(cut):
    """P's report is exact at any segment length; T's sign decisions are
    the same and its values move by rounding only."""
    limit, seg = cut
    base = run_scan(limit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "DEFAULT_SEGMENT", seg)
        small = run_scan(limit)
    assert small.polya == base.polya and small.polya_final == base.polya_final
    assert small.turan.first_violation == base.turan.first_violation
    assert small.turan.sign_change_count == base.turan.sign_change_count
    for mine, ref in ((small.turan_final, base.turan_final),
                      (small.turan.min_value, base.turan.min_value)):
        assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref)), (mine, ref)

def _scan_outputs(tmp_path, name, limit, **kwargs):
    """A scan's result, checkpoint bytes and trace bytes, the trace of
    every n."""
    ckpt, trace = tmp_path / f"{name}.ckpt", tmp_path / f"{name}.csv"
    result = run_scan(limit, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=1, **kwargs)
    return result, ckpt.read_bytes(), trace.read_bytes()


def _block_anchored_t(limit, seg, block):
    """T(n) for n = 1..limit as the scan forms it: math.fsum of the terms
    before each fold block, then np.cumsum within it. Blocks of `block`
    terms start afresh at every segment of `seg`."""
    terms = lv.lambda_segment(1, limit + 1) / np.arange(1, limit + 1)
    t = np.empty(limit)
    for lo in range(0, limit, seg):
        for a in range(lo, min(lo + seg, limit), block):
            b = min(a + block, lo + seg, limit)
            vals = terms[a:b].copy()
            vals[0] += math.fsum(terms[:a])
            t[a:b] = np.cumsum(vals)
    return t


@pytest.mark.parametrize("block", [64, 97])
def test_fold_blocks_leave_the_scan_alone(tmp_path, segment_length, block):
    """Folding each segment in blocks of 64 or 97 terms returns, saves and
    traces the integers, T's exact sum and turan_final that folding it
    whole (one block of _BLOCK) does. A block is the unit of T's rounding:
    each T value of the trace, and T's minimum, is math.fsum of the terms
    before its block plus np.cumsum within it."""
    limit = 20000
    segment_length(5000)
    whole = _scan_outputs(tmp_path, "whole", limit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "_BLOCK", block)
        blocks = _scan_outputs(tmp_path, "blocks", limit)

    def rows(trace):
        return [line.split(",") for line in trace.decode().splitlines()[1:]]

    for (result, ckpt, trace), size in ((whole, 5000), (blocks, block)):
        t = _block_anchored_t(limit, 5000, size)
        # of T's report, only the minimum's bits can depend on the blocks
        assert result.turan == lv.SignScanReport(limit, None, t.min(), np.argmin(t) + 1, 0)
        assert ckpt.decode() == re.sub(r"turan_min=\S+", f"turan_min={t.min().hex()}",
                                       whole[1].decode())
        assert (result.polya, result.polya_final) == (whole[0].polya, whole[0].polya_final)
        assert result.turan_final.hex() == whole[0].turan_final.hex()
        assert [row[:3] for row in rows(trace)] == [row[:3] for row in rows(whole[2])]
        assert [row[3] for row in rows(trace)] == [repr(v) for v in t.tolist()]


_CHECKPOINT_3_SEGMENTS = """zetalab-scan-checkpoint v2
limit=3145745
segment_size=1048576
segments_done=4
next_n=3145746
p_sum=-1375
t_total=0x1.6d426904c0862p-12
t_comp=0x125p-74
polya_min=-0x1.c2c0000000000p+10
polya_argmin=2110931
polya_first_violation=none
polya_sign_changes=0
polya_last_sign=-1
turan_min=0x1.ca72987659ac3p-15
turan_argmin=925985
turan_first_violation=none
turan_sign_changes=0
turan_last_sign=1
"""


def test_checkpoint_past_three_segments_is_pinned(tmp_path):
    """The checkpoint of a scan just past three 2^20-term segments, as
    a whole-segment fold wrote it, bit for bit."""
    path = tmp_path / "scan.ckpt"
    run_scan(3 * 2**20 + 17, checkpoint_path=str(path))
    assert path.read_text() == _CHECKPOINT_3_SEGMENTS


@pytest.mark.parametrize("limit", [2, 20000, 3 * 2**20 + 17])
def test_turan_final_is_the_fsum_of_the_terms(limit):
    """turan_final is T(limit) correctly rounded: math.fsum of the float
    terms lambda(n)/n, however many segments and blocks they span."""
    terms = lv.lambda_segment(1, limit + 1) / np.arange(1, limit + 1)
    assert run_scan(limit).turan_final.hex() == math.fsum(terms).hex()


def test_a_v1_checkpoint_is_refused(tmp_path):
    """A v1 checkpoint holds T only to a float's rounding, so no scan
    resumes from it, and the file is left as it was."""
    path = tmp_path / "scan.ckpt"
    run_scan(5000, checkpoint_path=str(path))
    v1 = path.read_text().replace("zetalab-scan-checkpoint v2", "zetalab-scan-checkpoint v1")
    path.write_text(v1)
    with pytest.raises(DomainError, match="v1"):
        run_scan(5000, checkpoint_path=str(path))
    assert path.read_text() == v1


def test_scan_memory_stays_near_the_sieve(tmp_path, monkeypatch):
    """A scan from n = 1 over two 2^20-term segments and a part allocates
    at most 14 MiB at its peak: the sieve kernel's 12.5 MiB and 2^15-term
    temporaries, but no segment-length T terms and no full-length running
    P or T. No segment's exact T total falls back to math.fsum."""
    limit = 2 * 2**20 + 12345
    run_scan(limit, checkpoint_path=str(tmp_path / "warm.ckpt"))
    fsum_calls = []
    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: fsum_calls.append(1) or real_fsum(xs))
    tracemalloc.start()
    try:
        run_scan(limit, checkpoint_path=str(tmp_path / "scan.ckpt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20
    assert not fsum_calls


@st.composite
def _skip_scans(draw):
    """A scan limit up to 3e4, a segment length (often a multiple of 64),
    a fold block length and how many segments finish before a crash."""
    limit = draw(st.integers(min_value=2, max_value=30000))
    seg = draw(st.one_of(st.integers(min_value=64, max_value=8192),
                         st.integers(min_value=1, max_value=128).map(lambda k: 64 * k)))
    block = draw(st.sampled_from([64, 97, 128]))
    return limit, seg, block, draw(st.integers(min_value=0, max_value=-(-limit // seg)))


@settings(max_examples=25, deadline=None)
@example(scan=(30000, 4096, 64, 3))
@example(scan=(30000, 1000, 128, 0))
@example(scan=(25000, 2000, 97, 5))
@given(_skip_scans())
def test_unfolded_blocks_leave_the_scan_alone(scan):
    """A scan that folds only the blocks that could change a report
    returns and saves what folding every block does, resumed or not."""
    limit, seg, block, done = scan
    real_iter = lv.iter_lambda_segments

    def interrupting(start, stop):
        yield from itertools.islice(real_iter(start, stop), done)
        raise RuntimeError("injected crash")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "DEFAULT_SEGMENT", seg)
        mp.setattr(lv, "_BLOCK", block)
        mp.setattr(lv, "_SAVE_EVERY", 1)

        def scan(name):
            ckpt = os.path.join(tmp, name + ".ckpt")
            result = run_scan(limit, checkpoint_path=ckpt)
            with open(ckpt, "rb") as fh:
                return result, fh.read()

        skipping = scan("skipping")
        with pytest.MonkeyPatch.context() as crash:
            crash.setattr(lv, "iter_lambda_segments", interrupting)
            with pytest.raises(RuntimeError):
                scan("resumed")
        resumed = scan("resumed")
        mp.setattr(lv._SeriesState, "settled", lambda self, low, high, positive_violates: False)
        folded = scan("folded")
    assert skipping == folded
    assert resumed == folded


def test_most_blocks_past_a_million_are_not_folded(monkeypatch):
    """Of the 97 fold blocks of a scan just past three 2^20-term
    segments, few can change a report: P's fold runs on 25 and T's on 15,
    so a scan that quietly folds every block again fails here. T's
    running values are formed (one float cumsum) only on the blocks T
    folds, so a scan that forms them on every block fails too."""
    folds = {True: 0, False: 0}
    float_cumsums = 0
    real_fold = lv._SeriesState.fold_segment
    real_cumsum = np.cumsum

    def counting(self, first_n, vals, positive_violates):
        folds[positive_violates] += 1
        real_fold(self, first_n, vals, positive_violates)

    def counting_cumsum(a, *args, **kwargs):
        nonlocal float_cumsums
        float_cumsums += np.asarray(a).dtype.kind == "f"
        return real_cumsum(a, *args, **kwargs)

    monkeypatch.setattr(lv._SeriesState, "fold_segment", counting)
    monkeypatch.setattr(np, "cumsum", counting_cumsum)
    run_scan(3 * 2**20 + 17)
    assert 1 <= folds[True] <= 40
    assert 1 <= folds[False] <= 20
    assert float_cumsums == folds[False]


_NEAR_ZERO = st.floats(min_value=-1e-12, max_value=1e-12)
_NEAR_A_MILLIONTH = st.builds(
    lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1e-6 * (1 - 1e-3), max_value=1e-6 * (1 + 1e-3)))
_NEAR_ONE = st.floats(min_value=1 - 1e-6, max_value=1 + 1e-6)


@st.composite
def _p_bound_inputs(draw):
    """(block, values): a block length, the scan's 2^15 or one the fold
    tests patch in, and 1 to 3 blocks + 7 terms of lambda (random +-1
    int8) or of mu (random {0, +-1} floats)."""
    block = draw(st.sampled_from([64, 97, 128, 2**15]))
    n = draw(st.integers(min_value=1, max_value=3 * block + 7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        return block, rng.choice(np.array([-1, 1], dtype=np.int8), n)
    return block, rng.choice([-1.0, 0.0, 1.0], n)


@settings(max_examples=100, deadline=None)
@example(inputs=(97, np.ones(3 * 97 + 7, dtype=np.int8)))
@example(inputs=(2**15, -np.ones(2**15 + 1)))
@given(_p_bound_inputs())
def test_p_bounds_take_each_block_alone(inputs):
    """For each block of _BLOCK terms from b, _p_bounds's (low, high, end)
    holds every P(n) - P(b - 1) of the block, ends at its exact sum, and is
    the rule taken from that block alone: min(0, group ends) - 64 and
    max(0, group ends) + 64, over groups of 64 from the block's start. At
    97 terms, as the fold tests patch in, the groups restart with each
    block."""
    block, lam = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lv, "_BLOCK", block)
        bounds = lv._p_bounds(lam)
    assert [len(v) for v in bounds] == [-(-len(lam) // block)] * 3
    for a, low, high, end in zip(range(0, len(lam), block), *bounds):
        p = np.cumsum(lam[a:a + block].astype(np.int64))
        assert low <= p.min() and p.max() <= high
        assert end == p[-1]
        group_ends = np.append(p[63::64], p[-1])
        assert (low, high) == (min(0, group_ends.min()) - 64, max(0, group_ends.max()) + 64)


@settings(max_examples=200, deadline=None)
@example(m=1, n0=1, t_star=0.0, plus=1.0, seed=0, p_before=0)
@example(m=2**15, n0=2**53 - 2**15, t_star=0.0, plus=0.5, seed=1, p_before=-7)
@given(
    m=st.integers(min_value=1, max_value=2**15),
    n0=st.integers(min_value=1, max_value=2**53 - 2**15),
    t_star=st.one_of(_NEAR_ZERO, _NEAR_A_MILLIONTH, _NEAR_ONE),
    plus=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p_before=st.integers(min_value=-10**6, max_value=10**6),
)
def test_the_t_bounds_hold_every_running_t_of_a_block(m, n0, t_star, plus, seed, p_before):
    """Every float the scan folds for a block, np.cumsum of [t_star +
    lambda(n0)/n0, lambda(n0+1)/(n0+1), ...], lies within the bounds
    that _t_bounds takes from P's least and greatest values on the block,
    checked in exact arithmetic. Each lambda is +1 with chance plus."""
    lam = np.where(np.random.default_rng(seed).random(m) < plus, 1, -1).astype(np.int8)
    terms = np.divide(lam, np.arange(n0, n0 + m, dtype=np.int64))
    terms[0] += t_star
    values = np.cumsum(terms)
    steps = np.cumsum(lam, dtype=np.int64)
    low, high = lv._t_bounds(t_star, p_before, p_before + min(0, int(steps.min())),
                             p_before + max(0, int(steps.max())), n0, m)
    assert Fraction(low) <= Fraction(float(values.min()))
    assert Fraction(float(values.max())) <= Fraction(high)


def _set_line(key, value):
    """A damage that gives key the value in a checkpoint's text."""
    return lambda text: re.sub(f"(?m)^{key}=.*$", f"{key}={value}", text)


@pytest.mark.parametrize(
    "damage, key",
    [
        (lambda text: text[: text.index("next_n=")], "next_n"),
        (lambda text: text.replace("limit=5000", "limit=abc"), "limit"),
        (_set_line("t_total", "inf"), "t_total"),
        (_set_line("t_total", "nan"), "t_total"),
        (_set_line("turan_min", "nan"), "turan_min"),
        (_set_line("polya_min", "-inf"), "polya_min"),
        # T is no longer near t_total, or past every float
        (_set_line("t_comp", "0x1p-1"), "t_total"),
        (_set_line("t_comp", f"{1 << 1100:#x}p-0"), "t_total"),
    ],
    ids=["truncated", "garbled", "t_total=inf", "t_total=nan", "turan_min=nan",
         "polya_min=-inf", "t_comp=0x1p-1", "t_comp=2^1100"],
)
def test_damaged_checkpoint_names_the_key(tmp_path, segment_length, damage, key):
    path = tmp_path / "scan.ckpt"
    segment_length(512)
    run_scan(5000, checkpoint_path=str(path))
    path.write_text(damage(path.read_text()))
    with pytest.raises(DomainError, match=key):
        run_scan(5000, checkpoint_path=str(path))


@pytest.mark.parametrize("next_n", [1025, 99999])
def test_resume_refuses_a_next_n_that_does_not_follow(tmp_path, segment_length, next_n):
    path = tmp_path / "scan.ckpt"
    segment_length(512)
    run_scan(5000, checkpoint_path=str(path))
    path.write_text(path.read_text().replace("next_n=5001", f"next_n={next_n}"))
    with pytest.raises(DomainError, match=f"next_n={next_n}"):
        run_scan(5000, checkpoint_path=str(path))


def _stride_500_scan_crashed_after_3_saves(tmp_path, monkeypatch, segment_length):
    """Paths of the checkpoint and trace of a stride-500 scan to 10000 in
    1000-term segments, saved after each, that crashed after its third
    save; the segment length stays 1000."""
    ckpt, trace = tmp_path / "scan.ckpt", tmp_path / "trace.csv"
    real_iter = lv.iter_lambda_segments

    def interrupting(start, stop):
        yield from itertools.islice(real_iter(start, stop), 3)
        raise RuntimeError("injected crash")

    segment_length(1000)
    monkeypatch.setattr(lv, "_SAVE_EVERY", 1)
    monkeypatch.setattr(lv, "iter_lambda_segments", interrupting)
    with pytest.raises(RuntimeError):
        run_scan(10000, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=500)
    monkeypatch.undo()
    return ckpt, trace


def test_resume_refuses_a_trace_of_another_stride(tmp_path, monkeypatch, segment_length):
    ckpt, trace = _stride_500_scan_crashed_after_3_saves(tmp_path, monkeypatch, segment_length)
    written = trace.read_bytes()
    with pytest.raises(DomainError, match=re.escape("n = 1000, 2000, ... below 3001")):
        run_scan(10000, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=1000)
    assert trace.read_bytes() == written
    clean = tmp_path / "clean.csv"
    run_scan(10000, csv_path=str(clean), csv_stride=500)
    run_scan(10000, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=500)
    assert trace.read_bytes() == clean.read_bytes()


def test_resume_refuses_a_missing_trace(tmp_path, monkeypatch, segment_length):
    ckpt, trace = _stride_500_scan_crashed_after_3_saves(tmp_path, monkeypatch, segment_length)
    trace.unlink()
    with pytest.raises(DomainError, match="missing"):
        run_scan(10000, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=500)
    assert not trace.exists()


def test_trace_rows_reach_the_file_before_each_checkpoint(tmp_path, monkeypatch, segment_length):
    ckpt, trace = tmp_path / "scan.ckpt", tmp_path / "trace.csv"
    real_save, saved = ScanCheckpoint.save, []

    def checking_save(self, path):
        last_row = trace.read_text().splitlines()[-1]
        assert int(last_row.split(",")[0]) == (self.next_n - 1) // 7 * 7
        saved.append(self.next_n)
        real_save(self, path)

    monkeypatch.setattr(ScanCheckpoint, "save", checking_save)
    monkeypatch.setattr(lv, "_SAVE_EVERY", 1)
    segment_length(512)
    run_scan(5000, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=7)
    assert len(saved) == 10


def test_resume_leaves_a_foreign_trace_alone(tmp_path, segment_length):
    ckpt, trace = tmp_path / "scan.ckpt", tmp_path / "notes.csv"
    segment_length(512)
    run_scan(2000, checkpoint_path=str(ckpt))
    trace.write_text("n,lambda,P,T\nnot a row\n")
    with pytest.raises(DomainError, match="not a zetalab scan trace"):
        run_scan(2000, checkpoint_path=str(ckpt), csv_path=str(trace))
    assert trace.read_text() == "n,lambda,P,T\nnot a row\n"


# A run of values of both signs, of one sign with or without zeros, or of zeros.
_SIGN_RUN = st.sampled_from([(-2, 2), (0, 2), (1, 2), (-2, 0), (-2, -1), (0, 0)]).flatmap(
    lambda r: st.lists(st.integers(min_value=r[0], max_value=r[1]), min_size=1, max_size=20)
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SIGN_RUN, min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=120), max_size=5),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([np.int64, np.float64]),
    st.booleans(),
)
def test_series_fold_matches_a_direct_count(runs, cuts, first_n, dtype, positive_violates):
    """Folding split segments gives the whole array's sign changes, minimum and violation.

    The segments end at every run's end and at the drawn cuts, so many of
    them hold one sign or only zeros. A value violates when it is > 0
    (P's rule) or, for T's rule, when it is <= 0.
    """
    values = [v for run in runs for v in run]
    vals = np.array(values, dtype=dtype)
    ends = itertools.accumulate(len(run) for run in runs)
    bounds = [0, *sorted([*ends, *(min(c, len(values)) for c in cuts)])]
    state = lv._SeriesState()
    for a, b in zip(bounds, bounds[1:]):
        state.fold_segment(first_n + a, vals[a:b], positive_violates)
    signs = [v > 0 for v in values if v != 0]
    assert state.sign_changes == sum(x != y for x, y in zip(signs, signs[1:]))
    assert state.min_value == min(values)
    assert state.argmin == first_n + values.index(min(values))
    violating = [i for i, v in enumerate(values) if (v > 0 if positive_violates else v <= 0)]
    assert state.first_violation == (first_n + violating[0] if violating else None)


@settings(max_examples=150, deadline=None)
@example(below=0, first_violation=None, last_sign=-1, edge=1, width=2,
         positive_violates=True, floats=False, fracs=[0.0, 1.0])  # a tie with the minimum
@example(below=3, first_violation=None, last_sign=1, edge=1, width=0,
         positive_violates=True, floats=False, fracs=[0.5])  # P = 1 violates
@example(below=3, first_violation=None, last_sign=1, edge=0, width=2,
         positive_violates=False, floats=True, fracs=[0.0])  # T = 0 violates
@example(below=3, first_violation=7, last_sign=0, edge=2, width=2,
         positive_violates=True, floats=False, fracs=[0.3])  # a first sign
@given(
    st.integers(min_value=-2, max_value=4),
    st.sampled_from([None, 7]),
    st.sampled_from([-1, 1]),
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.booleans(),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
)
def test_a_settled_state_is_left_alone(below, first_violation, last_sign, edge, width,
                                       positive_violates, floats, fracs):
    """Whenever settled() holds for [low, high], folding any values in
    that range, in P's direction or T's, leaves the state as it is. The
    range starts edge from zero on last_sign's side, where settled() can
    hold (edge -1 and 0 reach across zero); the minimum so far lies
    below, at or above low, and each value sits at its drawn fraction of
    the range. A state without a sign yet (last_sign 0) is an example."""
    low = edge if last_sign > 0 else -edge - width
    high = low + width
    state = lv._SeriesState(float(low - below), 3, first_violation, 2, last_sign)
    assume(state.settled(low, high, positive_violates))
    values = low + np.array(fracs) * width
    if not floats:
        values = np.rint(values).astype(np.int64)
    before = dataclasses.replace(state)
    state.fold_segment(50, values, positive_violates)
    assert state == before


def test_scan_csv_rows(tmp_path):
    path = tmp_path / "trace.csv"
    run_scan(1000, csv_path=str(path), csv_stride=100)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,lambda,P,T"
    assert len(lines) == 11  # header + n in {100, 200, ..., 1000}
    n, lam, p, t = lines[1].split(",")
    assert int(n) == 100
    assert int(lam) == liouville(100)
    table = sieve_range(1, 101)
    assert int(p) == int(np.sum(table.values))
    t_exact = sum(Fraction((-1) ** _omega_oracle(k), k) for k in range(1, 101))
    assert float(t) == pytest.approx(float(t_exact), abs=1e-14)


def test_scan_refuses_a_limit_below_two(tmp_path):
    """P is scanned from x = 2, so a scan to 1 or less has no P to report."""
    for limit in (1, 0, -5):
        with pytest.raises(DomainError, match="P is scanned from x = 2"):
            run_scan(limit, checkpoint_path=str(tmp_path / "scan.ckpt"))
    assert not (tmp_path / "scan.ckpt").exists()
    assert run_scan(2).polya == lv.SignScanReport(2, None, 0.0, 2, 0)  # P(2) = 0


def test_iter_segments_argument_validation(segment_length):
    with pytest.raises(DomainError):
        list(iter_lambda_segments(0, 10))
    with pytest.raises(DomainError):
        list(iter_lambda_segments(10, 10))
    segment_length(lv.DEFAULT_MAX_SPAN)
    assert len(next(iter_lambda_segments(1, 10))[1]) == 9


def test_table_is_readonly():
    t = sieve_range(1, 100)
    with pytest.raises(ValueError):
        t.values[0] = 5


def test_mertens_value_at_million():
    # prefix sum of mobius, a classical reference point
    acc = 0
    for _, vals in iter_mobius_segments(1, 10**6 + 1):
        acc += int(vals.sum())
    assert acc == 212
