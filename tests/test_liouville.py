"""Sieve, scan, and checkpoint tests for the Liouville module."""

import itertools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import importlib

lv = importlib.import_module("zetalab.liouville")

from zetalab import (
    CapacityError,
    DomainError,
    LiouvilleTable,
    ScanCheckpoint,
    iter_lambda_segments,
    iter_mobius_segments,
    liouville,
    run_scan,
    scan_polya,
    scan_turan,
    sieve_range,
)


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


def test_mobius_segment_matches_sympy():
    vals = lv.mobius_segment(1, 5000)
    for n in range(1, 5000):
        assert vals[n - 1] == sympy.mobius(n), n


def test_mobius_far_window_matches_sympy():
    for lo in (10**9, _LAST_SQUARE - 256):
        vals = lv.mobius_segment(lo, lo + 512)
        for i in range(512):
            assert vals[i] == sympy.mobius(lo + i), lo + i


def test_sieve_range_deterministic_across_segmenting():
    ref = sieve_range(1, 30001, segment_size=30000)
    for seg in (1000, 7777, 10000):
        for threads in (1, 4):
            got = sieve_range(1, 30001, segment_size=seg, threads=threads)
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
        sieve_range(1, (1 << 26) + 3, max_span=1 << 26)


def test_streaming_matches_table():
    table = sieve_range(1, 12001)
    chunks = [vals for _, vals in iter_lambda_segments(1, 12001, segment_size=997)]
    assert np.array_equal(np.concatenate(chunks), table.values)


def test_mobius_streaming_matches_segment():
    whole = lv.mobius_segment(1, 9001)
    chunks = [vals for _, vals in iter_mobius_segments(1, 9001, segment_size=1234)]
    assert np.array_equal(np.concatenate(chunks), whole)


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
    rep = scan_turan(1000)
    assert rep.first_violation is None
    assert rep.min_value > 1e-6


def test_scan_polya_nonpositive_to_100k():
    rep = scan_polya(10**5)
    assert rep.first_violation is None
    assert rep.min_value < -100  # deep negative excursion, not just boundary


def test_scan_sign_change_counter():
    # T(x) stays positive up front, so no sign change; force one by
    # scanning P over a range known to start positive (x=1) then dip.
    result = run_scan(100)
    assert result.turan.sign_change_count == 0
    assert result.polya.sign_change_count == 0  # P restricted to x >= 2 stays <= 0


def test_checkpoint_text_roundtrip(tmp_path):
    path = tmp_path / "scan.ckpt"
    run_scan(5000, segment_size=512, checkpoint_path=str(path))
    ck = ScanCheckpoint.load(str(path))
    assert ck.limit == 5000
    assert ck.next_n == 5001
    text = ck.to_text()
    again = ScanCheckpoint.from_text(text)
    assert again == ck  # hex float fields survive bit-exactly


def test_checkpoint_parameter_mismatch(tmp_path):
    path = tmp_path / "scan.ckpt"
    run_scan(2000, segment_size=512, checkpoint_path=str(path))
    with pytest.raises(DomainError):
        run_scan(3000, segment_size=512, checkpoint_path=str(path))


@st.composite
def _kill_points(draw):
    """A scan limit, a segment size and how many segments finish before the crash."""
    limit = draw(st.integers(min_value=1, max_value=20000))
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

    def interrupting(start, stop, **kw):
        # done == the segment count crashes once every segment is folded in
        yield from itertools.islice(real_iter(start, stop, **kw), done)
        raise RuntimeError("injected crash")

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:

        def scan(name):
            ckpt, trace = (os.path.join(tmp, name + ext) for ext in (".ckpt", ".csv"))
            result = run_scan(limit, segment_size=seg, checkpoint_path=ckpt,
                              checkpoint_every=every, csv_path=trace, csv_stride=stride)
            with open(ckpt, "rb") as ck_fh, open(trace, "rb") as csv_fh:
                return result, ck_fh.read(), csv_fh.read()

        clean = scan("clean")
        mp.setattr(lv, "iter_lambda_segments", interrupting)
        with pytest.raises(RuntimeError):
            scan("resumed")
        mp.undo()
        assert scan("resumed") == clean


@pytest.mark.parametrize(
    "damage, key",
    [
        (lambda text: text[: text.index("next_n=")], "next_n"),
        (lambda text: text.replace("limit=5000", "limit=abc"), "limit"),
    ],
    ids=["truncated", "garbled"],
)
def test_damaged_checkpoint_names_the_key(tmp_path, damage, key):
    path = tmp_path / "scan.ckpt"
    run_scan(5000, segment_size=512, checkpoint_path=str(path))
    path.write_text(damage(path.read_text()))
    with pytest.raises(DomainError, match=key):
        run_scan(5000, segment_size=512, checkpoint_path=str(path))


def test_trace_rows_reach_the_file_before_each_checkpoint(tmp_path, monkeypatch):
    ckpt, trace = tmp_path / "scan.ckpt", tmp_path / "trace.csv"
    real_save, saved = ScanCheckpoint.save, []

    def checking_save(self, path):
        last_row = trace.read_text().splitlines()[-1]
        assert int(last_row.split(",")[0]) == (self.next_n - 1) // 7 * 7
        saved.append(self.next_n)
        real_save(self, path)

    monkeypatch.setattr(ScanCheckpoint, "save", checking_save)
    run_scan(5000, segment_size=512, checkpoint_path=str(ckpt), csv_path=str(trace), csv_stride=7)
    assert len(saved) == 10


def test_resume_leaves_a_foreign_trace_alone(tmp_path):
    ckpt, trace = tmp_path / "scan.ckpt", tmp_path / "notes.csv"
    run_scan(2000, segment_size=512, checkpoint_path=str(ckpt))
    trace.write_text("n,lambda,P,T\nnot a row\n")
    with pytest.raises(DomainError, match="not a zetalab scan trace"):
        run_scan(2000, segment_size=512, checkpoint_path=str(ckpt), csv_path=str(trace))
    assert trace.read_text() == "n,lambda,P,T\nnot a row\n"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=60),
    st.lists(st.integers(min_value=0, max_value=60), max_size=5),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([np.int64, np.float64]),
)
def test_series_fold_matches_a_direct_count(values, cuts, first_n, dtype):
    """Folding split segments gives the whole array's sign changes, minimum and violation."""
    vals = np.array(values, dtype=dtype)
    bounds = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    state = lv._SeriesState()
    for a, b in zip(bounds, bounds[1:]):
        state.fold_segment(first_n + a, vals[a:b], vals[a:b] > 0)
    signs = [v > 0 for v in values if v != 0]
    assert state.sign_changes == sum(x != y for x, y in zip(signs, signs[1:]))
    assert state.min_value == min(values)
    assert state.argmin == first_n + values.index(min(values))
    positive = [i for i, v in enumerate(values) if v > 0]
    assert state.first_violation == (first_n + positive[0] if positive else None)


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


def test_scan_rejects_checkpoint_every_below_one(tmp_path):
    for every in (0, -1):
        with pytest.raises(DomainError):
            run_scan(100, checkpoint_path=str(tmp_path / "scan.ckpt"), checkpoint_every=every)


def test_iter_segments_argument_validation():
    with pytest.raises(DomainError):
        list(iter_lambda_segments(0, 10))
    with pytest.raises(DomainError):
        list(iter_lambda_segments(10, 10))
    with pytest.raises(DomainError):
        list(iter_lambda_segments(1, 10, segment_size=0))
    with pytest.raises(DomainError):
        list(iter_lambda_segments(1, 10, threads=0))


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
