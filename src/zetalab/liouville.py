"""Liouville function sieving and sign scans of its summatory functions.

lambda(n) = (-1)^Omega(n), with Omega counting prime factors with
multiplicity. It is completely multiplicative, lambda(1) = +1 and
lambda(p) = -1 at every prime. The two summatory functions scanned here
are

    P(x) = sum_{n<=x} lambda(n)        (Polya sum)
    T(x) = sum_{n<=x} lambda(n)/n      (Turan sum)

Bulk values come from a segmented sieve over [lo, hi): each segment
divides out every base-prime power (base primes run up to sqrt of the
segment end), counting divisions; whatever cofactor is left is either 1
or a single prime above the base limit. The per-n results are exact
integers, so segmentation and worker count never change the output.
"""

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .compensated import CompensatedSum
from .errors import CapacityError, DomainError

DEFAULT_SEGMENT = 1 << 20
# Largest span sieve_range() will hold in memory at once (int8 values).
DEFAULT_MAX_SPAN = 1 << 26
# n is treated as an unsigned 64-bit quantity throughout.
MAX_N = 1 << 63


def liouville(n: int) -> int:
    """Liouville lambda at a single integer, by trial division.

    Args:
        n: integer >= 1 (and below 2**63; larger values are rejected).

    Returns:
        +1 or -1.
    """
    n = int(n)
    if n < 1:
        raise DomainError("liouville(n) needs n >= 1")
    if n >= MAX_N:
        raise DomainError("n beyond supported 64-bit range")
    omega = 0
    m = n
    for p in (2, 3):
        while m % p == 0:
            m //= p
            omega += 1
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            while m % p == 0:
                m //= p
                omega += 1
        d += 6
    if m > 1:
        omega += 1
    return 1 if omega % 2 == 0 else -1


def _base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, as int64, by a plain boolean sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _factor_segment(lo: int, hi: int, base_primes: np.ndarray | None):
    """Divide every base-prime power out of [lo, hi) in one pass.

    Returns (lambda, squareful): lambda(n) as int8, and a mask of the n
    divisible by the square of a base prime. A cofactor left above the
    base limit is a single prime, never a square, so the mask is exact.
    """
    if lo < 1 or hi <= lo:
        raise DomainError("need 1 <= lo < hi")
    if hi > MAX_N:
        raise DomainError("hi beyond supported 64-bit range")
    span = hi - lo
    need = math.isqrt(hi - 1)
    if base_primes is None:
        base_primes = _base_primes(need)
    else:
        # Only primes <= sqrt(hi-1) matter for this segment.
        cut = int(np.searchsorted(base_primes, need, side="right"))
        base_primes = base_primes[:cut]

    omega = np.zeros(span, dtype=np.int8)
    squareful = np.zeros(span, dtype=bool)
    rem = np.arange(lo, hi, dtype=np.int64)
    for p in base_primes.tolist():
        pk = p
        while True:
            start = ((lo + pk - 1) // pk) * pk
            if start >= hi:
                break
            sl = slice(start - lo, span, pk)
            omega[sl] += 1
            rem[sl] //= p
            if pk == p * p:  # multiples of p^3, p^4, ... are already marked
                squareful[sl] = True
            if pk > (hi - 1) // p:
                break
            pk *= p
    omega += (rem > 1).astype(np.int8)
    return np.where(omega & 1, np.int8(-1), np.int8(1)), squareful


def lambda_segment(lo: int, hi: int, base_primes: np.ndarray | None = None) -> np.ndarray:
    """lambda(n) for n in [lo, hi) as an int8 array.

    base_primes must cover every prime <= sqrt(hi-1); when omitted they
    are sieved on the spot.
    """
    return _factor_segment(lo, hi, base_primes)[0]


def mobius_segment(lo: int, hi: int, base_primes: np.ndarray | None = None) -> np.ndarray:
    """Mobius mu(n) for n in [lo, hi) as an int8 array.

    On squarefree n, Omega(n) = omega(n), so mu(n) = lambda(n); every
    other n gets 0. base_primes as for lambda_segment.
    """
    lam, squareful = _factor_segment(lo, hi, base_primes)
    lam[squareful] = 0
    return lam


@dataclass(frozen=True)
class LiouvilleTable:
    """Dense lambda values over [lo, hi)."""

    lo: int
    hi: int
    values: np.ndarray  # int8, length hi - lo

    def value(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise DomainError(f"n={n} outside table range [{self.lo}, {self.hi})")
        return int(self.values[n - self.lo])

    def __len__(self) -> int:
        return self.hi - self.lo


def sieve_range(
    lo: int,
    hi: int,
    *,
    segment_size: int | None = None,
    threads: int | None = None,
    max_span: int = DEFAULT_MAX_SPAN,
) -> LiouvilleTable:
    """Sieve lambda over [lo, hi) into one dense table.

    Args:
        lo, hi: range bounds, 1 <= lo < hi <= 2**63.
        segment_size: work-unit size; the result is identical for any
            choice, it only affects memory traffic.
        threads: sieve workers (default 1); segments are merged in index
            order, so the output does not depend on this either.
        max_span: capacity guard; hi - lo above it raises CapacityError.

    Returns:
        LiouvilleTable with exact int8 values.
    """
    if lo < 1 or hi <= lo:
        raise DomainError("need 1 <= lo < hi")
    if hi > MAX_N:
        raise DomainError("hi beyond supported 64-bit range")
    if hi - lo > max_span:
        raise CapacityError(
            f"span {hi - lo} exceeds max_span={max_span}; sieve in segments instead"
        )
    out = np.empty(hi - lo, dtype=np.int8)
    for seg_lo, lam in iter_lambda_segments(
        lo, hi, segment_size=segment_size, threads=threads
    ):
        out[seg_lo - lo : seg_lo - lo + len(lam)] = lam
    out.flags.writeable = False
    return LiouvilleTable(lo, hi, out)


def _iter_segments(segment_fn, start, stop, segment_size, threads):
    if start < 1 or stop <= start:
        raise DomainError("need 1 <= start < stop")
    if stop > MAX_N:
        raise DomainError("stop beyond supported 64-bit range")
    seg = DEFAULT_SEGMENT if segment_size is None else int(segment_size)
    if seg < 1:
        raise DomainError("segment_size must be >= 1")
    workers = 1 if threads is None else int(threads)
    if workers < 1:
        raise DomainError("threads must be >= 1")

    bounds = [(lo, min(lo + seg, stop)) for lo in range(start, stop, seg)]
    base = _base_primes(math.isqrt(stop - 1))

    if workers == 1:
        for lo, hi in bounds:
            yield lo, segment_fn(lo, hi, base)
        return

    window = workers + 2
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = []
        it = iter(bounds)
        for lo, hi in it:
            pending.append((lo, pool.submit(segment_fn, lo, hi, base)))
            if len(pending) >= window:
                break
        while pending:
            lo, fut = pending.pop(0)
            yield lo, fut.result()
            nxt = next(it, None)
            if nxt is not None:
                pending.append((nxt[0], pool.submit(segment_fn, nxt[0], nxt[1], base)))


def iter_lambda_segments(
    start: int,
    stop: int,
    *,
    segment_size: int | None = None,
    threads: int | None = None,
):
    """Yield (lo, lambda values) segments covering [start, stop) in order.

    With threads > 1 a bounded window of segments is sieved ahead on a
    thread pool; consumption order stays ascending, so any fold over the
    stream is deterministic.
    """
    yield from _iter_segments(lambda_segment, start, stop, segment_size, threads)


def iter_mobius_segments(
    start: int,
    stop: int,
    *,
    segment_size: int | None = None,
    threads: int | None = None,
):
    """Mobius counterpart of iter_lambda_segments, same ordering contract."""
    yield from _iter_segments(mobius_segment, start, stop, segment_size, threads)


@dataclass(frozen=True)
class SignScanReport:
    """Outcome of scanning one summatory series on the integer lattice."""

    limit: int
    first_violation: int | None
    min_value: float
    argmin: int
    sign_change_count: int


@dataclass(frozen=True)
class ScanResult:
    """Polya and Turan reports from one streaming pass, plus end values."""

    polya: SignScanReport
    turan: SignScanReport
    polya_final: int
    turan_final: float


@dataclass
class _SeriesState:
    min_value: float
    argmin: int
    first_violation: int | None
    sign_changes: int
    last_sign: int

    def fold_segment(self, ns, vals, violated) -> None:
        if len(ns) == 0:
            return
        i = int(np.argmin(vals))
        v = float(vals[i])
        if v < self.min_value:
            self.min_value = v
            self.argmin = int(ns[i])
        if self.first_violation is None and violated.any():
            self.first_violation = int(ns[int(np.argmax(violated))])
        signs = np.sign(vals).astype(np.int8)
        nz = signs[signs != 0]
        if nz.size:
            chain = nz if self.last_sign == 0 else np.concatenate(([np.int8(self.last_sign)], nz))
            self.sign_changes += int(np.count_nonzero(np.diff(chain)))
            self.last_sign = int(nz[-1])


_CHECKPOINT_HEADER = "zetalab-scan-checkpoint v1"


@dataclass
class ScanCheckpoint:
    """Resumable state of a summatory scan, stored as flat text.

    Floats are serialized with float.hex() so a resumed scan continues
    from the exact binary values of the interrupted one.
    """

    limit: int
    segment_size: int
    segments_done: int
    next_n: int
    p_sum: int
    t_total: float
    t_comp: float
    polya: _SeriesState
    turan: _SeriesState

    def to_text(self) -> str:
        lines = [_CHECKPOINT_HEADER]
        lines.append(f"limit={self.limit}")
        lines.append(f"segment_size={self.segment_size}")
        lines.append(f"segments_done={self.segments_done}")
        lines.append(f"next_n={self.next_n}")
        lines.append(f"p_sum={self.p_sum}")
        lines.append(f"t_total={float(self.t_total).hex()}")
        lines.append(f"t_comp={float(self.t_comp).hex()}")
        for tag, st in (("polya", self.polya), ("turan", self.turan)):
            lines.append(f"{tag}_min={float(st.min_value).hex()}")
            lines.append(f"{tag}_argmin={st.argmin}")
            fv = "none" if st.first_violation is None else str(st.first_violation)
            lines.append(f"{tag}_first_violation={fv}")
            lines.append(f"{tag}_sign_changes={st.sign_changes}")
            lines.append(f"{tag}_last_sign={st.last_sign}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScanCheckpoint":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CHECKPOINT_HEADER:
            raise DomainError("not a zetalab scan checkpoint")
        kv = {}
        for ln in lines[1:]:
            key, _, val = ln.partition("=")
            kv[key] = val

        def series(tag: str) -> _SeriesState:
            fv = kv[f"{tag}_first_violation"]
            return _SeriesState(
                min_value=float.fromhex(kv[f"{tag}_min"]),
                argmin=int(kv[f"{tag}_argmin"]),
                first_violation=None if fv == "none" else int(fv),
                sign_changes=int(kv[f"{tag}_sign_changes"]),
                last_sign=int(kv[f"{tag}_last_sign"]),
            )

        return cls(
            limit=int(kv["limit"]),
            segment_size=int(kv["segment_size"]),
            segments_done=int(kv["segments_done"]),
            next_n=int(kv["next_n"]),
            p_sum=int(kv["p_sum"]),
            t_total=float.fromhex(kv["t_total"]),
            t_comp=float.fromhex(kv["t_comp"]),
            polya=series("polya"),
            turan=series("turan"),
        )

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_text())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ScanCheckpoint":
        with open(path) as fh:
            return cls.from_text(fh.read())


def run_scan(
    limit: int,
    *,
    segment_size: int | None = None,
    threads: int | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 1,
    csv_path: str | None = None,
    csv_stride: int = 1,
) -> ScanResult:
    """Stream lambda over [1, limit] tracking both P(x) and T(x).

    Violations are P(x) > 0 on x in [2, limit] and T(n) <= 0 on
    [1, limit]; min/argmin are tracked over those same ranges and sign
    changes are counted on the integer lattice (zeros skipped). The
    Turan sum is carried across segments with compensated summation and
    each segment is totalled exactly.

    When checkpoint_path is given, progress is saved there and an
    existing file resumes the scan; limit and segment_size must match.
    When csv_path is given, rows (n, lambda, P, T) are appended for
    every n divisible by csv_stride.
    """
    limit = int(limit)
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit >= MAX_N:
        raise DomainError("limit beyond supported 64-bit range")
    seg = DEFAULT_SEGMENT if segment_size is None else int(segment_size)
    if seg < 1:
        raise DomainError("segment_size must be >= 1")
    if csv_stride < 1:
        raise DomainError("csv stride must be >= 1")
    if checkpoint_every < 1:
        raise DomainError("checkpoint_every must be >= 1")

    start = 1
    p_sum = 0
    t_acc = CompensatedSum()
    polya = _SeriesState(math.inf, 0, None, 0, 0)
    turan = _SeriesState(math.inf, 0, None, 0, 0)
    segments_done = 0

    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = ScanCheckpoint.load(checkpoint_path)
        if ck.limit != limit or ck.segment_size != seg:
            raise DomainError(
                "checkpoint was written for different scan parameters "
                f"(limit={ck.limit}, segment_size={ck.segment_size})"
            )
        start = ck.next_n
        p_sum = ck.p_sum
        t_acc = CompensatedSum(ck.t_total, ck.t_comp)
        polya, turan = ck.polya, ck.turan
        segments_done = ck.segments_done

    csv_fh = None
    writer = None
    if csv_path is not None:
        fresh = start == 1 or not os.path.exists(csv_path)
        csv_fh = open(csv_path, "w" if start == 1 else "a", newline="")
        writer = csv.writer(csv_fh)
        if fresh:
            writer.writerow(["n", "lambda", "P", "T"])

    try:
        if start <= limit:
            for lo, lam in iter_lambda_segments(
                start, limit + 1, segment_size=seg, threads=threads
            ):
                ns = np.arange(lo, lo + len(lam), dtype=np.int64)
                p_vals = p_sum + np.cumsum(lam, dtype=np.int64)
                t_terms = lam.astype(np.float64) / ns
                t_vals = t_acc.value + np.cumsum(t_terms)

                k = int(lo == 1)  # P(x) is scanned from x = 2
                polya.fold_segment(ns[k:], p_vals[k:], p_vals[k:] > 0)
                turan.fold_segment(ns, t_vals, t_vals <= 0.0)

                p_sum = int(p_vals[-1])
                t_acc.add_array(t_terms, exact=True)
                segments_done += 1

                if writer is not None:
                    rows = ns % csv_stride == 0
                    if rows.any():
                        for n, l, p, t in zip(
                            ns[rows], lam[rows], p_vals[rows], t_vals[rows]
                        ):
                            writer.writerow([int(n), int(l), int(p), repr(float(t))])

                if checkpoint_path and segments_done % checkpoint_every == 0:
                    ScanCheckpoint(
                        limit,
                        seg,
                        segments_done,
                        int(ns[-1]) + 1,
                        p_sum,
                        *t_acc.parts,
                        polya=replace(polya),
                        turan=replace(turan),
                    ).save(checkpoint_path)
    finally:
        if csv_fh is not None:
            csv_fh.close()

    if checkpoint_path:
        ScanCheckpoint(
            limit, seg, segments_done, limit + 1, p_sum, *t_acc.parts,
            polya=replace(polya), turan=replace(turan),
        ).save(checkpoint_path)

    return ScanResult(
        polya=SignScanReport(
            limit, polya.first_violation, float(polya.min_value),
            polya.argmin, polya.sign_changes,
        ),
        turan=SignScanReport(
            limit, turan.first_violation, float(turan.min_value),
            turan.argmin, turan.sign_changes,
        ),
        polya_final=p_sum,
        turan_final=t_acc.value,
    )


def scan_polya(limit: int, **kwargs) -> SignScanReport:
    """Scan P(x) over [2, limit] for positivity violations.

    Returns the smallest x with P(x) > 0 if any, the minimum of P and
    where it is first attained, and the count of sign changes.
    """
    if limit < 2:
        raise DomainError("scan_polya needs limit >= 2")
    return run_scan(limit, **kwargs).polya


def scan_turan(limit: int, **kwargs) -> SignScanReport:
    """Scan T(n) over [1, limit] for nonpositive values."""
    if limit < 1:
        raise DomainError("scan_turan needs limit >= 1")
    return run_scan(limit, **kwargs).turan
