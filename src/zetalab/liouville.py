"""Liouville function sieving and sign scans of its summatory functions.

lambda(n) = (-1)^Omega(n), with Omega counting prime factors with
multiplicity. It is completely multiplicative, lambda(1) = +1 and
lambda(p) = -1 at every prime. The two summatory functions scanned here
are

    P(x) = sum_{n<=x} lambda(n)        (Polya sum)
    T(x) = sum_{n<=x} lambda(n)/n      (Turan sum)

Bulk values come from a segmented sieve over [lo, hi) that adds up a
rounded base-2 logarithm of each n's base-prime part in a uint16 array
(base primes run up to sqrt of the segment end). The powers of 2, 3, 5
and 7 come from one precomputed period of 5040, the wheel; a strided
pass adds every higher power and every other base prime. Each prime's
weight is odd, so the sum's parity is the parity of the count; and the
sum is close enough to the logarithm that comparing it with one integer
per binade of n tells whether n has one more prime factor, above the
base limit. The per-n results are exact integers. The stream runs in
segments of DEFAULT_SEGMENT, so a float fold over it, such as the Turan
sum, has one summation order. Past its first segment, a stream is
sieved in a forked child process while its consumer folds.
"""

import contextlib
import csv
import functools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .compensated import UNITS, decreasing_block_sum, round_units
from .errors import CapacityError, DomainError, ZetalabError

# The length of every sieve segment; read when a stream starts.
DEFAULT_SEGMENT = 1 << 20
# Largest sieve_range() span (int8 values) and _base_primes() limit.
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


def _check_range(lo: int, hi: int) -> None:
    """Refuse a range [lo, hi) of n outside 1 <= lo < hi <= 2^63."""
    if not 1 <= lo < hi <= MAX_N:
        raise DomainError(f"need 1 <= lo < hi <= 2^63, got [{lo}, {hi})")


def _base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, as int64, by a plain boolean sieve."""
    if limit > DEFAULT_MAX_SPAN:
        raise CapacityError(f"base primes to {limit} exceed capacity {DEFAULT_MAX_SPAN}")
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


# The wheel: 5040 = 2^4 * 3^2 * 5 * 7. Whether 2^a, 3^b, 5 or 7 divides
# n (a <= 4, b <= 2) depends only on n mod 5040, so one period of
# weights and squares seeds each segment; the strided sieve starts each
# wheel prime at its first power outside the wheel.
_WHEEL = 5040
_WHEEL_NEXT = {2: 2**5, 3: 3**3, 5: 5**2, 7: 7**2}
# n's log weight is compared with its binade's threshold, and run_scan
# folds P and T, in blocks of this many terms, so that no full-length
# temporary sits next to the segment. At most 2^15, the size of a block
# that compensated.decreasing_block_sum sums exactly.
_BLOCK = 1 << 15
# run_scan bounds P over a block from the ends of its groups of this
# many terms: every P(n) lies within _GROUP of one.
_GROUP = 64
# The sieve's log scale S: a prime p weighs the odd integer nearest
# S*log2(p). _factor_segment states the bounds it must meet.
_LOG_SCALE = 64
# run_scan saves its checkpoint after every this many segments and after
# the last. A save after every segment would add about 4 % to a long scan.
_SAVE_EVERY = 16


def _log_weights(primes: np.ndarray) -> np.ndarray:
    """The odd integer nearest _LOG_SCALE*log2(p), 2*floor(S*log2(p)/2) + 1,
    for each prime p."""
    half = np.floor(np.log2(primes) * (_LOG_SCALE / 2))
    return (2 * half + 1).astype(np.int64)


def _wheel_pattern():
    """Per residue mod 5040, read-only: the sum of the log weights of the
    wheel's prime powers dividing it, as uint16, and whether 4 or 9
    divides it."""
    r = np.arange(_WHEEL, dtype=np.int64)
    weights = np.zeros(_WHEEL, dtype=np.uint16)
    for p, first_outside in _WHEEL_NEXT.items():
        w = int(_log_weights(np.array([p]))[0])
        pk = p
        while pk < first_outside:
            weights[r % pk == 0] += w
            pk *= p
    squareful = (r % 4 == 0) | (r % 9 == 0)
    weights.flags.writeable = squareful.flags.writeable = False
    return weights, squareful


_WHEEL_WEIGHTS, _WHEEL_SQUAREFUL = _wheel_pattern()


def _from_wheel(pattern: np.ndarray, lo: int, span: int) -> np.ndarray:
    """A writable copy of pattern read from residue lo % _WHEEL on, span long."""
    return np.resize(np.roll(pattern, -(lo % _WHEEL)), span)


def _factor_segment(lo: int, hi: int, base_primes: np.ndarray | None, *, mask: bool = True):
    """Sieve the base-prime part s of every n in [lo, hi) in one pass.

    Returns (lambda, squareful): lambda(n) as int8, and a mask of the n
    divisible by the square of a base prime, or None when mask is False
    and it is not built. base_primes holds all primes up to
    isqrt(hi - 1), or all primes up to a smaller bound; a cofactor
    c = n/s above that bound counts as one prime. When omitted they are
    sieved on the spot.

    Each prime p weighs w_p, the odd integer nearest S*log2(p), with
    S = _LOG_SCALE. Each n's uint16 accumulator starts from the wheel
    pattern, and the strided sieve adds w_p for every other base-prime
    power p^k dividing n. As every weight is odd, the accumulator's
    parity is that of Omega(s), and as each weight is within 1 of
    S*log2(p), it lies within Omega(s) of S*log2(s). On the n of one
    binade, 2^L <= n < 2^(L+1), c > 1 exactly when the accumulator is
    below (S - 1)*L. If c = 1 it is at least S*L - Omega(n), and
    Omega(n) <= L. If c > 1 then c >= 11, as the wheel primes are always
    sieved, so it is below S*(L + 1 - log2(11)) + L; that is at most
    (S - 1)*L while S*(log2(11) - 1) > 2*L, which for every L <= 62
    needs S >= 51. The accumulator is at most (S + 1)*log2(n) <
    (S + 1)*63, which stays below 2^16 while S <= 1039. So S = 64 serves
    every n < 2^63, with no per-segment scale. With the full base list
    the cofactor is one prime above sqrt(hi - 1), never a square, so the
    mask is exact.
    """
    _check_range(lo, hi)
    lo, hi = int(lo), int(hi)
    span = hi - lo
    need = math.isqrt(hi - 1)
    if base_primes is None:
        base_primes = _base_primes(need)
    else:
        # Only primes <= sqrt(hi-1) matter for this segment.
        cut = int(np.searchsorted(base_primes, need, side="right"))
        base_primes = base_primes[:cut]

    acc = _from_wheel(_WHEEL_WEIGHTS, lo, span)
    squareful = _from_wheel(_WHEEL_SQUAREFUL, lo, span) if mask else None
    for p, w in zip(base_primes.tolist(), _log_weights(base_primes).tolist()):
        pk = _WHEEL_NEXT.get(p, p)
        while True:
            start = ((lo + pk - 1) // pk) * pk
            if start >= hi:
                break
            v = acc[start - lo :: pk]
            v += w
            if mask and pk == p * p:  # multiples of p^3, p^4, ... are already marked
                squareful[start - lo :: pk] = True
            if pk > (hi - 1) // p:
                break
            pk *= p
    lam = np.empty(span, dtype=np.int8)
    # pieces of at most _BLOCK terms, each within one binade
    binades = (2**k - lo for k in range(lo.bit_length(), (hi - 1).bit_length()))
    edges = sorted({*range(0, span, _BLOCK), *binades, span})
    for a, b in zip(edges, edges[1:]):
        part = acc[a:b]
        odd = (part & 1) != (part < (_LOG_SCALE - 1) * ((lo + a).bit_length() - 1))
        np.subtract(1, 2 * odd.view(np.int8), out=lam[a:b])
    return lam, squareful


def lambda_segment(lo: int, hi: int, base_primes: np.ndarray | None = None) -> np.ndarray:
    """lambda(n) for n in [lo, hi) as an int8 array.

    base_primes: all primes up to isqrt(hi - 1), or all primes up to a
    smaller bound, above which a cofactor counts as one prime (see
    _factor_segment); when omitted they are sieved on the spot.
    """
    return _factor_segment(lo, hi, base_primes, mask=False)[0]


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


def sieve_range(lo: int, hi: int) -> LiouvilleTable:
    """Sieve lambda over [lo, hi), 1 <= lo < hi <= 2^63, into one dense
    LiouvilleTable of exact int8 values."""
    _check_range(lo, hi)
    if hi - lo > DEFAULT_MAX_SPAN:
        raise CapacityError(
            f"span {hi - lo} exceeds {DEFAULT_MAX_SPAN}; sieve in segments instead"
        )
    out = np.empty(hi - lo, dtype=np.int8)
    for seg_lo, lam in iter_lambda_segments(lo, hi):
        out[seg_lo - lo : seg_lo - lo + len(lam)] = lam
    out.flags.writeable = False
    return LiouvilleTable(lo, hi, out)


def _iter_segments(segment_fn, start, stop):
    """Yield (lo, segment_fn(lo, hi, base primes)) for the segments of
    [start, stop), each output of segment_fn one byte per n.

    The first segment is sieved here. On a longer range a forked child
    (_fork) sieves the rest and writes their bytes into one pipe (_pipe)
    while the caller folds; each is read straight into arrays the caller
    owns (_read_segment). The stream kills and reaps the child on every
    exit. Without os.fork every segment is sieved here.
    """
    _check_range(start, stop)
    seg = DEFAULT_SEGMENT
    base = _base_primes(math.isqrt(stop - 1))
    first = segment_fn(start, min(start + seg, stop), base)
    lows = range(start + seg, stop, seg)
    if not lows or not hasattr(os, "fork"):
        yield start, first
        del first  # the caller's now; held here, it would live to the end
        for lo in lows:
            yield lo, segment_fn(lo, min(lo + seg, stop), base)
        return
    single = not isinstance(first, tuple)
    dtypes = [out.dtype for out in ((first,) if single else first)]
    r, w = _pipe()
    pid = _fork(lambda: _sieve_ahead(segment_fn, base, lows, stop, w), (w,), (r,))
    pipe = open(r, "rb")
    try:
        yield start, first
        del first
        for lo in lows:
            hi = min(lo + seg, stop)
            got = _read_segment(pipe, hi - lo, dtypes)
            if got is None:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pid = None
                raise ZetalabError(f"the sieve process for [{lo}, {hi}) exited with status {status}")
            yield lo, got[0] if single else tuple(got)
    finally:
        pipe.close()
        _kill(pid)  # not awaited: a stream open at once may hold its pipe's read end too


def _sieve_ahead(segment_fn, base, lows, stop, w):
    """The work of _iter_segments' child: sieve the segments from lows[0]
    on and write their bytes into the pipe w."""
    for lo in lows:
        outs = segment_fn(lo, min(lo + lows.step, stop), base)
        for out in outs if isinstance(outs, tuple) else (outs,):
            _write_all(w, out)


def _pipe() -> tuple[int, int]:
    """os.pipe(), grown to one segment where Linux allows; where fcntl's
    size command is missing or refused the pipe keeps its default size,
    which carries the same bytes and lets the writer get less far ahead."""
    r, w = os.pipe()
    with contextlib.suppress(ImportError, AttributeError, OSError):
        import fcntl  # here, as every module that only the fork path needs

        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, DEFAULT_SEGMENT)
    return r, w


def _fork(work, child_fds, parent_fds) -> int:
    """Fork a child that runs work(), and return its pid. The parent
    closes child_fds, the child parent_fds; a failed fork closes both.
    The child leaves only through os._exit: with status 0 once work()
    returns or meets a closed pipe (the parent gone), else 1, with the
    traceback on fd 2 unless a KeyboardInterrupt, which the parent has
    too from the same terminal, stopped it."""
    try:
        pid = os.fork()
    except OSError:
        for fd in (*child_fds, *parent_fds):
            os.close(fd)
        raise
    if pid:
        for fd in child_fds:
            os.close(fd)
        return pid
    status = 1
    try:
        import gc

        gc.disable()  # no collection here may run a finalizer of the parent's, such as a stream's
        for fd in parent_fds:
            os.close(fd)
        work()
        status = 0
    except BrokenPipeError:
        status = 0
    except KeyboardInterrupt:
        pass
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _read_segment(pipe, m, dtypes):
    """A list of fresh arrays of m values, one of each dtype, read from
    the pipe in turn; None where the pipe ends first."""
    got = [np.empty(m, dt) for dt in dtypes]
    return got if sum(pipe.readinto(out.view(np.uint8)) for out in got) == len(got) * m else None


def _kill(pid) -> None:
    """Kill the child pid and reap it; nothing for None, a child reaped."""
    if pid is not None:
        import signal  # here, so that a one-segment run does not load it

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _write_all(w, data) -> None:
    """Write the bytes of data, an array or bytes, into the pipe w."""
    left = memoryview(data).cast("B")
    while len(left):  # a write may be partial
        left = left[os.write(w, left):]


def iter_lambda_segments(start: int, stop: int):
    """Yield (lo, lambda values) segments covering [start, stop) in order,
    each DEFAULT_SEGMENT long but the last."""
    yield from _iter_segments(lambda_segment, start, stop)


def iter_mobius_segments(start: int, stop: int):
    """Mobius counterpart of iter_lambda_segments, same segments."""
    yield from _iter_segments(mobius_segment, start, stop)


class SignScanReport(NamedTuple):
    """Outcome of scanning one summatory series on the integer lattice."""

    limit: int
    first_violation: int | None
    min_value: float
    argmin: int
    sign_change_count: int


class ScanResult(NamedTuple):
    """Polya and Turan reports from one streaming pass, plus end values."""

    polya: SignScanReport
    turan: SignScanReport
    polya_final: int
    turan_final: float


@dataclass
class _SeriesState:
    min_value: float = math.inf
    argmin: int = 0
    first_violation: int | None = None
    sign_changes: int = 0
    last_sign: int = 0

    def fold_segment(self, first_n: int, vals, positive_violates: bool) -> None:
        """Fold in the values at n = first_n, first_n + 1, ... A value
        violates when it is > 0 if positive_violates, else when it is <= 0.

        The minimum and maximum decide the rest: whether the segment
        holds a violation, and whether it holds both signs, the only
        case that needs the sign chain.
        """
        if len(vals) == 0:
            return
        i = int(np.argmin(vals))
        lo, hi = float(vals[i]), float(vals.max())
        if lo < self.min_value:
            self.min_value = lo
            self.argmin = first_n + i
        if self.first_violation is None and (hi > 0 if positive_violates else lo <= 0):
            violated = vals > 0 if positive_violates else vals <= 0
            self.first_violation = first_n + int(np.argmax(violated))
        if lo < 0 < hi:
            positive = (vals > 0)[vals != 0]  # the sign chain, zeros skipped
            if self.last_sign != 0:
                positive = np.concatenate(([self.last_sign > 0], positive))
            self.sign_changes += int(np.count_nonzero(positive[1:] != positive[:-1]))
            self.last_sign = 1 if positive[-1] else -1
        elif hi > 0 or lo < 0:  # one sign, zeros aside
            sign = 1 if hi > 0 else -1
            self.sign_changes += self.last_sign == -sign
            self.last_sign = sign

    def settled(self, low: float, high: float, positive_violates: bool) -> bool:
        """Whether folding any values in [low, high] leaves this state as
        it is: none is below min_value (a tie keeps the first argmin),
        none can be a first violation, and all have last_sign, strictly."""
        return (
            low >= self.min_value
            and (self.first_violation is not None or (high <= 0 if positive_violates else low > 0))
            and (low > 0 if self.last_sign > 0 else self.last_sign < 0 and high < 0)
        )

    def report(self, limit: int) -> SignScanReport:
        return SignScanReport(
            limit, self.first_violation, self.min_value, self.argmin, self.sign_changes
        )


def _units(x: float) -> int:
    """x exactly, in units of 1/UNITS; OverflowError at inf, ValueError at nan."""
    num, den = x.as_integer_ratio()
    return num * (UNITS // den)


def _units_to_hex(u: int) -> str:
    """u units of 1/UNITS as the reduced fraction [-]0x<hex>p-<k>: no
    trailing zero bits while k > 0, and 0 as 0x0p-0."""
    top = UNITS.bit_length() - 1
    shift = min((u & -u).bit_length() - 1, top) if u else top
    return f"{u >> shift:#x}p-{top - shift}"


def _units_from_hex(text: str) -> int:
    mant, _, exp = text.partition("p-")
    top, k = UNITS.bit_length() - 1, int(exp)
    if not 0 <= k <= top:  # a multiple of 1/UNITS
        raise ValueError(f"{text} is not a float's rounding error")
    return int(mant, 16) << (top - k)


def _min_from_hex(text: str) -> float:
    value = float.fromhex(text)
    if not value > -math.inf:  # +inf is a series' minimum before its first value
        raise ValueError(f"{text} is not a minimum")
    return value


_CHECKPOINT_HEADER = "zetalab-scan-checkpoint v2"
_INT = (str, int)
_HEX = (float.hex, float.fromhex)
_MIN = (float.hex, _min_from_hex)
_EXACT = (_units_to_hex, _units_from_hex)
_INT_OR_NONE = (lambda v: "none" if v is None else str(v), lambda t: None if t == "none" else int(t))
# The v2 format after its header: key=value lines in this order, each
# value read and written by its codec; "polya_X"/"turan_X" is a series' X.
# T is t_total + t_comp exactly: its correctly rounded value and the rest,
# held in units of 1/UNITS and written as a reduced fraction
# [-]0x<hex>p-<k> at any length, which float.fromhex reads rounded.
_CHECKPOINT_KEYS = (
    ("limit", _INT), ("segment_size", _INT), ("segments_done", _INT), ("next_n", _INT),
    ("p_sum", _INT), ("t_total", _HEX), ("t_comp", _EXACT),
    *((f"{tag}_{name}", codec) for tag in ("polya", "turan") for name, codec in (
        ("min", _MIN), ("argmin", _INT), ("first_violation", _INT_OR_NONE),
        ("sign_changes", _INT), ("last_sign", _INT))),
)


@dataclass
class ScanCheckpoint:
    """State of a summatory scan, resumable from its flat text form.

    A fresh record is the state before n = 1. Floats are serialized with
    float.hex(), and T exactly, so a resumed scan continues from the
    exact values of the interrupted one.
    """

    limit: int
    segment_size: int
    segments_done: int = 0
    next_n: int = 1
    p_sum: int = 0
    t_total: float = 0.0
    t_comp: int = 0  # in units of 1/UNITS
    polya: _SeriesState = field(default_factory=_SeriesState)
    turan: _SeriesState = field(default_factory=_SeriesState)

    def _slots(self):
        """(key, codec, owner, field name) for each line of the text form."""
        for key, codec in _CHECKPOINT_KEYS:
            tag, _, name = key.partition("_")
            if tag in ("polya", "turan"):
                yield key, codec, getattr(self, tag), "min_value" if name == "min" else name
            else:
                yield key, codec, self, key

    def to_text(self) -> str:
        lines = [f"{key}={enc(getattr(obj, name))}" for key, (enc, _), obj, name in self._slots()]
        return "\n".join([_CHECKPOINT_HEADER, *lines]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ScanCheckpoint":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CHECKPOINT_HEADER:
            raise DomainError(f"not a {_CHECKPOINT_HEADER} file; a v1 file does not hold T exactly")
        kv = dict(ln.partition("=")[::2] for ln in lines[1:])
        ck = cls(0, 0)
        for key, (_, dec), obj, name in ck._slots():
            try:
                setattr(obj, name, dec(kv[key]))
            except (KeyError, ValueError):
                raise DomainError(f"damaged scan checkpoint: no valid {key}") from None
        try:  # t_total is T = t_total + t_comp correctly rounded
            t_rounds = round_units(_units(ck.t_total) + ck.t_comp) == ck.t_total
        except (ValueError, OverflowError):  # t_total nan or inf, or T past every float
            t_rounds = False
        if not t_rounds:
            raise DomainError("damaged scan checkpoint: no valid t_total")
        if ck.next_n != min(ck.limit, ck.segments_done * ck.segment_size) + 1:
            raise DomainError(
                f"damaged scan checkpoint: next_n={ck.next_n} does not follow "
                f"{ck.segments_done} segments of {ck.segment_size}"
            )
        return ck

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_text())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ScanCheckpoint":
        with open(path) as fh:
            return cls.from_text(fh.read())


def _open_trace(path: str, next_n: int, stride: int):
    """Open a CSV trace for the rows from n = next_n on. A resumed trace
    must exist; it is first cut back to its header and its whole rows
    with n < next_n, which must be the rows n = stride, 2*stride, ...
    this scan wrote."""
    if next_n > 1:
        if not os.path.exists(path):
            raise DomainError(f"{path} is missing; a resumed scan needs the trace it began")
        with open(path, "rb+") as fh:
            end, rows = len(fh.readline()), 0
            for line in iter(fh.readline, b""):
                if not line.endswith(b"\n"):
                    break
                try:
                    n = int(line.split(b",", 1)[0])
                except ValueError:
                    raise DomainError(f"{path} is not a zetalab scan trace") from None
                if n >= next_n or n != (rows + 1) * stride:
                    break
                rows += 1
                end += len(line)
            if rows != (next_n - 1) // stride:
                raise DomainError(f"{path} does not hold this scan's rows n = {stride}, "
                                  f"{2 * stride}, ... below {next_n}")
            fh.truncate(end)
        return open(path, "a", newline="")
    fh = open(path, "w", newline="")
    csv.writer(fh).writerow(["n", "lambda", "P", "T"])
    return fh


# Cached: building the starts anew would add about a sixth to a
# one-block _p_bounds call, the Abel core's per sub-block.
@functools.lru_cache(maxsize=16)
def _group_starts(n: int, block: int, group: int) -> np.ndarray:
    """Read-only: the start of each group of `group` terms of n terms,
    the groups restarting at the start of each block of `block` terms."""
    starts = (np.arange(0, n, block)[:, None] + np.arange(0, block, group)).ravel()
    starts = starts[starts < n]
    starts.flags.writeable = False
    return starts


def _p_bounds(lam: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Lists (low, high, end), one entry for each _BLOCK-term block of lam
    (the last may be shorter): on a block from b, every P(n) - P(b - 1)
    lies in [low, high], and it is end at the block's last n. A block's
    groups of _GROUP terms start at its own start (the last may be
    shorter), and every P(n) - P(b - 1) lies within _GROUP of 0 or of its
    value at a group's end. _t_bounds bounds T over a block from the
    same bounds."""
    per_block = -(-_BLOCK // _GROUP)
    starts = _group_starts(len(lam), _BLOCK, _GROUP)
    # a group's sum is at most _GROUP < 128 in size, so int8 holds it; a
    # short last block's row ends in groups of sum 0
    sums = np.zeros((-(-len(lam) // _BLOCK), per_block), dtype=np.int8)
    np.add.reduceat(lam, starts, dtype=np.int8, out=sums.reshape(-1)[:len(starts)])
    # each row: 0, then P - P(b - 1) at each group's end
    ends = np.zeros((len(sums), per_block + 1), dtype=np.int64)
    np.add.accumulate(sums, axis=1, dtype=np.int64, out=ends[:, 1:])
    low, high = np.minimum.reduce(ends, axis=1).tolist(), np.maximum.reduce(ends, axis=1).tolist()
    return [v - _GROUP for v in low], [v + _GROUP for v in high], ends[:, -1].tolist()


def _t_bounds(t_star: float, p_before: int, p_low: int, p_high: int,
              n0: int, m: int) -> tuple[float, float]:
    """Bounds on the running T that np.cumsum forms over a block of m
    terms fl(lambda(n)/n) from n0, starting from the float t_star, where
    P is p_before just before the block and lies in [p_low, p_high] on it.

    By Abel summation each T(n) - T(n0 - 1) is at most D/n0 in size,
    with D the largest |P(k) - p_before|. Rounding the terms adds at
    most m*u/n0, and the cumsum at most m*u*(|t_star| + (D + m)/n0)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2), with u = 2^-53. Both rounding terms take 2u: the
    margin covers evaluating the bound in floats, and n past 2^53,
    which itself rounds.
    """
    d = max(p_high - p_before, p_before - p_low)
    u = 2.0**-53
    w = d / n0 + 2 * m * u / n0 + 2 * m * u * (abs(t_star) + (d + m) / n0)
    return t_star - w, t_star + w


def run_scan(
    limit: int,
    *,
    checkpoint_path: str | None = None,
    csv_path: str | None = None,
    csv_stride: int = 1,
) -> ScanResult:
    """Stream lambda over [1, limit] tracking both P(x) and T(x).

    Violations are P(x) > 0 on x in [2, limit] and T(n) <= 0 on
    [1, limit]; min/argmin are tracked over those same ranges and sign
    changes are counted on the integer lattice (zeros skipped); limit
    must be at least 2. Each segment is folded in blocks of _BLOCK terms
    through three block-length buffers allocated once per scan: the
    running P, the running T, and the block's n, advanced in place from
    block to block. A block's terms lambda(n)/n are written
    into the T buffer and summed exactly there, while in cache, into
    T's exact running sum; where its running T values are needed, they
    are one np.cumsum of its terms from the correctly rounded T before
    it. turan_final is the correctly rounded T(limit), the float
    math.fsum gives.

    A block is folded into a report only when it could change it. P is
    bounded over every block of a segment at once, from the sums of
    its groups of _GROUP terms, which also advance it (_p_bounds, once
    per segment), and T from P's bounds by Abel summation, widened by the
    rounding of its terms and of their cumsum (_t_bounds). When the
    bounds leave a report settled (no new minimum, no violation, no sign
    change), that series' running values are never formed: T's are
    formed only on the blocks T folds. Traced blocks are always folded.
    The results are those of folding every block.

    A scan's peak memory is about the sieve's. Past the first segment,
    a child sieves ahead and writes each segment's lambda into one pipe,
    which holds one segment where Linux allows (_pipe) and the
    platform's default elsewhere (the same bytes, slower). The child's
    peak RSS, about 30 MB at limit 1e8, is mostly pages inherited from
    this process.

    When checkpoint_path is given, progress is saved there after every
    _SAVE_EVERY segments of DEFAULT_SEGMENT and after the last, and an
    existing file resumes the scan; its limit and segment length must
    match.
    When csv_path is given, rows (n, lambda, P, T) are written for
    every n divisible by csv_stride. A resumed scan returns, saves and
    traces exactly what the uninterrupted scan does.
    """
    limit = int(limit)
    if limit < 2:
        raise DomainError("limit must be >= 2: P is scanned from x = 2")
    if limit >= MAX_N:
        raise DomainError("limit beyond supported 64-bit range")
    if csv_stride < 1:
        raise DomainError("csv stride must be >= 1")

    ck = ScanCheckpoint(limit, DEFAULT_SEGMENT)
    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = ScanCheckpoint.load(checkpoint_path)
        if ck.limit != limit or ck.segment_size != DEFAULT_SEGMENT:
            raise DomainError("checkpoint was written for different scan parameters "
                              f"(limit={ck.limit}, segment_size={ck.segment_size})")

    trace = (contextlib.nullcontext() if csv_path is None
             else _open_trace(csv_path, ck.next_n, csv_stride))
    with trace as csv_fh:
        if ck.next_n <= limit:
            rows = None if csv_fh is None else csv.writer(csv_fh)
            traced = rows is not None
            # The running P and T of one fold block, and its n from n0 on.
            p_buf = np.empty(_BLOCK, dtype=np.int64)
            t_buf = np.empty(_BLOCK)
            n_buf = np.arange(ck.next_n, ck.next_n + _BLOCK, dtype=np.int64)
            # T, exactly, in the units of decreasing_block_sum
            t_sum = _units(ck.t_total) + ck.t_comp
            for lo, lam in iter_lambda_segments(ck.next_n, limit + 1):
                for a, low, high, p_step in zip(range(0, len(lam), _BLOCK), *_p_bounds(lam)):
                    n0, lam_b = lo + a, lam[a:a + _BLOCK]
                    m = len(lam_b)
                    t_vals = np.divide(lam_b, n_buf[:m], out=t_buf[:m])
                    n_buf += m
                    # |lambda(n)/n| is normal, at most 1 and does not grow
                    # with n; p_buf is scratch until P fills it
                    t_sum += decreasing_block_sum(t_vals, p_buf[:m].view(np.float64))
                    p_low, p_high = ck.p_sum + low, ck.p_sum + high
                    t_low, t_high = _t_bounds(ck.t_total, ck.p_sum, p_low, p_high, n0, m)
                    if traced or not ck.polya.settled(p_low, p_high, positive_violates=True):
                        p_vals = np.cumsum(lam_b, dtype=np.int64, out=p_buf[:m])
                        p_vals += ck.p_sum
                        k = int(n0 == 1)  # P(x) is scanned from x = 2
                        ck.polya.fold_segment(n0 + k, p_vals[k:], positive_violates=True)
                    ck.p_sum += p_step
                    if traced or not ck.turan.settled(t_low, t_high, positive_violates=False):
                        t_vals[0] += ck.t_total  # T before the block, correctly rounded
                        np.cumsum(t_vals, out=t_vals)
                        ck.turan.fold_segment(n0, t_vals, positive_violates=False)
                    ck.t_total = round_units(t_sum)
                    if traced:
                        i = -n0 % csv_stride
                        rows.writerows(zip(
                            range(n0 + i, n0 + m, csv_stride), lam_b[i::csv_stride].tolist(),
                            p_vals[i::csv_stride].tolist(), map(repr, t_vals[i::csv_stride].tolist()),
                        ))

                ck.t_comp = t_sum - _units(ck.t_total)
                ck.next_n = lo + len(lam)
                ck.segments_done += 1

                done = ck.next_n > limit
                if checkpoint_path and (done or ck.segments_done % _SAVE_EVERY == 0):
                    if csv_fh is not None:
                        csv_fh.flush()  # first the trace rows this checkpoint covers
                    ck.save(checkpoint_path)

    return ScanResult(ck.polya.report(limit), ck.turan.report(limit), ck.p_sum, ck.t_total)
