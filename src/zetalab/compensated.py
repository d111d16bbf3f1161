"""Compensated floating-point accumulation.

Long scans fold millions of small terms into running totals. A plain
`+=` loses low-order bits once the running value dwarfs the terms, so
cross-segment carries here use Neumaier's variant of Kahan summation:
the rounding error of every add is recovered and banked in a side term.

A segment summed with exact=True is rounded once, correctly, as
math.fsum rounds it. For a float64 array that is done in integer numpy
arithmetic, after Neal's superaccumulators ("Fast exact summation using
small and large superaccumulators", 2015): every term is an integer
mantissa times a power of two, so shifting the mantissas onto the
smallest exponent and adding them in int64 limbs gives the exact sum
as one Python int. A block of 2^15 terms whose exponents lie more than
9 apart is cut into windows of 10 exponents, each shifted onto its own
smallest exponent. math.fsum still sums an array with a zero,
subnormal, inf or nan term or with a term of 2^960 or more, and any
input that is not a 1-D float64 array.
"""

import math

import numpy as np

# A float64 term is (-1)^s * M * 2^(E - 1075), M = 2^52 + fraction, for
# biased exponents 1 <= E <= 2046. Shifted onto the smallest E of its
# block by at most _MAX_SHIFT bits, M spans at most 62 bits: a signed
# high limb and a low limb of _LIMB bits each, whose sums over a block
# stay far inside int64. Blocks of _BLOCK terms stay in cache: a
# 2^20-term scan segment sums about 4x faster in blocks than in
# whole-segment passes (2-core Xeon, numpy 2.4).
_BLOCK = 1 << 15
_LIMB = 31
_MAX_SHIFT = 2 * _LIMB - 53
_FRACTION = (1 << 52) - 1
_HIDDEN = 1 << 52
# Below 2^960 no partial sum of an array that fits in memory comes near
# overflow, where math.fsum raises "intermediate overflow".
_MAX_EXP = 2046 - 64


def _limb_sum(bits: np.ndarray, exps: np.ndarray, e_min: int) -> int:
    """The exact sum of float64 terms, given as their int64 bits and
    biased exponents (overwritten), in units of 2^(e_min - 1075). Every
    exponent lies within _MAX_SHIFT above e_min."""
    exps -= e_min
    m = bits & _FRACTION
    m |= _HIDDEN
    m <<= exps
    sign = bits >> 63  # 0 or -1, and (m ^ -1) - (-1) = -m
    m ^= sign
    m -= sign
    hi = np.right_shift(m, _LIMB, out=sign)
    m &= (1 << _LIMB) - 1
    return (int(hi.sum()) << _LIMB) + int(m.sum())


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum of a 1-D float64 array, bit for bit, in integer numpy.

    Each block's exact sum is one Python int in units of its smallest
    exponent, or one per window of _MAX_SHIFT + 1 exponents that holds
    terms when the block's exponents are further apart (the first 2^15
    terms of 1/n, for one); the sums are joined exactly and rounded
    once. math.fsum is kept for what the limbs do not cover: a zero or
    subnormal term (no hidden bit), an inf or nan term (fsum's result,
    or its ValueError on inf + -inf), and a term of 2^960 or more
    (fsum's OverflowError).
    """
    bits = values.view(np.int64)
    sums = []
    for i in range(0, len(bits), _BLOCK):
        b = bits[i:i + _BLOCK]
        exps = b >> 52
        exps &= 0x7FF
        e_min, e_max = int(exps.min()), int(exps.max())
        if e_min == 0 or e_max > _MAX_EXP:
            return math.fsum(values.tolist())
        # One window needs no masks: about 7 ms against 11 ms per
        # 2^20-term scan segment (2-core Xeon, numpy 2.4).
        if e_max - e_min <= _MAX_SHIFT:
            sums.append((_limb_sum(b, exps, e_min), e_min))
            continue
        for e in range(e_min, e_max + 1, _MAX_SHIFT + 1):
            window = (exps >= e) & (exps <= e + _MAX_SHIFT)
            if window.any():
                sums.append((_limb_sum(b[window], exps[window], e), e))
    e_min = min(e for _, e in sums)
    total = sum(t << (e - e_min) for t, e in sums)
    # float() rounds to nearest even and ldexp only rescales: a result
    # below 2^-1022 has |total| < 2^52, so it is exact there too. Terms
    # far apart in size make total too long for float(); it keeps 64
    # bits and a sticky bit for what it drops, which round alike.
    size = abs(total)
    drop = size.bit_length() - 64
    if drop > 0:
        kept = (size >> drop) | bool(size & ((1 << drop) - 1))
        total, e_min = (kept if total > 0 else -kept), e_min + drop
    return math.ldexp(float(total), e_min - 1075)


class CompensatedSum:
    """Neumaier-compensated running sum.

    add() folds in one value and banks the rounding error exactly.
    add_array() folds in a whole segment: by default the segment is
    reduced with numpy's pairwise sum (fast, error ~ eps*log n); with
    exact=True its exact sum is rounded once, the float math.fsum gives
    (a 1-D float64 array through _exact_sum, anything else by fsum).
    """

    __slots__ = ("_total", "_comp")

    def __init__(self, value: float = 0.0, comp: float = 0.0):
        self._total = float(value)
        self._comp = float(comp)

    def add(self, term: float) -> None:
        term = float(term)
        t = self._total + term
        if math.isfinite(t):  # past an inf total the error term is inf - inf = nan
            if abs(self._total) >= abs(term):
                self._comp += (self._total - t) + term
            else:
                self._comp += (term - t) + self._total
        self._total = t

    def add_array(self, values, exact: bool = False) -> None:
        if len(values) == 0:
            return
        if exact:
            if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
                self.add(_exact_sum(values))
            else:
                self.add(math.fsum(values.tolist() if isinstance(values, np.ndarray) else values))
        else:
            self.add(float(np.sum(values, dtype=np.float64)))

    @property
    def value(self) -> float:
        return self._total + self._comp

    # Raw parts, used by checkpoint files so a resumed scan reproduces
    # the uninterrupted run bit for bit.
    @property
    def parts(self) -> tuple[float, float]:
        return self._total, self._comp

    def __repr__(self) -> str:
        return f"CompensatedSum({self.value!r})"


class ComplexCompensatedSum:
    """Two CompensatedSums, one per component."""

    __slots__ = ("re", "im")

    def __init__(self, value: complex = 0.0):
        value = complex(value)
        self.re = CompensatedSum(value.real)
        self.im = CompensatedSum(value.imag)

    def add(self, term: complex) -> None:
        term = complex(term)
        self.re.add(term.real)
        self.im.add(term.imag)

    def add_array(self, values, exact: bool = False) -> None:
        arr = np.asarray(values)
        if arr.size == 0:
            return
        if np.iscomplexobj(arr):
            self.re.add_array(arr.real, exact=exact)
            self.im.add_array(arr.imag, exact=exact)
        else:
            self.re.add_array(arr, exact=exact)

    @property
    def value(self) -> complex:
        return complex(self.re.value, self.im.value)
