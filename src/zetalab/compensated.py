"""Compensated floating-point accumulation.

Long scans fold millions of small terms into running totals. A plain
`+=` loses low-order bits once the running value dwarfs the terms, so
cross-segment carries here use Neumaier's variant of Kahan summation:
the rounding error of every add is recovered and banked in a side term.

A block of float64 terms can also be summed exactly and its sum rounded
once, correctly, as math.fsum rounds it. A block of at most 2^15 terms
is summed exactly with plain float adds after an error-free split on a
fixed grid (Rump, Ogita and Oishi, "Accurate floating-point summation,
part I", SIAM J. Sci. Comput. 2008). Let e_max and e_min be the largest
and smallest biased exponents of a block's terms, and g = 2^(e_max - 1059)
the grid. With sigma = 1.5 * 2^(e_max - 1007), whose ulp is g, each
term x splits exactly into hi = (x + sigma) - sigma, a multiple of g of
at most 2^(e_max - 1022), and lo = x - hi, a multiple of 2^(e_min - 1075)
of at most g/2. Every partial sum of the hi parts is a multiple of g
of at most 2^52 * g, and every partial sum of the lo parts one of
2^(e_min - 1075) of at most 2^53 * 2^(e_min - 1075) when
e_max - e_min <= 23, so both float sums are exact, in any order. A
block whose exponents lie further apart is cut into windows of 24
exponents, each split on its own grid. The blocks' exact sums, Python
ints in units of their smallest exponent, are joined and rounded once.
A block with a zero, subnormal, inf or nan term or with a term of 2^960
or more is declined; its caller sums it otherwise.
"""

import math

import numpy as np

# A float64 term is (-1)^s * M * 2^(E - 1075), M < 2^53, for biased
# exponents 1 <= E <= 2046. A block of at most _BLOCK terms whose
# exponents lie within _MAX_SPREAD of each other is split and summed
# exactly on one grid. Blocks of _BLOCK terms stay in cache.
_BLOCK = 1 << 15
_MAX_SPREAD = 23
# Below 2^960 no partial sum of an array that fits in memory comes near
# overflow, where math.fsum raises "intermediate overflow".
_MAX_EXP = 2046 - 64


def _split_sum(x: np.ndarray, e_min: int, e_max: int, buf: np.ndarray) -> int:
    """The exact sum of float64 terms, in units of 2^(e_min - 1075),
    using buf, as long as x, for scratch. Every biased exponent lies in
    [e_min, e_max], and e_max - e_min <= _MAX_SPREAD."""
    sigma = math.ldexp(1.5, e_max - 1007)
    hi = np.add(x, sigma, out=buf)
    hi -= sigma
    hi_sum = float(hi.sum())
    lo = np.subtract(x, hi, out=buf)
    # Both sums are whole in the unit, the hi one at most 2^91 of them.
    scale = 1075 - e_min
    return int(math.ldexp(hi_sum, scale)) + int(math.ldexp(float(lo.sum()), scale))


def exact_block_sums(block: np.ndarray) -> list[tuple[int, int]] | None:
    """The exact sum of a 1-D float64 block of at most _BLOCK terms, as
    (int, e) pairs that each count units of 2^(e - 1075): one pair, or
    one per window of _MAX_SPREAD + 1 exponents that holds terms when
    the block's exponents are further apart (1 and 2^-24, for one; the
    first 2^15 terms of 1/n span only 16 exponents). None when a term
    is zero, subnormal, inf, nan or 2^960 or more, which the split does
    not cover."""
    mag = np.abs(block)
    bits = mag.view(np.int64)
    e_min, e_max = int(bits.min()) >> 52, int(bits.max()) >> 52
    if e_min < 1 or e_max > _MAX_EXP:
        return None
    if e_max - e_min <= _MAX_SPREAD:
        return [(_split_sum(block, e_min, e_max, mag), e_min)]
    exps = bits >> 52
    sums = []
    for e in range(e_min, e_max + 1, _MAX_SPREAD + 1):
        window = (exps >= e) & (exps <= e + _MAX_SPREAD)
        if window.any():
            x = block[window]
            sums.append((_split_sum(x, e, e + _MAX_SPREAD, mag[:len(x)]), e))
    return sums


def _decreasing_block_sums(block: np.ndarray, buf: np.ndarray) -> list[tuple[int, int]] | None:
    """exact_block_sums of a block whose magnitudes do not increase, as
    the scan's lambda(n)/n, using buf, as long as block, for scratch.
    Its first and last terms hold its largest and smallest exponents, so
    the block is not scanned for them; a spread of more than _MAX_SPREAD,
    or a term the split does not cover, goes to exact_block_sums."""
    e_max, e_min = (int(e) for e in np.abs(block[[0, -1]]).view(np.int64) >> 52)
    if e_min < 1 or e_max > _MAX_EXP or e_max - e_min > _MAX_SPREAD:
        return exact_block_sums(block)
    return [(_split_sum(block, e_min, e_max, buf), e_min)]


def round_exact_sums(sums: list[tuple[int, int]]) -> float:
    """The float nearest the exact sum of (int, e) pairs, each counting
    units of 2^(e - 1075), ties to even: math.fsum of the terms."""
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
    add_array() folds in a whole segment, reduced with numpy's pairwise
    sum (fast, error ~ eps*log n).
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

    def add_array(self, values) -> None:
        if len(values) == 0:
            return
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

    def add_array(self, values) -> None:
        arr = np.asarray(values)
        if arr.size == 0:
            return
        if np.iscomplexobj(arr):
            self.re.add_array(arr.real)
            self.im.add_array(arr.imag)
        else:
            self.re.add_array(arr)

    @property
    def value(self) -> complex:
        return complex(self.re.value, self.im.value)
