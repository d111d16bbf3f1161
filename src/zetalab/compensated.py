"""Compensated floating-point accumulation.

Long folds add millions of small terms into running totals. A plain
`+=` loses low-order bits once the running value dwarfs the terms, so
the Abel core's totals use Neumaier's variant of Kahan summation: the
rounding error of every add is recovered and banked in a side term.

A block of float64 terms can also be summed exactly and its sum rounded
once, correctly, as math.fsum rounds it. A block of at most 2^15 terms
whose magnitudes do not increase, as lambda(n)/n in the sign scan, is
summed exactly with plain float adds after an error-free split on a
fixed grid (Rump, Ogita and Oishi, "Accurate floating-point summation,
part I", SIAM J. Sci. Comput. 2008). Let e_max and e_min be the biased
exponents of its first and last terms, its largest and smallest, and
g = 2^(e_max - 1059) the grid. With sigma = 1.5 * 2^(e_max - 1007),
whose ulp is g, each term x splits exactly into hi = (x + sigma) - sigma,
a multiple of g of at most 2^(e_max - 1022), and lo = x - hi, a multiple
of 2^(e_min - 1075) of at most g/2. Every partial sum of the hi parts is
a multiple of g of at most 2^52 * g, and every partial sum of the lo
parts one of 2^(e_min - 1075) of at most 2^53 * 2^(e_min - 1075) when
e_max - e_min <= 23, so both float sums are exact, in any order. The
blocks' exact sums, Python ints counting units of 2^-1074 (1/UNITS, the
smallest subnormal), are added and rounded once by CPython's correctly
rounded int / int. A block longer than 2^15 terms, or one whose ends
lie further apart, or are zero, subnormal, inf, nan or 2^960 or more,
is refused.
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
# Exact sums are ints counting units of 2^-1074, the smallest subnormal:
# every sum of floats is whole in them, and UNITS of them make 1.
UNITS = 1 << 1074


def decreasing_block_sum(block: np.ndarray, buf: np.ndarray) -> int:
    """The exact sum of a 1-D float64 block of at most _BLOCK terms whose
    magnitudes do not increase, as an int counting units of 2^-1074,
    using buf, as long as block, for scratch. Its first and last terms
    hold its largest and smallest exponents, so the block is not
    scanned for them. ValueError when the block is longer than _BLOCK,
    or when they lie more than _MAX_SPREAD apart or either is a term the
    split does not cover."""
    bits = block.view(np.int64)  # sign, 11 exponent bits, 52 fraction bits
    e_max, e_min = int(bits[0]) >> 52 & 2047, int(bits[-1]) >> 52 & 2047
    if len(block) > _BLOCK or not 1 <= e_min <= e_max <= min(e_min + _MAX_SPREAD, _MAX_EXP):
        raise ValueError(f"a block from {float(block[0])!r} to {float(block[-1])!r} "
                         "is outside the exact split")
    sigma = math.ldexp(1.5, e_max - 1007)
    hi = np.add(block, sigma, out=buf)
    hi -= sigma
    hi_sum = float(hi.sum())
    lo = np.subtract(block, hi, out=buf)
    # Both sums are whole in units of 2^(e_min - 1075), the hi one at
    # most 2^91 of them.
    scale = 1075 - e_min
    units = int(math.ldexp(hi_sum, scale)) + int(math.ldexp(float(lo.sum()), scale))
    return units << (e_min - 1)


def round_units(total: int) -> float:
    """The float nearest total / UNITS, ties to even: math.fsum of the
    terms whose decreasing_block_sum values add up to total. CPython's
    int / int is correctly rounded, and raises OverflowError past the
    largest float, as math.fsum does."""
    return total / UNITS


class CompensatedSum:
    """Neumaier-compensated running sum.

    add() folds in one value and banks the rounding error exactly.
    add_array() folds in a whole segment, reduced with numpy's pairwise
    sum (fast, error ~ eps*log n).
    """

    __slots__ = ("_total", "_comp")

    def __init__(self):
        self._total = 0.0
        self._comp = 0.0

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

    # Raw parts: the value is their sum.
    @property
    def parts(self) -> tuple[float, float]:
        return self._total, self._comp

    def __repr__(self) -> str:
        return f"CompensatedSum({self.value!r})"


class ComplexCompensatedSum:
    """Two CompensatedSums, one per component."""

    __slots__ = ("re", "im")

    def __init__(self):
        self.re = CompensatedSum()
        self.im = CompensatedSum()

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
