"""The exact block kernel against math.fsum, bit for bit, on blocks whose
magnitudes do not increase, and CompensatedSum's running sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.compensated import (
    _BLOCK,
    _MAX_EXP,
    _MAX_SPREAD,
    ComplexCompensatedSum,
    CompensatedSum,
    decreasing_block_sum,
    round_units,
)

FSUM = math.fsum
TINY = 2.0**-1074  # the smallest subnormal


def block_sum(block):
    """The kernel's exact sum of one block, which must not grow in magnitude."""
    assert np.all(np.diff(np.abs(block)) <= 0), "a block's magnitudes must not increase"
    return decreasing_block_sum(block, np.empty(len(block)))


def kernel_sum(values):
    """The float the kernel rounds a 1-D float64 array's exact sum to,
    block by block."""
    return round_units(sum(block_sum(values[i:i + _BLOCK]) for i in range(0, len(values), _BLOCK)))


def assert_fsum(values, covered=True):
    """The kernel rounds values to math.fsum's float, or, when not
    covered, refuses them."""
    if covered:
        assert kernel_sum(values).hex() == FSUM(values.tolist()).hex()
    else:
        with pytest.raises(ValueError, match="outside the exact split"):
            kernel_sum(values)


def decreasing(values):
    """values ordered by decreasing magnitude, as the kernel takes them."""
    return values[np.argsort(-np.abs(values), kind="stable")]


def split_covers(values) -> bool:
    """Whether no term is zero, subnormal, inf, nan or 2^960 or more."""
    mag = np.abs(values)
    return bool(np.all((mag >= 2.0**-1022) & (mag < 2.0 ** (_MAX_EXP - 1022))))


def _normal_terms(rng, n, e0, spread):
    """n normal floats in [2^e0, 2^(e0 + spread + 1)) with random signs."""
    mant = rng.uniform(1.0, 2.0, n)
    return np.ldexp(mant, e0 + rng.integers(0, spread + 1, n)) * rng.choice([-1.0, 1.0], n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3 * _BLOCK + 7),
    st.integers(min_value=-1020, max_value=940),
    st.integers(min_value=0, max_value=_MAX_SPREAD),
)
def test_random_arrays_match_fsum(seed, n, e0, spread):
    # every spread the split takes; terms of 2^960 or more are refused
    values = decreasing(_normal_terms(np.random.default_rng(seed), n, e0, spread))
    assert_fsum(values, covered=split_covers(values))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=2 * _BLOCK),
    st.integers(min_value=-1000, max_value=900),
    st.integers(min_value=0, max_value=_MAX_SPREAD - 1),
)
def test_cancelling_arrays_match_fsum(seed, n, e0, spread):
    rng = np.random.default_rng(seed)
    x = _normal_terms(rng, n, e0, spread)
    values = decreasing(np.concatenate([x, -x * (1 + 2.0**-50)]))
    assert_fsum(values, covered=split_covers(values))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(1), st.integers(min_value=2**20, max_value=10**12)),
    st.integers(min_value=1, max_value=1 << 17),
)
def test_signed_reciprocal_segments_match_fsum(seed, lo, n):
    # the scan's Turan terms lambda(n)/n, here with random signs; from
    # lo = 1, as in the scan's first segment, a block spans 16 binades
    lam = np.random.default_rng(seed).choice([-1.0, 1.0], n)
    assert_fsum(lam / np.arange(lo, lo + n, dtype=np.int64))


@pytest.mark.parametrize(
    "values",
    [
        # ties round to even: 512 + 2^-44 is half an ulp above 512
        [256.0] + [1 + 2.0**-52] * 256,
        [256.0 + 2.0**-43] + [1 + 2.0**-52] * 256,
        # exact cancellation gives +0.0; normal terms may sum to a subnormal
        [3.0, -3.0, 1.5, -1.5],
        [2.0**-1022 * (1 + 2.0**-52), -(2.0**-1022)],
        [-(2.0**-1021) * (1 + 2.0**-52), 2.0**-1022, 2.0**-1022],
        # largest terms left to the split
        [2.0**959, 2.0**959, -(2.0**958)],
        # exponents the whole spread budget apart: one grid
        [1.0, 2.0**-_MAX_SPREAD],
        [1.0, -1.0, 2.0**-_MAX_SPREAD],
        (1.0 / np.arange(1, 2 * _BLOCK)).tolist(),
        # an exact sum too long for float(): within a block, where the
        # sticky bit breaks a tie (1 + 2^-23 + 2^-53 + 2^-75 rounds up),
        # and across blocks
        [1.0, 2.0**-23 * (1 + 2.0**-30 + 2.0**-52)],
        [2.0**-1000] * _BLOCK + [-(2.0**900)],
    ],
)
def test_edge_sums_take_the_integer_path(values):
    assert_fsum(np.array(values))


def exact_total(values):
    """The exact sum of a float64 array, as math.fsum's float and the
    floats it rounds off, each the fsum of what is left."""
    terms, total = values.tolist(), Fraction(0)
    while rest := FSUM(terms):
        total += Fraction(rest)
        terms.append(-rest)
    return total


def assert_block_fsum(block):
    """The kernel sums one block exactly and rounds it to math.fsum's float."""
    t = block_sum(block)
    assert Fraction(t, 2**1074) == exact_total(block)
    assert round_units(t).hex() == FSUM(block.tolist()).hex()


def assert_refused(block):
    with pytest.raises(ValueError, match="outside the exact split"):
        decreasing_block_sum(block, np.empty(len(block)))


@pytest.mark.parametrize("e_max", [1, 2, 1023, 1500, _MAX_EXP])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_full_block_at_the_hi_sum_bound(e_max, sign):
    # every term one ulp below 2^(e_max - 1022) rounds up onto it, so the
    # hi parts sum to 2^52 grid steps, the most the split allows
    top = math.ldexp(1.0, e_max - 1022)
    block = np.full(_BLOCK, sign * np.nextafter(top, 0.0))
    assert_block_fsum(block)


@pytest.mark.parametrize("e_max", [25, 26, 1023, _MAX_EXP])
@pytest.mark.parametrize("spread, windows", [(23, 1), (24, 2)])
@pytest.mark.parametrize("half_grid", [2.0**-14, 2.0**-13])
def test_a_spread_of_23_is_one_window_and_24_two(e_max, spread, windows, half_grid):
    # one term just below 2^(e_max - 1022) sets the grid g; every other
    # term has exponent e_max - spread and sits a few units short of a
    # half step of the grid at a spread of 23 (2^-14 of the term), or of
    # a grid twice as coarse, so the kernel on g sums lo parts near the
    # lo-sum bound; a spread of 24 would take a second window of
    # exponents, and the kernel refuses it
    units = np.random.default_rng(e_max).integers(1, 1 << 10, _BLOCK)
    mant = 1 + half_grid * 2.0 ** (spread - 23) - units * 2.0**-52
    block = np.ldexp(mant, e_max - spread - 1023)
    block[0] = np.nextafter(math.ldexp(1.0, e_max - 1022), 0.0)
    block = decreasing(block)
    check = assert_block_fsum if windows == 1 else assert_refused
    check(block)
    check(-block)
    block[1::2] *= -1
    check(block)


@pytest.mark.parametrize("spread, windows", [(0, 1), (5, 1), (23, 1), (24, 2), (60, 3)])
def test_cancelling_blocks(spread, windows):
    """Blocks of spread 23 or less sum exactly; wider ones, which would
    take more than one window of exponents, are refused."""
    rng = np.random.default_rng(spread)
    half = _normal_terms(rng, _BLOCK // 2, -40, spread)
    block = decreasing(np.concatenate([half, -half]))
    if windows > 1:
        assert_refused(block)
        return
    assert_block_fsum(block)
    assert round_units(block_sum(block)).hex() == "0x0.0p+0"
    # a last-bit change per pair leaves only the ulps to sum
    assert_block_fsum(decreasing(np.concatenate([half, -np.nextafter(half, np.inf)])))


@pytest.mark.parametrize("seed", range(3))
def test_signed_reciprocals_near_2_to_the_62(seed):
    # the scan's lambda(n)/n at the far end of the 64-bit range: all
    # terms in one or two binades, below 2^-61
    lo = 2**62 - _BLOCK // 2
    lam = np.random.default_rng(seed).choice([-1.0, 1.0], _BLOCK)
    block = lam / np.arange(lo, lo + _BLOCK, dtype=np.int64)
    assert_block_fsum(block)
    assert_block_fsum(np.abs(block))


@pytest.mark.parametrize("value", [1.0, -3.5, 2.0**-1022, 2.0**959, 1 / 3])
def test_single_elements(value):
    assert_fsum(np.array([value]))


def test_empty_arrays_and_lists_leave_the_sum_alone():
    for empty in (np.array([]), []):
        acc = CompensatedSum()
        acc.add_array(empty)
        assert [p.hex() for p in acc.parts] == ["0x0.0p+0", "0x0.0p+0"]


def test_lists_other_dtypes_and_strided_views():
    """add_array takes any sequence numpy sums in float64; the kernel
    takes a strided view of float64 terms."""
    values = _normal_terms(np.random.default_rng(5), 5000, -3, 4)
    for seq in (values.tolist(), values.astype(np.float32), np.arange(-50, 1000)):
        acc = CompensatedSum()
        acc.add_array(seq)
        assert acc.value == float(np.sum(seq, dtype=np.float64))
    assert_fsum(decreasing(values)[::3])


@pytest.mark.parametrize(
    "values",
    [
        # zero or subnormal terms
        [-2.5, 1.0, 0.0],
        [1.0, -0.0],
        [0.0, -0.0],
        [1.0, -1.0, TINY],
        [2.0**-1022, 2.0**-1023],
        # exponents more than the spread budget apart
        [1.0, 2.0 ** -(_MAX_SPREAD + 1)],
        [1.0, 0.75, 2.0 ** -(_MAX_SPREAD + 1)],
        [2.0**960, 2.0**-30],
        # terms of 2^960 or more
        [2.0**960],
        [1e308, -1e308],
        # inf and nan
        [math.inf, 1.0],
        [-math.inf, -math.inf, 2.0],
        [1.0, math.nan],
        [math.inf, math.nan],
        [-(2.0**900), 2.0**-60, -(2.0**-900)],
        # more terms than a block holds
        [1.0] * (_BLOCK + 1),
    ],
)
def test_fallback_cases_match_fsum(values):
    """The kernel refuses a block whose ends lie outside its split, or
    longer than _BLOCK, one a caller must sum otherwise, as math.fsum
    does; it never returns a wrong sum for one."""
    assert_refused(np.array(values))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(st.just(1), st.integers(min_value=2, max_value=2**62 - _BLOCK)),
    st.integers(min_value=1, max_value=_BLOCK),
)
def test_decreasing_blocks_sum_as_the_kernel_does(seed, lo, n):
    """The scan's lambda(n)/n blocks, whose magnitudes do not increase,
    take their exponent range from their ends and sum exactly."""
    lam = np.random.default_rng(seed).choice([-1.0, 1.0], n)
    assert_block_fsum(lam / np.arange(lo, lo + n, dtype=np.int64))


def test_complex_add_array_adds_each_component():
    rng = np.random.default_rng(7)
    values = _normal_terms(rng, 5000, -3, 4) + 1j * _normal_terms(rng, 5000, -3, 4)
    acc = ComplexCompensatedSum()
    acc.add_array(values)
    re, im = CompensatedSum(), CompensatedSum()
    re.add_array(values.real)
    im.add_array(values.imag)
    assert acc.value == complex(re.value, im.value)
    real = ComplexCompensatedSum()
    real.add_array(values.real)
    assert real.value == complex(re.value, 0.0)


def _neumaier(terms):
    """The parts add() banked before inf totals were special-cased."""
    total = comp = 0.0
    for term in terms:
        t = total + term
        comp += (total - t) + term if abs(total) >= abs(term) else (term - t) + total
        total = t
    return total, comp


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
def test_finite_totals_bank_the_same_bits(terms):
    acc = CompensatedSum()
    for term in terms:
        acc.add(term)
    total, comp = _neumaier(terms)
    if math.isfinite(total):
        assert [p.hex() for p in acc.parts] == [total.hex(), comp.hex()]


@pytest.mark.parametrize(
    "terms",
    [
        [math.inf],
        [1.0, -math.inf, 2.0],
        [1e308, 1e308],
        [1e308, 1e308, -1.0],
        [-1e308, -1e308, 1e308],
        [math.inf, -math.inf],
        [1.0, math.nan],
    ],
)
def test_non_finite_totals_match_plain_addition(terms):
    acc = CompensatedSum()
    plain = 0.0
    for term in terms:
        acc.add(term)
        plain += term
    assert acc.value == plain or math.isnan(acc.value) and math.isnan(plain)
