"""Test-only oracle: step integrals summed cell by cell.

Each integrand is G(n) u^(-p) on [n, n+1), so the integral over [1, X]
is sum_{n<X} G(n) * integral_n^(n+1) u^(-p) du, with G built straight
from a sieved table. This is the route the library took before it
switched to Abel summation. The cell weight (n^(1-p) - (n+1)^(1-p))/(p-1)
is evaluated as -n^(1-p) expm1((1-p) log1p(1/n))/(p-1), the same value
without the cancellation that costs the plain difference about
log10(n/|p-1|) digits, so the oracle holds its accuracy near p = 1.
"""

import math

import numpy as np

from zetalab import StepKind, sieve_range
from zetalab.liouville import mobius_segment


def prefix(kind: StepKind, x: int) -> np.ndarray:
    """Reference prefix values G_1..G_{x} built directly from a table."""
    ns = np.arange(1, x + 1, dtype=np.float64)
    if kind is StepKind.ONE:
        return np.ones_like(ns)
    if kind is StepKind.MU_ONE:
        coeff = mobius_segment(1, x + 1).astype(np.float64)
    else:
        coeff = sieve_range(1, x + 1).values.astype(np.float64)
    if kind is StepKind.F_HALF:
        terms = coeff * ns**-0.5
        terms[0] = 0.0
    elif kind is StepKind.F_ONE:
        terms = coeff / ns
        terms[0] = 0.0
    elif kind is StepKind.MU_ONE:
        terms = coeff / ns
        terms[0] = 0.0
    elif kind is StepKind.L_XI:
        terms = coeff * (ns**-0.5 - 1.0 / ns)
    elif kind is StepKind.T_SUM:
        terms = coeff / ns
    elif kind is StepKind.P_OVER_U:
        terms = coeff
    return np.cumsum(terms)


def cell_weights(p: complex, ns: np.ndarray) -> np.ndarray:
    """integral over [n, n+1) of u^(-p) du, for each n in ns."""
    if p == 1:
        return np.log1p(1.0 / ns)
    q = 1.0 - p
    return -np.power(ns, q) * np.expm1(q * np.log1p(1.0 / ns)) / (p - 1.0)


def per_cell_integral(kind: StepKind, s: complex, X: int, kernel: str) -> complex:
    """Integral of kind's G against its kernel ("plain" or "half_shifted") over [1, X]."""
    p = complex(s) + (0.5 if kernel == "half_shifted" else 0.0)
    if kind is StepKind.P_OVER_U:
        p += 1.0  # the integrand is P(n)/u * u^(-p)
    if p.imag == 0:
        p = p.real
    ns = np.arange(1, X, dtype=np.float64)
    terms = prefix(kind, X - 1) * cell_weights(p, ns)
    return complex(math.fsum(np.real(terms)), math.fsum(np.imag(terms)))
