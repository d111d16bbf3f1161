"""Exercise the Euler-Maclaurin zeta engine against things known exactly."""

import math

from zetalab import ZetaParams, real_bounds_check, shifted_ratio, zeta_ratio, zeta_with_error
from zetalab.zeta import lambda_series, zeta

print("reference points:")
print(f"  zeta(2)  - pi^2/6  = {zeta(2.0).real - math.pi**2 / 6:+.2e}")
print(f"  zeta(4)  - pi^4/90 = {zeta(4.0).real - math.pi**4 / 90:+.2e}")
print(f"  zeta(1/2)          = {zeta(0.5).real:.12f}  (continued value, negative)")

value, err = zeta_with_error(0.5 + 14.134725j, ZetaParams(bernoulli_terms=10))
print(f"  near the first zero: |zeta(1/2 + 14.1347i)| = {abs(value):.3e} "
      f"(est err {err:.1e})")

# The sandwich 1/(s-1) < zeta(s) < s/(s-1) holds for every real s > 0,
# on both sides of the pole, and pins down the sign change of the
# continued function left of s = 1.
print()
print("sandwich bounds at a few real points:")
for sigma in (0.25, 0.75, 1.25, 3.0, 9.5):
    b = real_bounds_check(sigma)
    print(f"  s = {sigma:<5}: {b.lower:+.4f} < {b.value:+.4f} < {b.upper:+.4f}")

# zeta(2s)/zeta(s) is the Dirichlet series of lambda for sigma > 1; the
# truncated series closes in at the expected n^(1-sigma) rate.
print()
print("lambda series vs zeta(2s)/zeta(s):")
for s in (2.0, 1.5 + 2j):
    exact = zeta_ratio(s)
    for n in (10**2, 10**4):
        gap = abs(lambda_series(s, n) - exact)
        print(f"  s = {s}, {n:>6} terms: gap {gap:.2e}")

# The same ratio shifted by 1/2: the right-hand side of the identity
# chain. At s -> infinity both ratios tend to 1.
print()
print(f"shifted ratio at s = 2:   {shifted_ratio(2.0).real:.12f}")
print(f"shifted ratio at s = 20:  {shifted_ratio(20.0).real:.12f}")
