# The two Dirichlet polynomials F_x(1/2) and F_x(1) and the exact bridge
# between them. F_x(a) = sum_{2<=n<=x} lambda(n) n^(-a); the mean value
# theorem applied to a -> n^(-a) on [1/2, 1] produces, for each n, an
# exponent xi(n) with (1/2) log(n) n^(-xi(n)) = n^(-1/2) - n^(-1), making
#
#   F_x(1/2) - F_x(1) = L_x,  L_x = (1/2) sum_{2<=n<=x} lambda(n) log(n) n^(-xi(n))
#
# an identity at every finite x, not an approximation.

import numpy as np

from zetalab import f_x, l_x, xi_residual
from zetalab.xi import xi

for x in (10, 10**3, 10**6):
    fh = f_x(0.5, x)
    fo = f_x(1.0, x)
    lv = l_x(x)
    print(f"x = {x:>9}: F(1/2) = {fh:+.9f}  F(1) = {fo:+.9f}  "
          f"L = {lv:+.9f}  gap = {abs(fh - fo - lv):.2e}")

# F_x(1) tends to -1 (equivalent to the prime number theorem); F_x(1/2)
# drifts off like -0.342 log x, which is the whole difficulty of the
# conditional half of the identity chain.
print()
for x in (10**4, 10**5, 10**6):
    print(f"x = {x:>8}: F(1) + 1 = {f_x(1.0, x) + 1:+.6f}   "
          f"F(1/2) / log x = {f_x(0.5, x) / np.log(x):+.4f}")

# The exponent sequence itself: decreasing, trapped in (1/2, 1), with a
# closed form whose defining residual sits at rounding level.
print()
print("n, xi(n), defining residual:")
for n in (2, 10, 10**3, 10**6, 10**9):
    print(f"  {n:>10}  {xi(n):.15f}  {xi_residual(n):+.2e}")
print(f"xi(2) = {xi(2):.12f} is the largest value; "
      f"the sequence creeps toward 1/2 like loglog n / log n.")
