# walk the identity chain end to end at one unconditional point and one
# conditional point, then bracket the convergence abscissa empirically

from zetalab import (
    StepKind,
    estimate_sigma_c,
    verify_finite_linearity,
    verify_ratio_decomposition,
    verify_ratio_integral,
    verify_reciprocal_integral,
    verify_shifted_identity,
)

X = 10**5


def show(case):
    mark = "ok " if case.passed else "MISS"
    flags = f"  [{', '.join(case.flags)}]" if case.flags else ""
    print(f"  {mark} {case.name:<26} residual {case.residual:.3e} "
          f"tol {case.tolerance:.1e}{flags}")


# sigma > 1: every route is absolutely convergent and the residuals are
# pure truncation, shrinking like a power of X.
print(f"s = 2, X = {X}:")
show(verify_reciprocal_integral(2.0, X))
show(verify_ratio_integral(2.0, X))
show(verify_ratio_decomposition(2.0, X))
show(verify_shifted_identity(2.0, X))
show(verify_finite_linearity(2.0, X))

# 1/2 < sigma <= 1: the finite-X algebra still collapses exactly, but
# the integrals now converge only conditionally (if at all), and the
# truncation error at s = 3/4 decays like X^(-1/4) log X. The residuals
# below shrink with X, slowly; no affordable X makes them small.
print(f"\ns = 0.75, X = {X} (conditional strip):")
show(verify_ratio_decomposition(0.75, X))
show(verify_shifted_identity(0.75, X))
show(verify_finite_linearity(0.75, X))

# Where does the F_one integral stop converging? Classify each sigma on
# a grid by the decay of its truncation increments and report the
# bracket left between observed divergence and observed convergence.
print("\nempirical abscissa bracket for the F_one integral, shifted kernel:")
est = estimate_sigma_c(
    StepKind.F_ONE,
    [0.40, 0.45, 0.50, 0.55, 0.60],
    (10**3, 10**4, 10**5, 10**6),
)
for sigma in est.sigma_grid:
    print(f"  sigma = {sigma:.2f}: {est.classifications[sigma]}")
print(f"  bracket [{est.lower:g}, {est.upper:g}]"
      + (f"  notes: {'; '.join(est.flags)}" if est.flags else ""))
