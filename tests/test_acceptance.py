"""Acceptance suite: one test per release criterion, timed where the
criterion carries a wall-clock budget.

Each test records a PASS/FAIL line through conftest.criterion, echoed in
the terminal summary after the run. Criterion 10 is split: the algebraic
clauses are load-bearing, while the conditional-strip residual band at
s = 0.75 is reported honestly (the truncation error there decays like
X^(-1/4) log X, so the stated band is out of reach for any X this suite
can afford; see the trend test for the part that is checkable).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import criterion
from zetalab import (
    StepKind,
    check_monotone_limit,
    estimate_sigma_c,
    f_x,
    l_x,
    real_bounds_check,
    run_scan,
    sieve_range,
    verify_finite_linearity,
    verify_ratio_integral,
    verify_reciprocal_integral,
    verify_shifted_identity,
)
from zetalab.xi import xi, xi_residual
from zetalab.zeta import zeta
from zetalab.verify import DEFAULT_S_POINTS


def _lambda_by_trial_division(n_max: int) -> np.ndarray:
    """Independent oracle: divide out each trial divisor in turn.

    Composite divisors never fire because their prime factors were
    already divided out; the leftover rem > 1 is one extra prime.
    """
    rem = np.arange(n_max + 1, dtype=np.int64)
    rem[0] = 1
    omega = np.zeros(n_max + 1, dtype=np.int64)
    d = 2
    while d * d <= n_max:
        while True:
            mask = rem % d == 0
            if not mask.any():
                break
            omega[mask] += 1
            rem[mask] //= d
        d += 1 if d == 2 else 2
    omega[rem > 1] += 1
    lam = np.where(omega % 2 == 0, 1, -1).astype(np.int8)
    lam[0] = 0
    return lam


def _bisect_xi(n: float, alpha: float = 0.5, beta: float = 1.0) -> float:
    def g(x):
        return n**-beta - n**-alpha + (beta - alpha) * math.log(n) * n**-x

    lo, hi = alpha, beta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c01_lambda_oracle_and_multiplicativity():
    with criterion("C01", "lambda sieve vs trial division to 1e5, multiplicative to 1e4") as info:
        t0 = time.perf_counter()
        n_max = 10**5
        table = sieve_range(1, n_max + 1)
        got = np.concatenate(([0], np.asarray(table.values)))
        want = _lambda_by_trial_division(n_max)
        assert np.array_equal(got, want)
        lam = got[: 10**4 + 1]
        for m in range(2, 101):
            ns = np.arange(2, 10**4 // m + 1)
            assert np.array_equal(lam[m * ns], lam[m] * lam[ns]), m
        elapsed = time.perf_counter() - t0
        info["note"] = f"{elapsed:.2f}s"
        assert elapsed < 5.0


def test_c02_turan_positive_to_1000():
    with criterion("C02", "T(n) > 0 with margin 1e-6 for n <= 1000") as info:
        t0 = time.perf_counter()
        rep = run_scan(1000).turan
        elapsed = time.perf_counter() - t0
        info["note"] = f"min={rep.min_value:.6f} at n={rep.argmin}, {elapsed:.3f}s"
        assert rep.first_violation is None
        assert rep.min_value > 1e-6
        assert elapsed < 1.0


def test_c03_polya_nonpositive_to_1e6():
    with criterion("C03", "P(x) <= 0 for 2 <= x <= 1e6") as info:
        t0 = time.perf_counter()
        rep = run_scan(10**6).polya
        elapsed = time.perf_counter() - t0
        info["note"] = f"min={rep.min_value:.0f} at x={rep.argmin}, {elapsed:.2f}s"
        assert rep.first_violation is None
        assert rep.min_value < 0
        assert elapsed < 10.0


def test_c04_harmonic_lambda_sum_approaches_minus_one():
    with criterion("C04", "F_x(1) near -1 at x = 1e6 and improving over 1e4") as info:
        r4 = abs(f_x(1.0, 10**4) + 1.0)
        r6 = abs(f_x(1.0, 10**6) + 1.0)
        info["note"] = f"|F+1| = {r4:.5f} at 1e4, {r6:.5f} at 1e6"
        assert r6 < 0.01
        assert r6 < r4


def test_c05_xi_sequence(rng):
    with criterion("C05", "xi identity residual, strict decrease, bisection match") as info:
        ns = np.unique(np.round(np.logspace(np.log10(2), 9, 500)).astype(np.int64))
        rel = np.max(np.abs(xi_residual(ns)) / ns.astype(np.float64) ** -0.5)
        assert rel < 1e-14
        rep = check_monotone_limit(10**6)
        assert rep.monotone and rep.first_increase is None
        worst = 0.0
        for n in rng.integers(2, 10**9, size=50):
            worst = max(worst, abs(xi(int(n)) - _bisect_xi(int(n))))
        info["note"] = f"max rel residual {rel:.2e}, bisection gap {worst:.2e}"
        assert worst < 1e-12


def test_c06_finite_decomposition_of_sums():
    with criterion("C06", "F_x(1/2) - F_x(1) = L_x to 1e-10 at x in {10, 1e3, 1e6}") as info:
        worst = 0.0
        for x in (10, 10**3, 10**6):
            gap = abs(f_x(0.5, x) - f_x(1.0, x) - l_x(x))
            worst = max(worst, gap)
        info["note"] = f"max gap {worst:.2e}"
        assert worst <= 1e-10


def test_c07_zeta_reference_values_and_sandwich():
    with criterion("C07", "zeta reference points, conjugate symmetry, sandwich bounds") as info:
        assert abs(zeta(2.0) - math.pi**2 / 6) < 1e-12
        assert abs(zeta(0.5) - (-1.460354508809586)) < 1e-9
        for s in (2 + 3j, 0.5 + 14j, 1.5 + 50j):
            assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-13
        grid = np.concatenate([np.linspace(0.001, 0.998, 300), np.linspace(1.002, 10.0, 700)])
        margin = math.inf
        for sigma in grid:
            b = real_bounds_check(float(sigma))
            assert b.passed, sigma
            margin = min(margin, b.value - b.lower, b.upper - b.value)
        info["note"] = f"{grid.size} grid points, slackest sandwich margin {margin:.2e}"


def test_c08_reciprocal_integral_converges():
    with criterion("C08", "Mobius reciprocal integral at s=2: residual < 1e-5, decreasing") as info:
        res = [verify_reciprocal_integral(2.0, X).residual for X in (10**3, 10**4, 10**5, 10**6)]
        info["note"] = "residuals " + ", ".join(f"{r:.2e}" for r in res)
        assert all(b < a for a, b in zip(res, res[1:]))
        assert res[-1] < 1e-5


def test_c09_ratio_integral():
    with criterion("C09", "ratio integral residual < 1e-4 at s=2 and s=1.5+2i, X=1e6") as info:
        r_real = verify_ratio_integral(2.0, 10**6).residual
        r_cplx = verify_ratio_integral(1.5 + 2j, 10**6).residual
        info["note"] = f"{r_real:.2e} at s=2, {r_cplx:.2e} at s=1.5+2i"
        assert r_real < 1e-4
        assert r_cplx < 1e-4


def test_c10a_shifted_identity_unconditional_point():
    with criterion("C10a", "shifted ratio identity residual < 1e-4 at s=2, X=1e6") as info:
        c = verify_shifted_identity(2.0, 10**6)
        info["note"] = f"residual {c.residual:.2e}"
        assert c.residual < 1e-4


def test_c10b_conditional_point_trend():
    with criterion("C10b-trend", "s=0.75 residual decreases over X in {1e4,1e5,1e6}, flagged empirical") as info:
        cases = [verify_shifted_identity(0.75, X) for X in (10**4, 10**5, 10**6)]
        res = [c.residual for c in cases]
        info["note"] = "residuals " + ", ".join(f"{r:.4f}" for r in res)
        assert all("empirical" in c.flags for c in cases)
        assert all(b < a for a, b in zip(res, res[1:]))


def test_c10b_conditional_point_band():
    with criterion("C10b-band", "s=0.75 residual within 1e-2 at X=1e6") as info:
        c = verify_shifted_identity(0.75, 10**6)
        info["note"] = (
            f"residual {c.residual:.4f}; decays like X^(-1/4) log X, "
            "so the band needs X near 1e13"
        )
        assert c.residual < 1e-2


def test_c10c_algebraic_collapse_everywhere():
    with criterion("C10c", "finite-X linearity collapse < 1e-12 at every tested (s, X)") as info:
        worst = 0.0
        for s in DEFAULT_S_POINTS:
            for X in (10**3, 10**6):
                worst = max(worst, verify_finite_linearity(s, X).residual)
        info["note"] = f"max residual {worst:.2e}"
        assert worst < 1e-12


def test_c11_convergence_abscissa_brackets():
    with criterion("C11", "empirical sigma_c brackets: 1/2 for F_one vs u^(-s-1/2), 1 for the unit step") as info:
        schedule = (10**4, 10**5, 10**6, 10**7)
        est = estimate_sigma_c(
            StepKind.F_ONE,
            [0.40, 0.45, 0.50, 0.55, 0.60],
            schedule,
        )
        assert est.lower <= 0.5 <= est.upper
        assert est.upper - est.lower <= 0.1 + 1e-12
        one = estimate_sigma_c(
            StepKind.ONE,
            [0.80, 0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20],
            schedule,
            kernel="plain",
        )
        info["note"] = (
            f"F_one bracket [{est.lower:g}, {est.upper:g}], "
            f"unit-step bracket [{one.lower:g}, {one.upper:g}]"
        )
        assert one.lower <= 1.0 <= one.upper


def test_c12_report_is_hash_seed_invariant(tmp_path):
    with criterion("C12", "verify --all JSON byte-identical for PYTHONHASHSEED 0 and 1") as info:
        blobs = []
        for seed in ("0", "1"):
            out = tmp_path / f"report_h{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "zetalab", "verify", "--all",
                 "--X", "1000000", "--quiet", "--out", str(out)],
                capture_output=True, text=True, timeout=600,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        payload = json.loads(blobs[0])
        info["note"] = f"{len(payload)} cases, {len(blobs[0])} bytes"
        assert blobs[0] == blobs[1]
        assert all(r["pass"] for r in payload if "empirical" not in r["flags"])
