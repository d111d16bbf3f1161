"""zetalab: numerical workbench for Liouville sums and zeta ratio identities."""

__version__ = "0.1.0"

from .errors import (
    ZetalabError,
    DomainError,
    PoleError,
    CapacityError,
    PrecisionError,
    DivisionInstabilityError,
)
from .liouville import (
    sieve_range,
    iter_lambda_segments,
    iter_mobius_segments,
    LiouvilleTable,
    SignScanReport,
    ScanResult,
    ScanCheckpoint,
    run_scan,
)
from .xi import (
    xi_residual,
    XiMonotoneReport,
    check_monotone_limit,
    write_xi_csv,
)
from .sums import PrefixEvaluator, f_x, l_x
from .zeta import (
    ZetaParams,
    RealBounds,
    zeta_with_error,
    zeta_ratio,
    shifted_ratio,
    lambda_series,
    real_bounds_check,
)
from .integrals import (
    StepKind,
    IntegralResult,
    SigmaCEstimate,
    integrate_step,
    j_xi,
    estimate_sigma_c,
)
from .verify import (
    VerificationCase,
    ConditionRReport,
    GrowthExponentReport,
    verify_pnt_limit,
    verify_reciprocal_integral,
    verify_ratio_integral,
    verify_ratio_decomposition,
    verify_shifted_identity,
    verify_finite_linearity,
    explore_condition_r,
    fit_growth_exponent,
    growth_exponent_diagnostic,
    run_default_suite,
    write_report_json,
)
