"""Diamond-norm intervals and distinguishability decisions for quantum
channel pairs, solved through an equilibrium-value reformulation with the
matrix multiplicative weights method."""

from .channels import (
    ChannelSpec,
    check_isometry,
)
from .errors import (
    CertificateViolation,
    EigendecompositionError,
    GapTooSmallError,
    OracleBoundError,
    ValidationError,
)
from .estimator import (
    DiamondReport,
    build_report,
    promise_thresholds,
    require_gap,
    solve_and_report,
)
from .linalg import (
    EigDecomp,
    best_effect,
    herm_eig,
    partial_trace,
    trace_norm,
)
from .mmw import (
    EquilibriumResult,
    MMWConfig,
    solve_equilibrium,
    solve_generic,
)
from .reduction import (
    ReducedInstance,
    build_instance,
    difference_adjoint_factors,
    marginal_arm_outputs,
    marginal_difference_output,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "check_isometry",
    "CertificateViolation",
    "EigendecompositionError",
    "GapTooSmallError",
    "OracleBoundError",
    "ValidationError",
    "DiamondReport",
    "build_report",
    "require_gap",
    "solve_and_report",
    "EigDecomp",
    "best_effect",
    "herm_eig",
    "partial_trace",
    "trace_norm",
    "EquilibriumResult",
    "MMWConfig",
    "solve_equilibrium",
    "solve_generic",
    "ReducedInstance",
    "build_instance",
    "difference_adjoint_factors",
    "marginal_arm_outputs",
    "marginal_difference_output",
    "promise_thresholds",
    "__version__",
]
