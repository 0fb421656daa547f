"""Diamond-norm intervals and distinguishability decisions for quantum
channel pairs, solved through an equilibrium-value reformulation with the
matrix multiplicative weights method."""

from .channels import (
    ChannelSpec,
    StinespringChannel,
    apply,
    check_isometry,
    circuit_to_stinespring,
    normalize,
)
from .errors import (
    CertificateViolation,
    EigendecompositionError,
    GapTooSmallError,
    IterationCapError,
    OracleBoundError,
    ValidationError,
)
from .estimator import (
    DiamondReport,
    decide_qcd,
    diamond_interval,
    equilibrium_report,
    pdn_decide,
    solve_and_report,
)
from .linalg import (
    EigDecomp,
    best_effect,
    fidelity,
    herm_eig,
    hs_inner,
    kron,
    kron_sum,
    partial_trace,
    trace_norm,
)
from .mmw import (
    EquilibriumResult,
    MMWConfig,
    SolverTrace,
    mmw_run,
    regret_check,
    solve_equilibrium,
    solve_generic,
)
from .reduction import (
    ReducedInstance,
    build_instance,
    difference_adjoint_factors,
    marginal_arm_outputs,
    marginal_difference_output,
    promise_thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "StinespringChannel",
    "apply",
    "check_isometry",
    "circuit_to_stinespring",
    "normalize",
    "CertificateViolation",
    "EigendecompositionError",
    "GapTooSmallError",
    "IterationCapError",
    "OracleBoundError",
    "ValidationError",
    "DiamondReport",
    "decide_qcd",
    "diamond_interval",
    "equilibrium_report",
    "pdn_decide",
    "solve_and_report",
    "EigDecomp",
    "best_effect",
    "fidelity",
    "herm_eig",
    "hs_inner",
    "kron",
    "kron_sum",
    "partial_trace",
    "trace_norm",
    "EquilibriumResult",
    "MMWConfig",
    "SolverTrace",
    "mmw_run",
    "regret_check",
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
