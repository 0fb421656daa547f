"""Numeric tolerance knobs.

Every knob can be overridden through an environment variable read once at
import time (e.g. ``DIAMONDEQ_HERM_TOL=1e-8``). Library functions take these
as defaults and accept explicit values where callers need to deviate.
"""

import os


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


#: Frobenius residual allowed for a matrix claimed Hermitian.
HERM_TOL = _env_float("DIAMONDEQ_HERM_TOL", 1e-9)

#: Most negative eigenvalue tolerated (and clipped) for a PSD input.
PSD_TOL = _env_float("DIAMONDEQ_PSD_TOL", 1e-9)

#: Frobenius residual allowed for an isometry (A*A = I check).
ISO_TOL = _env_float("DIAMONDEQ_ISO_TOL", 1e-9)

#: Per-dimension residual allowed for an eigendecomposition
#: (reconstruction and unitarity, each bounded by EIG_TOL * dim).
EIG_TOL = _env_float("DIAMONDEQ_EIG_TOL", 1e-10)

#: Trace / eigenvalue slack for density-operator checks.
DENSITY_TOL = _env_float("DIAMONDEQ_DENSITY_TOL", 1e-9)
