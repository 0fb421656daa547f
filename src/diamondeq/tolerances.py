"""Numeric tolerances.

Fixed constants, so that identical inputs give byte-identical reports.
Library code reads them at call time (``tolerances.EIG_TOL``), never as
copies bound at import. Every gate is written ``if not residual <= tol``,
so that a NaN residual (an overflowed product, say) fails it.
"""

#: Frobenius residual allowed for a matrix claimed Hermitian.
HERM_TOL = 1e-9

#: Most negative eigenvalue tolerated (and clipped) for a PSD input.
PSD_TOL = 1e-9

#: Frobenius residual allowed for an isometry (A*A = I check).
ISO_TOL = 1e-9

#: Per-dimension residual allowed for an eigendecomposition
#: (||H - U diag(w) U*|| and ||U* U - I||, each bounded by EIG_TOL * dim).
EIG_TOL = 1e-10

#: Trace / eigenvalue slack for density-operator checks.
DENSITY_TOL = 1e-9

#: Frobenius residual allowed per matrix unit in the basis-wise channel checks.
BASIS_TOL = 1e-9
