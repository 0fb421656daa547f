"""Numeric tolerances.

Fixed constants, so that identical inputs give byte-identical reports.
Library code reads them at call time (``tolerances.EIG_TOL``), never as
copies bound at import. Every gate is written ``if not residual <= tol``,
so that a NaN residual (an overflowed product, say) fails it. Inputs are
checked where they enter (``ChannelSpec``, and ``solve_generic`` on its
callbacks' adjoint factors); the solver loop's own matrices only by EIG_TOL.
"""

#: Frobenius residual allowed for a matrix claimed Hermitian.
HERM_TOL = 1e-9

#: Frobenius residual allowed for an isometry (A*A = I check).
ISO_TOL = 1e-9

#: Per-dimension residual allowed for an eigendecomposition
#: (||H - U diag(w) U*|| and ||U* U - I||, each bounded by EIG_TOL * dim).
EIG_TOL = 1e-10

#: Trace / eigenvalue slack for density-operator checks, and the Frobenius
#: residual allowed for a constant channel's reconstructed target state.
DENSITY_TOL = 1e-9
