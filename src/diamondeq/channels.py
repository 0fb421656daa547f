"""Channel data model for the channel-file kinds ``KINDS`` (gate circuits
are not one): validation, and normalization to a Stinespring isometry.

``ChannelSpec`` is the one channel type. A channel on input space X (dim n)
with output space Y (dim m) acts as rho -> tr_Z(A rho A*) for an isometry A
from X into Y tensor Z (environment dim z); ``normalize`` returns A as an
(m z) x n array. Flattened indices put Y before Z (leftmost factor most
significant, as everywhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import ValidationError
from .linalg import as_cmatrix, herm_eig

KINDS = ("stinespring", "kraus", "unitary", "constant")


def check_isometry(a) -> float:
    """Return the isometry residual ||A*A - I||_F."""
    m = as_cmatrix(a)
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))


def _require_isometry(a, what: str) -> None:
    residual = check_isometry(a)
    limit = tolerances.ISO_TOL
    if not residual <= limit:
        raise ValidationError(
            f"{what} is not an isometry: ||A*A - I||_F = {residual:.3e} > {limit:.3e}"
        )


def require_density(rho) -> np.ndarray:
    """Validate a density operator (Hermitian, PSD and unit trace within
    DENSITY_TOL)."""
    limit = tolerances.DENSITY_TOL
    m = as_cmatrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"density operator must be square, got shape {m.shape}")
    herm = float(np.linalg.norm(m - m.conj().T))
    if not herm <= limit:
        raise ValidationError(f"density operator not Hermitian: residual {herm:.3e}")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= limit:
        raise ValidationError(f"density operator has trace {tr}, expected 1")
    low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
    if not low >= -limit:
        raise ValidationError(f"density operator has negative eigenvalue {low:.3e}")
    return 0.5 * (m + m.conj().T)


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A channel as provided by the user, in one of four kinds.

    kind        matrices                        constraint
    ----------  ------------------------------  --------------------------------
    stinespring one (m*z) x n isometry          A*A = I within iso_tol
    kraus       k operators, each m x n         sum K_i* K_i = I within iso_tol
    unitary     one n x n matrix                unitary within iso_tol
    constant    one m x m target state sigma    PSD, trace 1 within tolerance

    Validation happens at construction and raises ValidationError naming the
    failed check and its residual.
    """

    kind: str
    input_dim: int
    output_dim: int
    matrices: tuple = field(default_factory=tuple)
    env_dim: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown channel kind {self.kind!r}, expected one of {KINDS}")
        n, m = int(self.input_dim), int(self.output_dim)
        if n <= 0 or m <= 0:
            raise ValidationError(f"channel dims must be positive, got n={n}, m={m}")
        mats = tuple(_freeze(as_cmatrix(x)) for x in self.matrices)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "input_dim", n)
        object.__setattr__(self, "output_dim", m)
        if self.kind != "stinespring" and self.env_dim is not None:
            raise ValidationError("env_dim only applies to the stinespring kind")
        getattr(self, f"_check_{self.kind}")()

    def _check_stinespring(self):
        if len(self.matrices) != 1:
            raise ValidationError("stinespring kind takes exactly one matrix")
        a = self.matrices[0]
        rows, cols = a.shape
        if cols != self.input_dim or rows % self.output_dim != 0:
            raise ValidationError(
                f"stinespring matrix shape {a.shape} incompatible with "
                f"input_dim={self.input_dim}, output_dim={self.output_dim}"
            )
        z = rows // self.output_dim
        if self.env_dim is not None and self.env_dim != z:
            raise ValidationError(
                f"declared env_dim={self.env_dim} but matrix implies z={z}"
            )
        object.__setattr__(self, "env_dim", z)
        _require_isometry(a, "stinespring matrix")

    def _check_kraus(self):
        if not self.matrices:
            raise ValidationError("kraus kind needs at least one operator")
        n, m = self.input_dim, self.output_dim
        for i, k in enumerate(self.matrices):
            if k.shape != (m, n):
                raise ValidationError(
                    f"kraus operator {i} has shape {k.shape}, expected ({m}, {n})"
                )
        # sum_i K_i* K_i is the Gram matrix of the operators stacked by rows.
        residual = check_isometry(np.concatenate(self.matrices, axis=0))
        if not residual <= tolerances.ISO_TOL:
            raise ValidationError(
                f"kraus set is not trace preserving: ||sum K*K - I||_F = {residual:.3e}"
            )

    def _check_unitary(self):
        if len(self.matrices) != 1:
            raise ValidationError("unitary kind takes exactly one matrix")
        u = self.matrices[0]
        if self.input_dim != self.output_dim or u.shape != (self.input_dim, self.input_dim):
            raise ValidationError(
                f"unitary matrix shape {u.shape} must be square and match "
                f"input_dim={self.input_dim}, output_dim={self.output_dim}"
            )
        _require_isometry(u, "unitary matrix")

    def _check_constant(self):
        if len(self.matrices) != 1:
            raise ValidationError("constant kind takes exactly one target state")
        sigma = self.matrices[0]
        if sigma.shape != (self.output_dim, self.output_dim):
            raise ValidationError(
                f"constant target has shape {sigma.shape}, expected "
                f"({self.output_dim}, {self.output_dim})"
            )
        require_density(sigma)


def normalize(spec: ChannelSpec) -> np.ndarray:
    """The spec's Stinespring isometry A, of shape (m z, n).

    Dilation choices, fixed once for reproducibility:

    * stinespring: A is the spec's own matrix;
    * unitary: A = U with a trivial environment (z = 1);
    * kraus: A = sum_i K_i (x) |i>_Z, so z equals the number of operators
      and Z is the trailing tensor factor;
    * constant target sigma = sum_j lam_j |v_j><v_j|: A maps
      |x> -> sum_j sqrt(lam_j) |v_j>_Y |j>_Z1 |x>_Z2 with Z = Z1 (x) Z2,
      so z = m * n.

    The first two are returned as validated by the spec, and the Kraus
    operators are only stacked: the spec has checked their Gram matrix, and
    A reproduces sum_i K_i X K_i* by layout. The constant dilation is
    checked twice: A must be an isometry, and the clipped eigen-reconstruction
    sigma^ = V diag(max(w, 0)) V* must be within ``tolerances.DENSITY_TOL`` of
    sigma (Frobenius), which is A's output on every input density.
    """
    n, m = spec.input_dim, spec.output_dim
    if spec.kind in ("stinespring", "unitary"):
        return spec.matrices[0]
    if spec.kind == "kraus":
        return np.stack(spec.matrices, axis=1).reshape(-1, n)
    sigma = spec.matrices[0]
    dec = herm_eig(sigma)
    weighted = dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    a = np.einsum("yj,xw->yjxw", weighted, np.eye(n)).reshape(m * m * n, n)
    _require_isometry(a, "channel isometry")
    residual = float(np.linalg.norm(weighted @ weighted.conj().T - sigma))
    limit = tolerances.DENSITY_TOL
    if not residual <= limit:
        raise ValidationError(
            "constant dilation does not reproduce the target state: "
            f"||sigma^ - sigma||_F = {residual:.3e} > {limit:.3e}"
        )
    return a
