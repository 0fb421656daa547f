"""Channel data model for the channel-file kinds ``KINDS`` (gate circuits
are not one): validation, through the Stinespring isometry each kind stands
for.

``ChannelSpec`` is the one channel type. A channel on input space X (dim n)
with output space Y (dim m) acts as rho -> tr_Z(A rho A*) for an isometry A
from X into Y tensor Z (environment dim z); ``ChannelSpec.isometry`` holds A
as an (m z) x n array. Flattened indices put Y before Z (leftmost factor
most significant, as everywhere in this package).
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


def _require_isometry(a, refusal: str) -> None:
    """Refuse A unless ||A*A - I||_F <= ISO_TOL; ``refusal`` is the error
    text, formatted with the ``residual`` and the ``limit``."""
    residual = check_isometry(a)
    limit = tolerances.ISO_TOL
    if not residual <= limit:
        raise ValidationError(refusal.format(residual=residual, limit=limit))


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


#: The isometry gate's refusal for a matrix that claims to be an isometry,
#: after its noun.
_NOT_AN_ISOMETRY = " is not an isometry: ||A*A - I||_F = {residual:.3e} > {limit:.3e}"


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A channel as provided by the user, in one of four kinds, with the
    Stinespring isometry it stands for.

    kind        matrices                        constraint
    ----------  ------------------------------  --------------------------------
    stinespring one (m*z) x n isometry          A*A = I
    kraus       k operators, each m x n         sum K_i* K_i = I
    unitary     one n x n matrix                unitary
    constant    one m x m target state sigma    PSD, trace 1 within DENSITY_TOL

    Construction checks the kind's shapes and counts, builds its isometry A
    as an (m z) x n array, and refuses A unless ||A*A - I||_F <= ISO_TOL:
    one gate for every kind, since a Kraus set's A*A is sum K_i* K_i.
    A is stored read-only as ``isometry``. Dilation choices, fixed once for
    reproducibility:

    * stinespring: A is the spec's own matrix;
    * unitary: A = U with a trivial environment (z = 1);
    * kraus: A = sum_i K_i (x) |i>_Z, so z equals the number of operators
      and Z is the trailing tensor factor;
    * constant target sigma = sum_j lam_j |v_j><v_j|: A maps
      |x> -> sum_j sqrt(lam_j) |v_j>_Y |j>_Z1 |x>_Z2 with Z = Z1 (x) Z2,
      so z = m * n. sigma must be a density operator, and the clipped
      eigen-reconstruction sigma^ = V diag(max(w, 0)) V*, which is A's
      output on every input density, must lie within DENSITY_TOL of sigma
      (Frobenius).

    Every refusal raises ValidationError naming the failed check and its
    residual.
    """

    kind: str
    input_dim: int
    output_dim: int
    matrices: tuple = field(default_factory=tuple)
    env_dim: int | None = None
    isometry: np.ndarray = field(init=False, repr=False)

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
        a, refusal = getattr(self, f"_dilate_{self.kind}")()
        _require_isometry(a, refusal)
        a.flags.writeable = False
        object.__setattr__(self, "isometry", a)

    def _dilate_stinespring(self):
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
        return a, "stinespring matrix" + _NOT_AN_ISOMETRY

    def _dilate_kraus(self):
        if not self.matrices:
            raise ValidationError("kraus kind needs at least one operator")
        n, m = self.input_dim, self.output_dim
        for i, k in enumerate(self.matrices):
            if k.shape != (m, n):
                raise ValidationError(
                    f"kraus operator {i} has shape {k.shape}, expected ({m}, {n})"
                )
        a = np.stack(self.matrices, axis=1).reshape(-1, n)
        return a, "kraus set is not trace preserving: ||sum K*K - I||_F = {residual:.3e}"

    def _dilate_unitary(self):
        if len(self.matrices) != 1:
            raise ValidationError("unitary kind takes exactly one matrix")
        u = self.matrices[0]
        if self.input_dim != self.output_dim or u.shape != (self.input_dim, self.input_dim):
            raise ValidationError(
                f"unitary matrix shape {u.shape} must be square and match "
                f"input_dim={self.input_dim}, output_dim={self.output_dim}"
            )
        return u, "unitary matrix" + _NOT_AN_ISOMETRY

    def _dilate_constant(self):
        if len(self.matrices) != 1:
            raise ValidationError("constant kind takes exactly one target state")
        n, m = self.input_dim, self.output_dim
        sigma = self.matrices[0]
        if sigma.shape != (m, m):
            raise ValidationError(
                f"constant target has shape {sigma.shape}, expected ({m}, {m})"
            )
        dec = herm_eig(require_density(sigma))
        weighted = dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
        residual = float(np.linalg.norm(weighted @ weighted.conj().T - sigma))
        limit = tolerances.DENSITY_TOL
        if not residual <= limit:
            raise ValidationError(
                "constant dilation does not reproduce the target state: "
                f"||sigma^ - sigma||_F = {residual:.3e} > {limit:.3e}"
            )
        a = np.einsum("yj,xw->yjxw", weighted, np.eye(n)).reshape(m * m * n, n)
        return a, "channel isometry" + _NOT_AN_ISOMETRY
