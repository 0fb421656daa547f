"""Channel data model for the channel-file kinds ``KINDS`` (gate circuits
are not one): validation, normalization to Stinespring form, application.

A channel on input space X (dim n) with output space Y (dim m) is stored as
an isometry A from X into Y tensor Z (environment dim z), acting as
rho -> tr_Z(A rho A*). Flattened indices put Y before Z (leftmost factor
most significant, as everywhere in this package).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import ValidationError
from .linalg import (as_cmatrix, choi_factor, herm_eig, partial_trace, require_units,
                     unit_residuals)

KINDS = ("stinespring", "kraus", "unitary", "constant")


def check_isometry(a) -> float:
    """Return the isometry residual ||A*A - I||_F."""
    m = as_cmatrix(a)
    n = m.shape[1]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(n)))


def _require_isometry(a, what: str, iso_tol: float) -> np.ndarray:
    m = as_cmatrix(a)
    residual = check_isometry(m)
    if not residual <= iso_tol:
        raise ValidationError(
            f"{what} is not an isometry: ||A*A - I||_F = {residual:.3e} > {iso_tol:.3e}"
        )
    return m


def require_density(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density operator (Hermitian, PSD and unit trace within
    DENSITY_TOL)."""
    limit = tolerances.DENSITY_TOL
    m = as_cmatrix(rho)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"density operator must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValidationError(f"density operator has dim {m.shape[0]}, expected {dim}")
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
        _require_isometry(a, "stinespring matrix", tolerances.ISO_TOL)

    def _check_kraus(self):
        if not self.matrices:
            raise ValidationError("kraus kind needs at least one operator")
        n, m = self.input_dim, self.output_dim
        for i, k in enumerate(self.matrices):
            if k.shape != (m, n):
                raise ValidationError(
                    f"kraus operator {i} has shape {k.shape}, expected ({m}, {n})"
                )
        total = sum(k.conj().T @ k for k in self.matrices)
        residual = float(np.linalg.norm(total - np.eye(n)))
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
        _require_isometry(u, "unitary matrix", tolerances.ISO_TOL)

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


@dataclass(frozen=True, eq=False)
class StinespringChannel:
    """A validated channel rho -> tr_Z(A rho A*) with A an isometry."""

    isometry: np.ndarray
    input_dim: int
    output_dim: int
    env_dim: int

    def __post_init__(self):
        a = _freeze(as_cmatrix(self.isometry))
        if a.shape != (self.output_dim * self.env_dim, self.input_dim):
            raise ValidationError(
                f"isometry shape {a.shape} does not match dims "
                f"(m*z, n) = ({self.output_dim * self.env_dim}, {self.input_dim})"
            )
        object.__setattr__(self, "isometry", a)
        _require_isometry(a, "channel isometry", tolerances.ISO_TOL)


def apply(ch: StinespringChannel, rho) -> np.ndarray:
    """Apply the channel to a density operator.

    The output is again a density operator up to roundoff (the isometry
    guarantees trace preservation).
    """
    r = require_density(rho, ch.input_dim)
    a = ch.isometry
    return partial_trace(a @ r @ a.conj().T, (ch.output_dim, ch.env_dim), (0,))


def normalize(spec: ChannelSpec) -> StinespringChannel:
    """Normalize a validated ChannelSpec into Stinespring form.

    Dilation choices, fixed once for reproducibility:

    * kraus: A = sum_i K_i (x) |i>_Z, so z equals the number of operators
      and Z is the trailing tensor factor;
    * unitary: A = U with a trivial environment (z = 1);
    * constant target sigma = sum_j lam_j |v_j><v_j|: A maps
      |x> -> sum_j sqrt(lam_j) |v_j>_Y |j>_Z1 |x>_Z2 with Z = Z1 (x) Z2,
      so z = m * n.

    Before returning, the dilation's output is compared with the spec's own
    action on every matrix unit E_ij, each within ``tolerances.BASIS_TOL``;
    all n^2 residuals are the blocks of one product of Choi factors.
    """
    n, m = spec.input_dim, spec.output_dim
    if spec.kind == "kraus":
        a = np.stack(spec.matrices, axis=1).reshape(-1, n)
    elif spec.kind == "constant":
        dec = herm_eig(spec.matrices[0])
        weighted = dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
        a = np.einsum("yj,xw->yjxw", weighted, np.eye(n)).reshape(m * m * n, n)
    else:
        a = spec.matrices[0]
    ch = StinespringChannel(a, n, m, a.shape[0] // m)
    require_units(_spec_residuals(spec, ch.isometry),
                  f"normalized channel deviates from the {spec.kind} action on")
    return ch


def _spec_residuals(spec: ChannelSpec, a: np.ndarray) -> np.ndarray:
    """Per-unit Frobenius residuals of the dilation A against the spec's action."""
    n, m = spec.input_dim, spec.output_dim
    if spec.kind == "constant":  # x -> sigma tr(x) has Choi matrix I (x) sigma
        left = np.einsum("ij,ab->iajb", np.eye(n), spec.matrices[0]).reshape(n * m, n * m)
        right = np.eye(n * m)
    elif spec.kind == "kraus":  # column k is K_k^T flattened: entry (i, y) is K_k[y, i]
        left = right = np.stack(spec.matrices, axis=-1).transpose(1, 0, 2).reshape(n * m, -1)
    else:
        left = right = choi_factor(spec.matrices[0], m)
    b = choi_factor(a, m)
    return unit_residuals(np.hstack([b, left]), np.hstack([b, -right]), n)


def pad_env(ch: StinespringChannel, env_dim: int) -> StinespringChannel:
    """Extend the environment to ``env_dim`` by appending zero rows inside
    each output block. The channel action is unchanged."""
    if env_dim < ch.env_dim:
        raise ValidationError(f"cannot shrink env dim {ch.env_dim} to {env_dim}")
    if env_dim == ch.env_dim:
        return ch
    a = ch.isometry.reshape(ch.output_dim, ch.env_dim, ch.input_dim)
    padded = np.zeros((ch.output_dim, env_dim, ch.input_dim), dtype=np.complex128)
    padded[:, : ch.env_dim, :] = a
    return StinespringChannel(
        padded.reshape(ch.output_dim * env_dim, ch.input_dim),
        ch.input_dim,
        ch.output_dim,
        env_dim,
    )
