"""Reduction of a channel pair to an equilibrium-value instance.

Two channels Q0, Q1 with Stinespring isometries A0, A1 (shared environment
dim z after padding) are combined into the stacked isometries

    S+ = (A0; A1) / sqrt(2)      S- = (A0; -A1) / sqrt(2)

whose rows carry an extra binary index placed as the most significant tensor
factor, so the stacked output space is ordered (flag, Y, Z). The stacks
satisfy tr_{flag,Z}(2 S+ X S-*) = Q0(X) - Q1(X), which is enforced on every
matrix unit at construction time rather than trusted: the n^2 residuals are
the blocks of one product of Choi factors (``linalg.unit_residuals``).

The two "arm" channels tr_Y(S+ . S+*) and tr_Y(S- . S-*) map densities on
the doubled input space X0 (x) X1 (dim n^2, first factor most significant)
to densities on (flag, Z) (dim 2z), each arm reading only one marginal. The
difference map and its adjoint drive the equilibrium solver; the
distinguishability promises translate into thresholds on the equilibrium
value via the Fuchs-van de Graaf inequalities.

Splitting each stack by its Y row index gives the blocks W+-_y (2z x n),
stored as arrays W+- of shape (2z, m, n). In block form each arm is

    arm+-(sigma) = sum_y W+-_y sigma W+-_y*        (sigma: n x n marginal)

and the adjoint of the difference map on an effect E (2z x 2z) is the
Kronecker sum

    G+ (x) I - I (x) G-        with G+- = sum_y W+-_y* E W+-_y   (n x n),

Each is two matrix products over the blocks, and neither forms an
n^2 x n^2 or 2mz x 2mz matrix. These factor forms
(``marginal_difference_output``, ``difference_adjoint_factors``) are the
only form of the game: the solver and the naive reference in ``oracles``
both play pairs of marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .channels import StinespringChannel, pad_env
from .errors import ValidationError
from .linalg import as_cmatrix, choi_factor, require_units, unit_residuals


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """The stacked pair (S+, S-) with dimension bookkeeping.

    ``pair_dim`` (= n^2) is the solver-side density dimension and
    ``witness_dim`` (= 2z) the measurement-effect dimension.
    ``blocks_plus``/``blocks_minus`` hold the stacks as W+- blocks of shape
    (2z, m, n), indexed ((flag, Z), Y, X).
    """

    stack_plus: np.ndarray
    stack_minus: np.ndarray
    input_dim: int
    output_dim: int
    env_dim: int
    blocks_plus: np.ndarray = field(init=False, repr=False)
    blocks_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shape = (2, self.output_dim, self.env_dim, self.input_dim)
        for name, stack in (("blocks_plus", self.stack_plus), ("blocks_minus", self.stack_minus)):
            blocks = stack.reshape(shape).transpose(0, 2, 1, 3).reshape(
                2 * self.env_dim, self.output_dim, self.input_dim)
            object.__setattr__(self, name, np.ascontiguousarray(blocks))

    @property
    def pair_dim(self) -> int:
        return self.input_dim * self.input_dim

    @property
    def witness_dim(self) -> int:
        return 2 * self.env_dim


def build_instance(ch0: StinespringChannel, ch1: StinespringChannel) -> ReducedInstance:
    """Stack two channels into a ReducedInstance.

    Environments are zero-padded to a common dimension first. Both stacks are
    isometries by construction; the decomposition identity linking the stacks
    back to Q0 - Q1 is verified on every matrix unit before returning.
    """
    if ch0.input_dim != ch1.input_dim or ch0.output_dim != ch1.output_dim:
        raise ValidationError(
            "channel pair dimension mismatch: "
            f"({ch0.input_dim}->{ch0.output_dim}) vs ({ch1.input_dim}->{ch1.output_dim})"
        )
    z = max(ch0.env_dim, ch1.env_dim)
    a0 = pad_env(ch0, z).isometry
    a1 = pad_env(ch1, z).isometry
    n, m = ch0.input_dim, ch0.output_dim

    s = 1.0 / math.sqrt(2.0)
    plus = np.vstack([a0, a1]) * s
    minus = np.vstack([a0, -a1]) * s

    for label, c in (("plus", plus), ("minus", minus)):
        residual = float(np.linalg.norm(c.conj().T @ c - np.eye(n)))
        if not residual <= tolerances.ISO_TOL:
            raise ValidationError(
                f"stacked {label} matrix is not an isometry: residual {residual:.3e}"
            )

    inst = ReducedInstance(plus, minus, n, m, z)
    require_units(_stack_residuals(inst, a0, a1), "stack decomposition identity fails on")
    return inst


def _stack_residuals(inst: ReducedInstance, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Frobenius norms of tr_{flag,Z}(2 S+ E_ij S-*) - (Q0 - Q1)(E_ij) from one
    product: 2 B+ B-* is the Choi matrix of the first term (B+- read off the
    blocks ((flag, Z), Y, X)), B0 B0* - B1 B1* that of Q0 - Q1."""
    n, m, d = inst.input_dim, inst.output_dim, inst.witness_dim
    bp, bm = (b.transpose(2, 1, 0).reshape(n * m, d)
              for b in (inst.blocks_plus, inst.blocks_minus))
    b0, b1 = choi_factor(a0, m), choi_factor(a1, m)
    return unit_residuals(np.hstack([2.0 * bp, -b0, b1]), np.hstack([bm, b0, b1]), n)


def _arm(blocks: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sum_y W_y sigma W_y* for blocks W of shape (2z, m, n)."""
    d, m, n = blocks.shape
    left = (blocks.reshape(d * m, n) @ sigma).reshape(d, m * n)
    out = left @ blocks.reshape(d, m * n).conj().T
    return 0.5 * (out + out.conj().T)


def _arm_adjoint(blocks: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """sum_y W_y* E W_y for blocks W of shape (2z, m, n)."""
    d, m, n = blocks.shape
    right = (effect @ blocks.reshape(d, m * n)).reshape(d * m, n)
    out = blocks.reshape(d * m, n).conj().T @ right
    return 0.5 * (out + out.conj().T)


def marginal_arm_outputs(inst: ReducedInstance, first, second) -> tuple[np.ndarray, np.ndarray]:
    """The two arm-channel outputs on (flag, Z) from the two input marginals:
    the plus arm reads ``first`` (on X0), the minus arm ``second`` (on X1).
    """
    return _arm(inst.blocks_plus, first), _arm(inst.blocks_minus, second)


def marginal_difference_output(inst: ReducedInstance, first, second) -> np.ndarray:
    """Difference of the two arm outputs from the two input marginals."""
    out_plus, out_minus = marginal_arm_outputs(inst, first, second)
    return out_plus - out_minus


def difference_adjoint_factors(inst: ReducedInstance, effect) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker-sum factors (G+, -G-) of the difference adjoint on a
    measurement effect 0 <= E <= I, with G+- = sum_y W+-_y* E W+-_y.

    Each G+- lies between 0 and I because each arm is trace preserving.
    """
    e = as_cmatrix(effect)
    d = inst.witness_dim
    if e.shape != (d, d):
        raise ValidationError(f"effect has shape {e.shape}, expected ({d}, {d})")
    w = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
    limit = tolerances.PSD_TOL
    if not (w[0] >= -limit and w[-1] <= 1.0 + limit):
        raise ValidationError(
            f"effect eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1] "
            f"beyond tolerance {limit:.3e}"
        )
    return _arm_adjoint(inst.blocks_plus, e), -_arm_adjoint(inst.blocks_minus, e)


def promise_thresholds(a: float, b: float) -> tuple[float, float]:
    """Equilibrium-value thresholds implied by a distinguishability promise.

    For diamond distance >= a the equilibrium value is at most
    sqrt(4 - a^2)/2; for distance <= b it is at least (2 - b)/2. Returns
    (upper_when_far, lower_when_close).
    """
    if not (0.0 <= b < a <= 2.0):
        raise ValidationError(f"promise must satisfy 0 <= b < a <= 2, got a={a}, b={b}")
    return math.sqrt(4.0 - a * a) / 2.0, (2.0 - b) / 2.0
