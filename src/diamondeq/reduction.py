"""Reduction of a channel pair to an equilibrium-value instance.

Two channels Q0, Q1, given as ``ChannelSpec``s, are read as their
Stinespring isometries A0, A1 (shared environment dim z after padding) and
combined into the stacked isometries

    S+ = (A0; A1) / sqrt(2)      S- = (A0; -A1) / sqrt(2)

whose rows carry an extra binary index placed as the most significant tensor
factor, so the stacked output space is ordered (flag, Y, Z). The stacks
satisfy tr_{flag,Z}(2 S+ X S-*) = Q0(X) - Q1(X) by construction: the flag
cross terms vanish under tr_flag, and zero environment padding adds nothing.
The stacks are isometries because A0 and A1 are: with zero padding,
S+* S+ - I = ((A0* A0 - I) + (A1* A1 - I)) / 2, so its residual is at most
the mean of the two specs' residuals, each within ISO_TOL, plus the
rounding of one sum. Construction checks only the dimensions; the identity
and the stacked isometry are property tests (``tests/test_reduction.py``).

The two "arm" channels tr_Y(S+ . S+*) and tr_Y(S- . S-*) map densities on
the doubled input space X0 (x) X1 (dim n^2, first factor most significant)
to densities on (flag, Z) (dim 2z), each arm reading only one marginal. The
difference map and its adjoint drive the equilibrium solver.

Splitting each stack by its Y row index gives the blocks W+-_y (2z x n).
The instance stores the pair in this form only, as arrays W+- of shape
(2z, m, n); the stacks themselves are never formed. In block form each arm is

    arm+-(sigma) = sum_y W+-_y sigma W+-_y*        (sigma: n x n marginal)

and the adjoint of the difference map on an effect E (2z x 2z) is the
Kronecker sum

    G+ (x) I - I (x) G-        with G+- = sum_y W+-_y* E W+-_y   (n x n).

Each is two matrix products over the blocks, and neither forms an
n^2 x n^2 or 2mz x 2mz matrix. These factor forms
(``marginal_difference_output``, ``difference_adjoint_factors``) are the
only form of the game. The naive reference in ``oracles`` plays pairs of
marginals. The solver plays one marginal sigma as both, which keeps the
value (see ``mmw``): W-_y = Z W+_y for the flag sign Z = diag(I_z, -I_z),
so arm-(sigma) = Z arm+(sigma) Z, and the adjoint image on that diagonal is
the n x n matrix G+ - G-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """The stacked pair (S+, S-), stored as its blocks W+- of shape
    (2z, m, n), indexed ((flag, Z), Y, X), with dimension bookkeeping.

    ``pair_dim`` (= n^2) is the dimension of the joint input space
    X0 (x) X1 on which the game is defined; the solver plays one n x n
    density (``input_dim``) as both marginals. ``witness_dim`` (= 2z) is the
    measurement-effect dimension.
    """

    blocks_plus: np.ndarray
    blocks_minus: np.ndarray
    input_dim: int
    output_dim: int
    env_dim: int

    @property
    def pair_dim(self) -> int:
        return self.input_dim * self.input_dim

    @property
    def witness_dim(self) -> int:
        return 2 * self.env_dim


def build_instance(spec0: ChannelSpec, spec1: ChannelSpec) -> ReducedInstance:
    """Stack two channels into a ReducedInstance.

    Each spec holds its isometry A_k, of shape (m z_k, n), checked when the
    spec was built. Environments are zero-padded to a common dimension: each
    isometry fills its flag half of one zero block array. The stacks'
    isometry and the decomposition identity linking them back to Q0 - Q1
    hold by the block layout and are not re-checked here.
    """
    if spec0.input_dim != spec1.input_dim or spec0.output_dim != spec1.output_dim:
        raise ValidationError(
            "channel pair dimension mismatch: "
            f"({spec0.input_dim}->{spec0.output_dim}) vs ({spec1.input_dim}->{spec1.output_dim})"
        )
    n, m = spec0.input_dim, spec0.output_dim
    a0, a1 = spec0.isometry, spec1.isometry
    z = max(a0.shape[0], a1.shape[0]) // m
    halves = np.zeros((2, z, m, n), dtype=np.complex128)
    for half, a in zip(halves, (a0, a1)):
        half[: a.shape[0] // m] = a.reshape(m, -1, n).transpose(1, 0, 2)
    blocks = halves.reshape(2 * z, m, n)

    s = 1.0 / math.sqrt(2.0)
    return ReducedInstance(blocks * s, np.concatenate([blocks[:z], -blocks[z:]]) * s, n, m, z)


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

    Each G+- lies between 0 and I because each arm is trace preserving. E is
    the caller's to check; the solver's are ``best_effect`` projectors.
    """
    return _arm_adjoint(inst.blocks_plus, effect), -_arm_adjoint(inst.blocks_minus, effect)
