import numpy as np
import pytest

from diamondeq import (
    ChannelSpec,
    build_instance,
    difference_adjoint_factors,
    herm_eig,
    kron_sum,
    marginal_arm_outputs,
    marginal_difference_output,
    normalize,
    partial_trace,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PHASE_S = np.diag([1.0, 1j])
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def unitary_spec(u):
    u = np.asarray(u, dtype=complex)
    return ChannelSpec("unitary", u.shape[0], u.shape[0], (u,))


def constant_spec(sigma, input_dim=2):
    sigma = np.asarray(sigma, dtype=complex)
    return ChannelSpec("constant", input_dim, sigma.shape[0], (sigma,))


def unitary_instance(u, v):
    return build_instance(normalize(unitary_spec(u)), normalize(unitary_spec(v)))


def random_kraus_pair_spec(rng, n=2, k=2):
    """Admissible channel from a Haar-random (n*k) x n isometry split into
    k Kraus blocks."""
    g = rng.standard_normal((n * k, n)) + 1j * rng.standard_normal((n * k, n))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * n:(i + 1) * n, :] for i in range(k))
    return ChannelSpec("kraus", n, n, ops)


# Joint n^2 x n^2 forms of the channel-pair game and dense kernels on it. The
# library runs on the n x n factors only; tests compare it against these.

def _joint_marginals(inst, rho):
    n = inst.input_dim
    return partial_trace(rho, (n, n), (0,)), partial_trace(rho, (n, n), (1,))


def arm_outputs(inst, rho):
    """The two arm outputs of a joint density on X0 (x) X1: the plus arm
    reads its first marginal, the minus arm its second."""
    return marginal_arm_outputs(inst, *_joint_marginals(inst, rho))


def difference_output(inst, rho):
    """Difference of the two arm outputs of a joint density."""
    return marginal_difference_output(inst, *_joint_marginals(inst, rho))


def difference_adjoint(inst, effect):
    """Adjoint of the difference map as the n^2 x n^2 Kronecker sum
    G+ (x) I - I (x) G- of ``difference_adjoint_factors``."""
    return kron_sum(difference_adjoint_factors(inst, effect))


def min_eig_projector(h):
    """Rank-one projector onto an eigenvector of minimal eigenvalue."""
    dec = herm_eig(h)
    v = dec.eigenvectors[:, -1:]
    p = v @ v.conj().T
    return 0.5 * (p + p.conj().T)


def mat_exp_hermitian(h):
    """exp(H) for Hermitian H from its residual-checked eigendecomposition."""
    dec = herm_eig(h)
    r = (dec.eigenvectors * np.exp(dec.eigenvalues)) @ dec.eigenvectors.conj().T
    return 0.5 * (r + r.conj().T)


def first_closed_round(trace, bound=1.0):
    """First round t at which the certified bracket, rebuilt from the trace
    records, is at most delta * bound wide; None if it never is.

    Upper: the smallest per-round value so far. Lower: the larger of the best
    single-round image minimum, bound (2 m_min_eig - 1), and the averaged
    image minimum, bound (2 sum_min_eig / t - 1), each lowered by its
    recorded eigensolver error.
    """
    t = np.arange(1, trace.executed + 1)
    upper = np.minimum.accumulate(trace.losses)
    single = np.maximum.accumulate(bound * (2.0 * (trace.m_min_eig - trace.m_eig_err) - 1.0))
    averaged = bound * (2.0 * (trace.sum_min_eig - trace.sum_eig_err) / t - 1.0)
    closed = np.flatnonzero(upper - np.maximum(single, averaged) <= trace.delta * bound)
    return int(closed[0]) + 1 if closed.size else None


@pytest.fixture
def identity_instance():
    return unitary_instance(I2, I2)


@pytest.fixture
def phase_instance():
    return unitary_instance(I2, PHASE_S)


@pytest.fixture
def orthogonal_instance():
    return build_instance(normalize(constant_spec(KET0)), normalize(constant_spec(KET1)))
