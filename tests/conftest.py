import math

import numpy as np
import pytest

from diamondeq import (
    ChannelSpec,
    ValidationError,
    build_instance,
    difference_adjoint_factors,
    herm_eig,
    marginal_arm_outputs,
    marginal_difference_output,
    partial_trace,
    solve_generic,
    trace_norm,
)
from diamondeq.linalg import as_cmatrix
from diamondeq.mmw import learning_rate
from diamondeq.oracles import random_unitary

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
PHASE_S = np.diag([1.0, 1j])
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: Most negative eigenvalue tolerated for a PSD input to ``fidelity``; the
#: spectrum of a measurement effect may leave [0, 1] by this much.
PSD_TOL = 1e-9


def unitary_spec(u):
    u = np.asarray(u, dtype=complex)
    return ChannelSpec("unitary", u.shape[0], u.shape[0], (u,))


def constant_spec(sigma, input_dim=2):
    sigma = np.asarray(sigma, dtype=complex)
    return ChannelSpec("constant", input_dim, sigma.shape[0], (sigma,))


def unitary_instance(u, v):
    return build_instance(unitary_spec(u), unitary_spec(v))


def stacks(inst):
    """The stacked isometries (S+, S-) = (A0; +-A1) / sqrt(2), rows ordered
    (flag, Y, Z), rebuilt from the instance's blocks ((flag, Z), Y, X)."""
    n, m, z = inst.input_dim, inst.output_dim, inst.env_dim
    return tuple(b.reshape(2, z, m, n).transpose(0, 2, 1, 3).reshape(2 * m * z, n)
                 for b in (inst.blocks_plus, inst.blocks_minus))


def random_kraus_pair_spec(rng, n=2, k=2):
    """Admissible channel from a Haar-random (n*k) x n isometry split into
    k Kraus blocks."""
    g = rng.standard_normal((n * k, n)) + 1j * rng.standard_normal((n * k, n))
    q, _ = np.linalg.qr(g)
    ops = tuple(q[i * n:(i + 1) * n, :] for i in range(k))
    return ChannelSpec("kraus", n, n, ops)


#: Spec kinds for the layout properties; "kraus1" is a one-operator Kraus set.
SPEC_KINDS = ("unitary", "stinespring", "kraus1", "kraus", "constant")


def random_specs(rng, kinds, n, m, envs):
    """Random valid specs, one per kind, all from n inputs to one output dim.

    The output dim is m, raised to n if a kind needs it (n for "unitary", at
    least n for "kraus1"). "stinespring" gets the environment dim from
    ``envs``, raised until m z >= n, and "kraus" as many operators, at least
    two. A "constant" target has random rank, so some of its eigenvalues are
    zero up to roundoff.
    """
    if "unitary" in kinds:
        m = n
    elif "kraus1" in kinds:
        m = max(m, n)
    specs = []
    for kind, z in zip(kinds, envs):
        if kind == "unitary":
            specs.append(unitary_spec(random_unitary(rng, n)))
            continue
        if kind == "constant":
            r = int(rng.integers(1, m + 1))
            g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
            sigma = g @ g.conj().T
            sigma = 0.5 * (sigma + sigma.conj().T)
            specs.append(ChannelSpec("constant", n, m, (sigma / np.trace(sigma).real,)))
            continue
        z = 1 if kind == "kraus1" else max(z, -(-n // m), 2 if kind == "kraus" else 1)
        g = rng.standard_normal((m * z, n)) + 1j * rng.standard_normal((m * z, n))
        iso = np.linalg.qr(g)[0]
        if kind == "stinespring":
            specs.append(ChannelSpec("stinespring", n, m, (iso,)))
        else:
            specs.append(ChannelSpec("kraus", n, m, tuple(iso.reshape(z, m, n))))
    return specs


def channel_output(spec, x):
    """The spec's action on an input matrix, read off its own operators:
    tr_Z(A X A*) for a Stinespring matrix A, sum_k K_k X K_k* for Kraus
    operators (a unitary is one) and sigma tr(X) for a constant target."""
    if spec.kind == "constant":
        return spec.matrices[0] * np.trace(x)
    if spec.kind == "stinespring":
        a = spec.matrices[0]
        return partial_trace(a @ x @ a.conj().T, (spec.output_dim, spec.env_dim), (0,))
    return sum(k @ x @ k.conj().T for k in spec.matrices)


def basis_units(n):
    """The n^2 matrix units E_ij, row-major."""
    for i in range(n):
        for j in range(n):
            x = np.zeros((n, n), dtype=complex)
            x[i, j] = 1.0
            yield x


def kron_sum(factors):
    """Kronecker sum F1 (x) I (x) ... (x) I + ... + I (x) ... (x) I (x) Fk of
    square matrices, leftmost factor most significant.

    Its spectrum is the set of sums of one eigenvalue from each factor, and
    exp(sum) = (x)_k exp(F_k).
    """
    mats = [as_cmatrix(f) for f in factors]
    dims = [m.shape[0] for m in mats]
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=np.complex128)
    for k, m in enumerate(mats):
        left = np.eye(int(np.prod(dims[:k])), dtype=np.complex128)
        right = np.eye(int(np.prod(dims[k + 1:])), dtype=np.complex128)
        out += np.kron(np.kron(left, m), right)
    return out


def _psd_sqrt(p):
    dec = herm_eig(p)
    low = float(dec.eigenvalues[-1])
    limit = PSD_TOL
    if not low >= -limit:
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue {low:.3e} < -{limit:.3e}"
        )
    w = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    return (dec.eigenvectors * w) @ dec.eigenvectors.conj().T


def fidelity(p, q):
    """Fidelity ||sqrt(P) sqrt(Q)||_1 of two positive semidefinite operators.

    Inputs may dip below zero by at most ``PSD_TOL`` (clipped); anything
    lower is rejected. Satisfies F(cP, cQ) = c F(P, Q) for scalar c >= 0.
    """
    return trace_norm(_psd_sqrt(p) @ _psd_sqrt(q))


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


def column(result, key):
    """The per-round values of ``key`` in a solver result's ``iters``, as an
    array indexed by round (0-based for round t = 1)."""
    return np.array([row[key] for row in result.iters])


def certified_bracket(result, bound=1.0):
    """The certified bracket after each round, rebuilt from the per-round
    records alone, as arrays (lower, upper, averaged) indexed by round.

    Upper: the smallest per-round value or candidate value (``cand_loss``,
    null in a round that evaluated none) so far. Lower: the largest of the
    best single-round image minimum, bound (2 m_min_eig - 1), the averaged
    image minimum, bound (2 sum_min_eig / t - 1), and the result's
    ``value_floor``, each eigenvalue lowered by its recorded error.
    """
    t = column(result, "t")
    candidates = np.array([np.inf if row["cand_loss"] is None else row["cand_loss"]
                           for row in result.iters])
    upper = np.minimum.accumulate(np.minimum(column(result, "loss"), candidates))
    single = np.maximum.accumulate(
        bound * (2.0 * (column(result, "m_min_eig") - column(result, "m_eig_err")) - 1.0))
    averaged = bound * (2.0 * (column(result, "sum_min_eig") - column(result, "sum_eig_err"))
                        / t - 1.0)
    floor = -np.inf if result.value_floor is None else result.value_floor
    return np.maximum(np.maximum(single, averaged), floor), upper, averaged


def first_closed_round(result, bound=1.0):
    """First round t at which the certified bracket, rebuilt from the
    per-round records, is at most delta * bound wide; None if it never is."""
    lower, upper, _ = certified_bracket(result, bound)
    closed = np.flatnonzero(upper - lower <= result.delta * bound)
    return int(closed[0]) + 1 if closed.size else None


def regret_check(result, rho_star=None, delta1=None):
    """Slack of the anytime regret inequality of the ``mmw`` docstring for a
    completed run.

    Returns ``<rho*, sum M> + ln(N)/eta_T + sum_t eta_t (1 + 2 c_t)^2/8
    + (1/2) T delta1 - sum_t <rho(t), M(t)>`` over the T rounds run, which
    must be nonnegative (within roundoff) whenever the inequality holds.
    c_t is round t's loss excursion beyond [0, 1], read off ``m_min_eig`` and
    ``m_max_eig`` widened by ``m_eig_err``. ``rho_star`` defaults to the
    adversarial choice, a minimum eigenvector of the accumulated loss sum S,
    for which <rho*, S> is lambda_min(S), the last round's ``sum_min_eig``.
    An explicit N x N ``rho_star`` is paired with S, built for it as the
    Kronecker sum of ``loss_sums``. ``delta1`` is an extra slack of
    delta1/2 per round, the result's delta1 by default; pass ``delta1=0`` to
    check the exact-arithmetic form of the bound.
    """
    if rho_star is None:
        comparator = float(result.iters[-1]["sum_min_eig"])
    else:
        star, loss_sum = as_cmatrix(rho_star), kron_sum(result.loss_sums)
        if star.shape != loss_sum.shape:
            raise ValidationError(
                f"rho_star shape {star.shape} does not match dimension {result.dim}"
            )
        comparator = float(np.vdot(star, loss_sum).real)
    slack_budget = result.delta1 if delta1 is None else delta1
    t = result.iterations
    # At N = 1 every eta_t is 0 and the single density has no regret.
    entropy = math.log(result.dim) / learning_rate(t, result.dim) if result.dim > 1 else 0.0
    m_eig_err = column(result, "m_eig_err")
    excursions = np.maximum(0.0, np.maximum(m_eig_err - column(result, "m_min_eig"),
                                            column(result, "m_max_eig") + m_eig_err - 1.0))
    steps = sum(learning_rate(s, result.dim) * (1.0 + 2.0 * float(c)) ** 2
                for s, c in enumerate(excursions, start=1)) / 8.0
    rhs = comparator + entropy + steps + 0.5 * t * slack_budget
    return rhs - float(np.sum(column(result, "inner")))


def replay_losses(losses, dims, cfg, bound=1.0):
    """Run ``solve_generic`` on a game that replays a fixed loss sequence.

    Round t's loss is the Kronecker sum of ``losses[t - 1]``, one matrix per
    factor of ``dims``. Every round's witness, the 1 x 1 identity, has value
    ``bound``, and its adjoint image is bound (2 M_t - I) on factor 0 and
    2 bound M_t on the others, so the solver's loss is M_t up to rounding.
    The upper certificate is ``bound`` throughout, and the bracket closes
    only once the losses' lambda_min reaches 1 - delta/2. Returns the result
    and the densities of each round, one per factor.

    The loop calls ``adjoint_op`` once per round, on the round's witness,
    and ``apply_op`` on rho(t) first, then on any upper candidates; so the
    densities ``apply_op`` saw last when ``adjoint_op`` runs are rho(t).
    """
    seen, last = [], []

    def apply_op(*rhos):
        last[:] = [r.copy() for r in rhos]
        return np.array([[bound]])

    def adjoint_op(witness):
        # The count of adjoint images picks the loss of the round just played.
        seen.append(list(last))
        first, *rest = losses[len(seen) - 1]
        return (bound * (2.0 * first - np.eye(first.shape[0])), *(2.0 * bound * m for m in rest))

    result = solve_generic(dims, apply_op, adjoint_op, lambda y: (np.eye(1), 0.0), bound, cfg)
    return result, seen


@pytest.fixture
def identity_instance():
    return unitary_instance(I2, I2)


@pytest.fixture
def phase_instance():
    return unitary_instance(I2, PHASE_S)


@pytest.fixture
def orthogonal_instance():
    return build_instance(constant_spec(KET0), constant_spec(KET1))
