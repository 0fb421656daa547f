"""Independent reference computations for tests and cross-checks.

Everything here is either an analytic formula (unitary and constant channel
families) or an explicitly one-sided bound (sampling lower bounds, local
ascent lower bounds, alternating best-response sandwiches). The one-sided
results are safe to assert against but never claimed exact.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances
from .channels import ChannelSpec, check_isometry, require_density
from .errors import ValidationError
from .linalg import as_cmatrix, best_effect, herm_eig, partial_trace, trace_norm
from .reduction import ReducedInstance, difference_adjoint_factors, marginal_difference_output

#: Best-response alternation steps per random restart.
_ALTERNATIONS = 40

#: Seesaw sweeps per restart for the max-fidelity ascent.
_SWEEPS = 200

_MAX_NAIVE_DIM = 3


def random_state_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density operator (Wishart, scaled to unit trace)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# Distance from the origin to the convex hull of a small planar point set.

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: list) -> list:
    """Monotone-chain hull, counterclockwise, collinear points dropped."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(p, q) -> float:
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    norm2 = dx * dx + dy * dy
    if norm2 <= 0.0:
        return math.hypot(px, py)
    t = min(1.0, max(0.0, -(px * dx + py * dy) / norm2))
    return math.hypot(px + t * dx, py + t * dy)


def _hull_distance(points: np.ndarray) -> float:
    """Distance from the origin to the convex hull of 2-D points."""
    hull = _convex_hull([(float(x), float(y)) for x, y in points])
    if len(hull) == 1:
        return math.hypot(*hull[0])
    if len(hull) == 2:
        return _segment_distance(hull[0], hull[1])
    inside = all(
        _cross(hull[i], hull[(i + 1) % len(hull)], (0.0, 0.0)) >= -1e-15
        for i in range(len(hull))
    )
    if inside:
        return 0.0
    return min(
        _segment_distance(hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def unitary_diamond(u, v) -> float:
    """Exact diamond distance of two unitary channels.

    Equals 2 sqrt(1 - d^2) where d is the distance from the origin to the
    convex hull of the eigenvalues of U*V in the complex plane.
    """
    mu = as_cmatrix(u)
    mv = as_cmatrix(v)
    for name, m in (("U", mu), ("V", mv)):
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"{name} must be square, got {m.shape}")
        residual = check_isometry(m)
        if not residual <= tolerances.ISO_TOL:
            raise ValidationError(f"{name} is not unitary: residual {residual:.3e}")
    if mu.shape != mv.shape:
        raise ValidationError(f"shape mismatch: {mu.shape} vs {mv.shape}")
    eig = np.linalg.eigvals(mu.conj().T @ mv)
    d = _hull_distance(np.column_stack([eig.real, eig.imag]))
    return 2.0 * math.sqrt(max(0.0, 1.0 - d * d))


def constant_diamond(sigma0, sigma1) -> float:
    """Diamond distance of two constant channels: the output trace distance."""
    s0 = require_density(sigma0)
    s1 = require_density(sigma1)
    if s0.shape != s1.shape:
        raise ValidationError(f"shape mismatch: {s0.shape} vs {s1.shape}")
    return trace_norm(s0 - s1)


def diamond_lower_search(spec0: ChannelSpec, spec1: ChannelSpec,
                         trials: int = 200, seed: int = 0) -> float:
    """Sampled lower bound on the diamond distance.

    Applies (Q0 - Q1) tensor id to random pure states on the doubled input
    space and returns the largest output trace norm seen; always a valid
    lower bound.
    """
    dilations = spec0.isometry, spec1.isometry
    if spec0.input_dim != spec1.input_dim or spec0.output_dim != spec1.output_dim:
        raise ValidationError("channel pair dimension mismatch")
    n, m = spec0.input_dim, spec0.output_dim
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(max(1, int(trials))):
        psi = random_state_vector(rng, n * n).reshape(n, n)
        outs = []
        for a in dilations:
            t = (a @ psi).reshape(m, -1, n)
            outs.append(np.einsum("azx,bzy->axby", t, t.conj()).reshape(m * n, m * n))
        best = max(best, trace_norm(outs[0] - outs[1]))
    return best


def naive_equilibrium(inst: ReducedInstance, iters: int = 10,
                      seed: int = 0) -> tuple[float, float]:
    """Bracket the equilibrium value by alternating best responses.

    From random restarts, alternate exact best responses for both players
    while also scoring the running averages of the iterates; every witness
    gives a valid lower bound (minimum eigenvalue of its adjoint image) and
    every density a valid upper bound (its positive-part value), so the
    returned (lb, ub) always sandwiches the true value. Guarded to small
    input dimension.

    The game is played on marginal pairs, as in the solver: a density enters
    only through its two n x n marginals, and the adjoint image of a witness
    is the Kronecker sum G+ (x) I - I (x) G-, whose minimum eigenvalue is
    lambda_min(G+) + lambda_min(-G-) at the product of the two factors'
    minimum eigenvectors. Each restart draws a joint n^2 x n^2 density and
    keeps its marginals.
    """
    if inst.input_dim > _MAX_NAIVE_DIM:
        raise ValidationError(
            f"naive equilibrium search is limited to input dim <= {_MAX_NAIVE_DIM}, "
            f"got {inst.input_dim}"
        )
    rng = np.random.default_rng(seed)
    n = inst.input_dim
    lb, ub = -1.0, 1.0

    def score_density(first, second):
        nonlocal ub
        y = marginal_difference_output(inst, first, second)
        witness = best_effect(y)[0]
        ub = min(ub, float(np.vdot(witness, y).real))
        return witness

    def score_witness(witness):
        nonlocal lb
        decs = [herm_eig(g) for g in difference_adjoint_factors(inst, witness)]
        lb = max(lb, sum(float(dec.eigenvalues[-1]) for dec in decs))
        vs = [dec.eigenvectors[:, -1:] for dec in decs]
        return [v @ v.conj().T for v in vs]

    for _ in range(max(1, int(iters))):
        rho = random_density(rng, inst.pair_dim)
        pair = [partial_trace(rho, (n, n), (k,)) for k in (0, 1)]
        pair_sums = [np.zeros_like(m) for m in pair]
        witness_sum = np.zeros(
            (inst.witness_dim, inst.witness_dim), dtype=np.complex128
        )
        for k in range(1, _ALTERNATIONS + 1):
            witness = score_density(*pair)
            witness_sum += witness
            pair = score_witness(witness)
            for total, m in zip(pair_sums, pair):
                total += m
            score_density(*(total / k for total in pair_sums))
            score_witness(witness_sum / k)
            if ub - lb < 1e-10:
                return lb, ub
    return lb, ub


# ---------------------------------------------------------------------------
# Max output fidelity by alternating ascent (seesaw) over purifications.

def _purify(blocks: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """S (x) I applied to a vector on the doubled input space (X, ref), as
    the matrix of kept (flag, Z) rows and environment (Y, ref) columns."""
    d, m, n = blocks.shape
    return (blocks.reshape(d * m, n) @ vec.reshape(n, n)).reshape(d, m * n)


def _purify_adjoint(blocks: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The adjoint of ``_purify``: a (flag, Z) x (Y, ref) matrix back to a
    vector on the doubled input space."""
    d, m, n = blocks.shape
    return (blocks.reshape(d * m, n).conj().T @ mat.reshape(d * m, n)).reshape(-1)


def fmax_estimate(inst: ReducedInstance, restarts: int = 50, seed: int = 0) -> float:
    """Lower bound on the diamond distance via the doubled max output
    fidelity of the two arm channels.

    Alternates three exact coordinate maximizations: the two purification
    vectors of the arm inputs and the environment unitary aligning the
    purifications (from the SVD of their overlap matrix). Each evaluated
    overlap is a fidelity of actual arm outputs, so the returned value never
    exceeds the true maximum. Guarded to small input dimension.
    """
    if inst.input_dim > _MAX_NAIVE_DIM:
        raise ValidationError(
            f"max-fidelity ascent is limited to input dim <= {_MAX_NAIVE_DIM}, "
            f"got {inst.input_dim}"
        )
    rng = np.random.default_rng(seed)
    n = inst.input_dim
    plus, minus = inst.blocks_plus, inst.blocks_minus
    best = 0.0
    for _ in range(max(1, int(restarts))):
        x = random_state_vector(rng, n * n)
        y = random_state_vector(rng, n * n)
        value = 0.0
        for _ in range(_SWEEPS):
            u = _purify(plus, x)
            v = _purify(minus, y)
            us, sing, vs = np.linalg.svd((u.conj().T @ v).T)
            w = (vs.conj().T @ us.conj().T)
            new_value = float(np.sum(sing))
            # x-step, then y-step, each against the refreshed alignment.
            x = _purify_adjoint(plus, v @ w.T)
            x = x / np.linalg.norm(x)
            u = _purify(plus, x)
            y = _purify_adjoint(minus, u @ w.conj())
            y = y / np.linalg.norm(y)
            if new_value - value < 1e-12:
                value = max(value, new_value)
                break
            value = new_value
        best = max(best, value)
    return 2.0 * best


__all__ = [
    "constant_diamond",
    "diamond_lower_search",
    "fmax_estimate",
    "naive_equilibrium",
    "random_density",
    "random_state_vector",
    "random_unitary",
    "unitary_diamond",
]
