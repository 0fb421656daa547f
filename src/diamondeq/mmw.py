"""Matrix multiplicative weights solver for equilibrium values.

The meta-algorithm maintains a density rho(t) proportional to
exp(-eps * sum of observed loss matrices) and enjoys the regret bound

    (1 - eps) * sum_t <rho(t), M(t)>  <=  <rho*, sum_t M(t)> + ln(N)/eps

for every density rho*, provided every loss matrix satisfies 0 <= M <= I.
Instantiated with the channel-pair difference map, the averaged per-round
value approximates the equilibrium value within delta after
T = ceil(16 ln N / delta^2) rounds at learning rate eps = delta/4; with
floating-point kernels the guarantee degrades by at most the configured
slack budget delta1 on each side (accounted as (1/2) T delta1 inside the
regret inequality).

The density space may be a tensor product X_1 (x) ... (x) X_K (dimensions
``dims``, N = prod dims) on which every loss is a Kronecker sum
M = sum_k I (x) M_k (x) I. Then the running sum S = sum_t M(t) is the
Kronecker sum of the per-factor sums S_k, and

    exp(-eps S) / tr exp(-eps S) = (x)_k exp(-eps S_k) / tr exp(-eps S_k),

so rho(t) is a product of K Gibbs states of the factor sizes and N x N
matrices are never formed inside the loop. The channel-pair game has this
form with K = 2 factors of size n (see ``reduction``); a dense game is the
one-factor case ``dims = (N,)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateViolation,
    IterationCapError,
    OracleBoundError,
    ValidationError,
)
from .linalg import as_cmatrix, herm_eig, hs_inner, kron_sum, pos_proj
from .reduction import ReducedInstance, difference_adjoint_factors, marginal_difference_output

#: Eigenvalue excursions of a loss matrix beyond [0, 1] up to this much are
#: clipped back into it; anything larger is a hard error.
CLIP_TOL = 1e-9


@dataclass(frozen=True)
class MMWConfig:
    """Solver configuration.

    ``delta`` is the target precision of the returned value. ``epsilon``
    and ``rounds`` default to delta/4 and ceil(16 ln N / delta^2) and are
    only overridden for experiments. ``delta1`` is the aggregate slack
    budget charged to approximate arithmetic (default delta/10).
    """

    delta: float = 0.2
    epsilon: float | None = None
    rounds: int | None = None
    delta1: float | None = None
    max_rounds: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0:
            raise ValidationError(f"delta must lie in (0, 2], got {self.delta}")
        if not 0.0 < self.resolved_epsilon() <= 0.5:
            raise ValidationError(
                f"learning rate must lie in (0, 1/2], got {self.resolved_epsilon()}"
            )
        if self.rounds is not None and self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")
        if not self.resolved_delta1() < self.delta:
            raise ValidationError(
                f"slack budget delta1={self.resolved_delta1()} must be below delta={self.delta}"
            )
        if self.max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {self.max_rounds}")

    def resolved_epsilon(self) -> float:
        return self.delta / 4.0 if self.epsilon is None else self.epsilon

    def resolved_delta1(self) -> float:
        return self.delta / 10.0 if self.delta1 is None else self.delta1

    def resolved_rounds(self, dim: int) -> int:
        """Rounds for an N-dimensional density space; at least one, since at
        N = 1 the single density's exact best response is the value."""
        if self.rounds is not None:
            return int(self.rounds)
        return max(1, int(math.ceil(16.0 * math.log(dim) / (self.delta * self.delta))))


#: Per-round series of a trace, as (SolverTrace field, key of the JSONL
#: ``iter`` record).
SERIES = (
    ("losses", "loss"),
    ("step_inners", "inner"),
    ("exp_min", "exp_min"),
    ("exp_max", "exp_max"),
    ("rho_trace_err", "rho_trace_err"),
    ("rho_min_eig", "rho_min_eig"),
    ("m_min_eig", "m_min_eig"),
    ("m_max_eig", "m_max_eig"),
)


@dataclass(eq=False)
class SolverTrace:
    """Per-round records of one solver run.

    The ``SERIES`` arrays are indexed by round (0-based for round t = 1).
    ``exp_min`` and ``exp_max`` are the extreme eigenvalues of the
    accumulated exponent -eps * sum of prior losses that produced rho(t);
    ``exponent_norm_bound`` is the a-priori operator-norm bound eps * T on
    that exponent. ``loss_sums`` holds the per-factor sums S_k of all losses,
    whose Kronecker sum is the N x N loss sum S.
    """

    dim: int
    epsilon: float
    rounds: int
    delta: float
    delta1: float
    exponent_norm_bound: float
    losses: np.ndarray
    step_inners: np.ndarray
    exp_min: np.ndarray
    exp_max: np.ndarray
    rho_trace_err: np.ndarray
    rho_min_eig: np.ndarray
    m_min_eig: np.ndarray
    m_max_eig: np.ndarray
    loss_sums: tuple
    value: float | None = None

    @property
    def executed(self) -> int:
        return int(self.losses.shape[0])

    @property
    def loss_sum(self) -> np.ndarray:
        """The N x N loss sum, built from ``loss_sums`` on each access."""
        return kron_sum(self.loss_sums)

    def __eq__(self, other):
        if not isinstance(other, SolverTrace):
            return NotImplemented
        scalars = ("dim", "epsilon", "rounds", "delta", "delta1",
                   "exponent_norm_bound", "value")
        mine = [getattr(self, name) for name, _ in SERIES] + list(self.loss_sums)
        theirs = [getattr(other, name) for name, _ in SERIES] + list(other.loss_sums)
        return (all(getattr(self, k) == getattr(other, k) for k in scalars)
                and len(mine) == len(theirs)
                and all(np.array_equal(a, b) for a, b in zip(mine, theirs)))


def _gibbs_density(loss_sum: np.ndarray, epsilon: float):
    """Density exp(-eps S) / tr exp(-eps S) via eigendecomposition.

    The exponent is shifted by its largest eigenvalue before exponentiating;
    the shift cancels in the normalization, so the returned density is the
    exact mathematical value up to the eigendecomposition residual.
    """
    dec = herm_eig(loss_sum)
    w = dec.eigenvalues  # descending
    gains = np.exp(-epsilon * (w - w[-1]))
    total = float(np.sum(gains))
    rho = (dec.eigenvectors * gains) @ dec.eigenvectors.conj().T / total
    rho = 0.5 * (rho + rho.conj().T)
    # Spectrum of rho is gains/total by construction.
    return rho, -epsilon * float(w[0]), -epsilon * float(w[-1]), float(gains[-1] / total)


def _factor_dims(dims) -> tuple[int, ...]:
    out = (int(dims),) if np.ndim(dims) == 0 else tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValidationError(f"factor dimensions must be >= 1, got {dims}")
    return out


def _as_factors(out) -> tuple:
    """A list or tuple holds Kronecker-sum factors; anything else is the
    single factor of a one-factor space."""
    return tuple(out) if isinstance(out, (list, tuple)) else (out,)


def _clip_loss(ms: list, low: float, high: float) -> list:
    """Bring a loss spectrum [low, high] that leaves [0, 1] by at most
    CLIP_TOL back inside, keeping the Kronecker-sum factor form."""
    # The spectrum of a Kronecker sum is all sums of factor eigenvalues, so
    # no per-factor clip caps it; the affine map of [min(low, 0), max(high, 1)]
    # onto [0, 1] does, and moves every factor by O(CLIP_TOL) at most.
    lo, hi = min(low, 0.0), max(high, 1.0)
    scale = 1.0 / (hi - lo)
    out = [m * scale for m in ms]
    out[0] = out[0] - (lo * scale) * np.eye(out[0].shape[0])
    return out


def mmw_run(loss_oracle, dims, cfg: MMWConfig | None = None) -> SolverTrace:
    """Run the multiplicative weights loop on a product of density factors.

    ``dims`` is the tuple of factor dimensions (an int means one factor).
    ``loss_oracle`` is called with one density per factor, whose tensor
    product is rho(t), and returns the loss M with 0 <= M <= I as its
    Kronecker-sum factors, one matrix per factor (a bare matrix for one
    factor), optionally paired as ``(factors, loss_value)`` to attach a
    per-round scalar to the trace (defaults to <rho, M>). The loss spectrum,
    whose extremes are the sums of the factor extremes, is checked each
    round: excursions beyond [0, 1] within CLIP_TOL are clipped, larger ones
    raise OracleBoundError. If the accuracy formula asks for more rounds
    than ``max_rounds``, the loop runs to the cap and raises
    IterationCapError carrying the partial trace.
    """
    cfg = MMWConfig() if cfg is None else cfg
    dims = _factor_dims(dims)
    dim = math.prod(dims)
    eps = cfg.resolved_epsilon()
    planned = cfg.resolved_rounds(dim)
    executed = min(planned, cfg.max_rounds)

    records = {name: [] for name, _ in SERIES}
    sums = [np.zeros((d, d), dtype=np.complex128) for d in dims]

    for _ in range(executed):
        gibbs = [_gibbs_density(s, eps) for s in sums]
        rhos = [g[0] for g in gibbs]
        traces = [float(np.trace(r).real) for r in rhos]
        records["exp_min"].append(sum(g[1] for g in gibbs))
        records["exp_max"].append(sum(g[2] for g in gibbs))
        records["rho_trace_err"].append(abs(math.prod(traces) - 1.0))
        records["rho_min_eig"].append(math.prod(g[3] for g in gibbs))

        out = loss_oracle(*rhos)
        paired = isinstance(out, tuple) and len(out) == 2 and np.ndim(out[1]) == 0
        factors, loss = out if paired else (out, None)
        ms = [as_cmatrix(f) for f in _as_factors(factors)]
        if [m.shape for m in ms] != [(d, d) for d in dims]:
            raise OracleBoundError(
                f"oracle returned factor shapes {[m.shape for m in ms]}, expected "
                f"{[(d, d) for d in dims]}"
            )
        spectra = [herm_eig(m).eigenvalues for m in ms]
        high = sum(float(w[0]) for w in spectra)
        low = sum(float(w[-1]) for w in spectra)
        if low < -CLIP_TOL or high > 1.0 + CLIP_TOL:
            raise OracleBoundError(
                f"loss matrix eigenvalues [{low:.3e}, {high:.3e}] violate "
                f"[0, 1] beyond the clip tolerance {CLIP_TOL:.1e}"
            )
        records["m_min_eig"].append(low)
        records["m_max_eig"].append(high)
        if low < 0.0 or high > 1.0:
            ms = _clip_loss(ms, low, high)
        # <(x)_j rho_j, sum_k I (x) M_k (x) I> = sum_k <rho_k, M_k> prod_{j != k} tr rho_j
        inner = sum(
            float(np.vdot(r, m).real) * math.prod(traces[:k] + traces[k + 1:])
            for k, (r, m) in enumerate(zip(rhos, ms))
        )
        records["step_inners"].append(inner)
        records["losses"].append(inner if loss is None else float(loss))

        for k, m in enumerate(ms):
            s = sums[k] + m
            sums[k] = 0.5 * (s + s.conj().T)

    trace = SolverTrace(
        dim=dim,
        epsilon=eps,
        rounds=planned,
        delta=cfg.delta,
        delta1=cfg.resolved_delta1(),
        exponent_norm_bound=eps * planned,
        loss_sums=tuple(sums),
        **{name: np.asarray(values, dtype=np.float64) for name, values in records.items()},
    )
    if executed < planned:
        raise IterationCapError(
            f"accuracy formula asks for {planned} rounds but max_rounds is "
            f"{cfg.max_rounds}; partial trace attached",
            trace=trace,
        )
    return trace


def min_eig_projector(h) -> np.ndarray:
    """Rank-one projector onto an eigenvector of minimal eigenvalue."""
    dec = herm_eig(h)
    v = dec.eigenvectors[:, -1:]
    p = v @ v.conj().T
    return 0.5 * (p + p.conj().T)


def regret_check(trace: SolverTrace, rho_star=None, delta1: float | None = None) -> float:
    """Slack of the regret inequality for a completed trace.

    Returns ``<rho*, sum M> + ln(N)/eps + (1/2) T delta1 - (1-eps) sum <rho(t), M(t)>``,
    which must be nonnegative (within roundoff) whenever the inequality
    holds. ``rho_star`` defaults to the adversarial choice, a minimum
    eigenvector of the accumulated loss sum S, for which <rho*, S> is
    lambda_min(S), the sum of the factors' lambda_min. An explicit N x N
    ``rho_star`` is paired with the Kronecker sum S itself. Pass
    ``delta1=0`` to check the exact-arithmetic form of the bound.
    """
    if rho_star is None:
        comparator = sum(float(herm_eig(s).eigenvalues[-1]) for s in trace.loss_sums)
    else:
        star, loss_sum = as_cmatrix(rho_star), trace.loss_sum
        if star.shape != loss_sum.shape:
            raise ValidationError(
                f"rho_star shape {star.shape} does not match dimension {trace.dim}"
            )
        comparator = float(hs_inner(star, loss_sum).real)
    slack_budget = trace.delta1 if delta1 is None else delta1
    t = trace.executed
    lhs = (1.0 - trace.epsilon) * float(np.sum(trace.step_inners))
    rhs = comparator + math.log(trace.dim) / trace.epsilon + 0.5 * t * slack_budget
    return rhs - lhs


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Approximate equilibrium value with self-validating certificates.

    ``lower_cert`` is the minimum eigenvalue of the adjoint image of the
    averaged (or best single-round) witness, a weak-duality lower bound on
    the equilibrium value; ``upper_cert`` is the smallest per-round value,
    an upper bound since every round plays an exact best response. Both are
    checked against ``value`` at construction.
    """

    value: float
    lower_cert: float
    upper_cert: float
    iterations: int
    trace: SolverTrace
    bound: float = 1.0

    def __post_init__(self):
        fuzz = 1e-9 * max(1.0, self.bound)
        slack = 2.0 * self.trace.delta1 * self.bound + fuzz
        if self.lower_cert > self.upper_cert + slack:
            raise CertificateViolation(
                f"certificates crossed: lower {self.lower_cert} > upper "
                f"{self.upper_cert} + {slack}"
            )
        width = self.trace.delta * self.bound + fuzz
        if not (self.lower_cert - width <= self.value <= self.upper_cert + width):
            raise CertificateViolation(
                f"value {self.value} outside certificate window "
                f"[{self.lower_cert - width}, {self.upper_cert + width}]"
            )


def solve_generic(
    dims,
    apply_op,
    adjoint_op,
    argmax_op,
    bound: float,
    cfg: MMWConfig | None = None,
    loss_range: tuple[float, float] | None = None,
) -> EquilibriumResult:
    """Equilibrium value of min over densities, max over a convex witness
    set, of ``<witness, apply_op(rho)>``.

    ``dims`` are the density factor dimensions (an int means one factor);
    ``apply_op`` is called with one density per factor and must depend on
    rho only through them. ``adjoint_op`` returns the adjoint image of a
    witness as its Kronecker-sum factors (a bare matrix for one factor).
    ``argmax_op`` must return the exact maximizing witness for a given value
    operator, and ``bound`` bound ``|<witness, apply_op(rho)>|`` over all
    inputs (spot-checked every round; the accuracy guarantee scales with
    it).
    """
    cfg = MMWConfig() if cfg is None else cfg
    if bound <= 0:
        raise ValidationError(f"value bound must be positive, got {bound}")
    eye = np.eye(_factor_dims(dims)[0], dtype=np.complex128)
    state = {"witness_sum": None, "count": 0}

    def oracle(*rhos):
        value_op = apply_op(*rhos)
        witness = argmax_op(value_op)
        loss = float(hs_inner(witness, value_op).real)
        if abs(loss) > bound * (1.0 + CLIP_TOL) + CLIP_TOL:
            raise OracleBoundError(
                f"round value {loss} exceeds the declared bound {bound}"
            )
        if loss_range is not None and not (
            loss_range[0] - CLIP_TOL <= loss <= loss_range[1] + CLIP_TOL
        ):
            raise OracleBoundError(
                f"round value {loss} outside promised range {loss_range}"
            )
        image = _as_factors(adjoint_op(witness))
        # M = (I + image / bound) / 2, with the identity carried by factor 0.
        m = [0.5 * (image[0] / bound + eye)] + [0.5 * (f / bound) for f in image[1:]]
        if state["witness_sum"] is None:
            state["witness_sum"] = np.array(witness, dtype=np.complex128)
        else:
            state["witness_sum"] += witness
        state["count"] += 1
        return m, loss

    trace = mmw_run(oracle, dims, cfg)
    value = float(np.mean(trace.losses))
    trace.value = value

    averaged = state["witness_sum"] / state["count"]
    # lambda_min of a Kronecker sum is the sum of the factors' lambda_min.
    lower_avg = sum(float(herm_eig(f).eigenvalues[-1])
                    for f in _as_factors(adjoint_op(averaged)))
    # lambda_min of each round's adjoint image, recovered from the recorded
    # loss-matrix spectrum: image = bound * (2 M - I).
    lower_single = bound * (2.0 * float(np.max(trace.m_min_eig)) - 1.0)
    lower = max(lower_avg, lower_single)
    upper = float(np.min(trace.losses))
    return EquilibriumResult(
        value=value,
        lower_cert=lower,
        upper_cert=upper,
        iterations=trace.executed,
        trace=trace,
        bound=bound,
    )


def solve_equilibrium(inst: ReducedInstance, cfg: MMWConfig | None = None) -> EquilibriumResult:
    """Equilibrium value of a reduced channel-pair instance.

    Each loss is (I + G+ (x) I - I (x) G-) / 2, a Kronecker sum, so the
    solver's density on X0 (x) X1 stays a product rho_0 (x) rho_1 and the
    loop runs on two n x n factors. Each round plays the positive-eigenspace
    projector of the difference output (the exact best response) and feeds
    back the shifted adjoint image as the loss; the averaged per-round value
    approximates the equilibrium value within delta (+ the delta1 slack
    budget) and lies in [0, 1] up to roundoff.
    """
    n = inst.input_dim
    return solve_generic(
        (n, n),
        lambda first, second: marginal_difference_output(inst, first, second),
        lambda witness: difference_adjoint_factors(inst, witness),
        pos_proj,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )
