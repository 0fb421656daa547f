"""Matrix multiplicative weights solver for equilibrium values.

The meta-algorithm maintains a density rho(t) proportional to
exp(-eps * sum of observed loss matrices) and enjoys the regret bound

    (1 - eps) * sum_t <rho(t), M(t)>  <=  <rho*, sum_t M(t)> + ln(N)/eps

for every density rho*, provided every loss matrix satisfies 0 <= M <= I.
Instantiated with the channel-pair difference map, the averaged per-round
value approximates the equilibrium value within delta after
T = ceil(16 ln N / delta^2) rounds at learning rate eps = delta/4; with
floating-point kernels the guarantee degrades by at most the slack budget
delta1 = delta/10 on each side (accounted as (1/2) T delta1 inside the
regret inequality). ``solve_generic`` is the one loop, for any game given by
its value operator, adjoint and best response; ``solve_equilibrium`` is the
channel-pair instance.

T is the run's only limit, not a schedule: ``MMWConfig.rounds`` when set,
else the formula clamped to MAX_ROUNDS. Whatever the update rule, two
weak-duality certificates bound the equilibrium value after every round
(Arora-Kale, primal-dual MMW): the smallest best-response value seen so far
from above, and the smallest eigenvalue of the adjoint image of the averaged
(or of the best single) witness from below. Both are widened by the measured
residuals of the eigendecompositions they come from. ``solve_generic`` stops
on the first round at which this certified bracket is at most delta (times
the value bound) wide, runs all T rounds when it never is, and records which
of the two happened (``SolverTrace.stop_reason``: 'bracket' or 'rounds').
Its ``EquilibriumResult`` stores the bracket and the trace and derives the
rest: the value is the upper certificate, which never exceeds the mean of
the per-round values, and the round count is the trace's. The certificates,
not the a-priori guarantee, are what callers report: they hold after any
number of rounds, so a run that uses up a T below the formula's gives a
sound, possibly wider bracket.

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

from .errors import CertificateViolation, OracleBoundError, ValidationError
from .linalg import EigDecomp, as_cmatrix, best_effect, herm_eig, hs_inner, kron_sum
from .reduction import ReducedInstance, difference_adjoint_factors, marginal_difference_output

#: Eigenvalue excursions of a loss matrix beyond [0, 1] up to this much are
#: clipped back into it; anything larger is a hard error.
CLIP_TOL = 1e-9

#: Largest round count T of one run: ``rounds`` may not exceed it, and the
#: formula's T is clamped to it.
MAX_ROUNDS = 1_000_000


@dataclass(frozen=True)
class MMWConfig:
    """Solver configuration.

    ``delta`` is the target precision of the returned value; it fixes the
    learning rate eps = delta/4 and the slack budget delta1 = delta/10
    charged to approximate arithmetic. ``rounds``, the round limit T, lies
    in [1, MAX_ROUNDS] and defaults to ceil(16 ln N / delta^2) clamped to
    MAX_ROUNDS; fewer rounds leave the certificates sound but possibly wider
    than delta.
    """

    delta: float = 0.2
    rounds: int | None = None

    def __post_init__(self):
        if not 0.0 < self.delta <= 2.0:
            raise ValidationError(f"delta must lie in (0, 2], got {self.delta}")
        if self.rounds is not None and not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValidationError(
                f"rounds must lie in [1, {MAX_ROUNDS}], got {self.rounds}"
            )

    def resolved_epsilon(self) -> float:
        return self.delta / 4.0

    def resolved_delta1(self) -> float:
        return self.delta / 10.0

    def resolved_rounds(self, dim: int) -> int:
        """Round limit T for an N-dimensional density space. One round at
        N = 1, since the single density's exact best response is the value;
        MAX_ROUNDS wherever the formula exceeds it, including where delta^2
        underflows to 0 or the quotient overflows."""
        if self.rounds is not None:
            return int(self.rounds)
        if dim == 1:
            return 1
        square = self.delta * self.delta
        planned = 16.0 * math.log(dim) / square if square > 0.0 else math.inf
        return MAX_ROUNDS if planned >= MAX_ROUNDS else math.ceil(planned)


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
    ("m_eig_err", "m_eig_err"),
    ("sum_min_eig", "sum_min_eig"),
    ("sum_eig_err", "sum_eig_err"),
)


@dataclass(eq=False)
class SolverTrace:
    """Per-round records of one solver run.

    The ``SERIES`` arrays are indexed by round (0-based for round t = 1).
    ``exp_min`` and ``exp_max`` are the extreme eigenvalues of the
    accumulated exponent -eps * sum of prior losses that produced rho(t);
    ``exponent_norm_bound`` is the a-priori operator-norm bound eps * T on
    that exponent. ``m_min_eig``/``m_max_eig`` are the extremes of the
    round's loss spectrum and ``sum_min_eig`` the smallest eigenvalue of the
    loss sum after the round; the ``*_err`` series bound the error of each
    from the measured eigendecomposition residuals. ``loss_sums`` holds the
    per-factor sums S_k of all losses, whose Kronecker sum is the N x N loss
    sum S. ``rounds`` is the round limit T and ``stop_reason`` says why the
    loop ended: 'bracket' (the stop rule fired) or 'rounds' (T reached).
    """

    dim: int
    epsilon: float
    rounds: int
    delta: float
    delta1: float
    losses: np.ndarray
    step_inners: np.ndarray
    exp_min: np.ndarray
    exp_max: np.ndarray
    rho_trace_err: np.ndarray
    rho_min_eig: np.ndarray
    m_min_eig: np.ndarray
    m_max_eig: np.ndarray
    m_eig_err: np.ndarray
    sum_min_eig: np.ndarray
    sum_eig_err: np.ndarray
    loss_sums: tuple
    stop_reason: str

    @property
    def executed(self) -> int:
        return int(self.losses.shape[0])

    @property
    def exponent_norm_bound(self) -> float:
        return self.epsilon * self.rounds


def _gibbs_density(dec: EigDecomp, epsilon: float):
    """Density exp(-eps S) / tr exp(-eps S) from the eigendecomposition of S.

    The exponent is shifted by its largest eigenvalue before exponentiating;
    the shift cancels in the normalization, so the returned density is the
    exact mathematical value up to the eigendecomposition residual.
    """
    w = dec.eigenvalues  # descending
    gains = np.exp(-epsilon * (w - w[-1]))
    total = float(np.sum(gains))
    rho = (dec.eigenvectors * gains) @ dec.eigenvectors.conj().T / total
    rho = 0.5 * (rho + rho.conj().T)
    # Spectrum of rho is gains/total by construction.
    return rho, -epsilon * float(w[0]), -epsilon * float(w[-1]), float(gains[-1] / total)


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


def regret_check(trace: SolverTrace, rho_star=None, delta1: float | None = None) -> float:
    """Slack of the regret inequality for a completed trace.

    Returns ``<rho*, sum M> + ln(N)/eps + (1/2) T delta1 - (1-eps) sum <rho(t), M(t)>``,
    which must be nonnegative (within roundoff) whenever the inequality
    holds. ``rho_star`` defaults to the adversarial choice, a minimum
    eigenvector of the accumulated loss sum S, for which <rho*, S> is
    lambda_min(S), the last round's ``sum_min_eig``. An explicit N x N
    ``rho_star`` is paired with S, built for it as the Kronecker sum of
    ``loss_sums``. Pass
    ``delta1=0`` to check the exact-arithmetic form of the bound.
    """
    if rho_star is None:
        comparator = float(trace.sum_min_eig[-1])
    else:
        star, loss_sum = as_cmatrix(rho_star), kron_sum(trace.loss_sums)
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
    """Certified bracket [lower_cert, upper_cert] on an equilibrium value.

    ``lower_cert`` is the minimum eigenvalue of the adjoint image of the
    averaged (or best single-round) witness, a weak-duality lower bound on
    the equilibrium value; ``upper_cert`` is the smallest per-round value,
    an upper bound since every round plays an exact best response. Both are
    widened by the measured eigendecomposition error, whose total is
    ``widening``. The certificates are checked against each other at
    construction.
    """

    lower_cert: float
    upper_cert: float
    trace: SolverTrace
    widening: float
    bound: float = 1.0

    def __post_init__(self):
        slack = 2.0 * self.trace.delta1 * self.bound + 1e-9 * max(1.0, self.bound)
        if not self.lower_cert <= self.upper_cert + slack:
            raise CertificateViolation(
                f"certificates crossed: lower {self.lower_cert} > upper "
                f"{self.upper_cert} + {slack}"
            )

    @property
    def value(self) -> float:
        """The reported equilibrium value, the upper certificate."""
        return self.upper_cert

    @property
    def iterations(self) -> int:
        """Rounds run, the trace's ``executed``."""
        return self.trace.executed


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
    set, of ``<witness, apply_op(rho)>``, by one multiplicative weights loop.

    ``dims`` is the tuple of density factor dimensions, ``(N,)`` for a dense
    game. ``apply_op`` is called with one density per factor, whose tensor
    product is rho(t). ``argmax_op`` returns ``(witness, err)``: a maximizing
    witness and a finite ``err >= 0`` bounding how far its value may fall
    short of the maximum; the round's value is rounded up by it.
    ``adjoint_op`` returns a witness's adjoint image as a tuple of
    Kronecker-sum factors, one per density factor. ``bound`` bounds
    ``|<witness, apply_op(rho)>|`` (spot-checked every round; the accuracy
    guarantee scales with it).

    The round's loss M = (I + image / bound) / 2 has its spectrum checked:
    excursions beyond [0, 1] within CLIP_TOL are clipped, larger ones raise
    OracleBoundError. The run stops ('bracket') on the first round at which
    the certified bracket is at most ``delta * bound`` wide, else after T
    rounds ('rounds').
    """
    cfg = MMWConfig() if cfg is None else cfg
    if not bound > 0:
        raise ValidationError(f"value bound must be positive, got {bound}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError(f"factor dimensions must be >= 1, got {dims}")
    shapes = [(d, d) for d in dims]
    dim = math.prod(dims)
    eps = cfg.resolved_epsilon()
    planned = cfg.resolved_rounds(dim)
    eye = np.eye(dims[0], dtype=np.complex128)

    records = {name: [] for name, _ in SERIES}
    sums = [np.zeros(shape, dtype=np.complex128) for shape in shapes]
    # Each round's loss-sum decompositions feed the stop rule and the next
    # round's Gibbs densities. The zero sums' exact decomposition makes
    # rho(1) = I/d per factor.
    decs = [EigDecomp(np.zeros(d), np.eye(d, dtype=np.complex128), 0.0, 0.0) for d in dims]
    witness_sum = 0.0
    # The bracket so far: the smallest round value, the largest lambda_min of
    # one round's adjoint image, and the error of each.
    upper, upper_err, single, single_err, reason = math.inf, 0.0, -math.inf, 0.0, "rounds"

    for t in range(1, planned + 1):
        gibbs = [_gibbs_density(dec, eps) for dec in decs]
        rhos = [g[0] for g in gibbs]
        traces = [float(np.trace(r).real) for r in rhos]
        row = {
            "exp_min": sum(g[1] for g in gibbs),
            "exp_max": sum(g[2] for g in gibbs),
            "rho_trace_err": abs(math.prod(traces) - 1.0),
            "rho_min_eig": math.prod(g[3] for g in gibbs),
        }

        value_op = apply_op(*rhos)
        witness, err = argmax_op(value_op)
        if not 0.0 <= err < math.inf:
            raise OracleBoundError(f"best-response error {err} must be finite and >= 0")
        value = float(hs_inner(witness, value_op).real)
        if not abs(value) <= bound * (1.0 + CLIP_TOL) + CLIP_TOL:
            raise OracleBoundError(f"round value {value} exceeds the declared bound {bound}")
        if loss_range is not None and not (
            loss_range[0] - CLIP_TOL <= value <= loss_range[1] + CLIP_TOL
        ):
            raise OracleBoundError(f"round value {value} outside promised range {loss_range}")
        image = [as_cmatrix(f) for f in adjoint_op(witness)]
        if [f.shape for f in image] != shapes:
            raise OracleBoundError(
                f"adjoint_op returned factor shapes {[f.shape for f in image]}, "
                f"expected {shapes}"
            )
        ms = [0.5 * (image[0] / bound + eye)] + [0.5 * (f / bound) for f in image[1:]]
        witness_sum = witness_sum + witness

        spectra = [herm_eig(m) for m in ms]
        high = sum(float(dec.eigenvalues[0]) for dec in spectra)
        low = sum(float(dec.eigenvalues[-1]) for dec in spectra)
        if not (low >= -CLIP_TOL and high <= 1.0 + CLIP_TOL):
            raise OracleBoundError(
                f"loss matrix eigenvalues [{low:.3e}, {high:.3e}] violate "
                f"[0, 1] beyond the clip tolerance {CLIP_TOL:.1e}"
            )
        row["m_min_eig"], row["m_max_eig"] = low, high
        row["m_eig_err"] = sum(dec.error_bound for dec in spectra)
        if low < 0.0 or high > 1.0:
            ms = _clip_loss(ms, low, high)
        # <(x)_j rho_j, sum_k I (x) M_k (x) I> = sum_k <rho_k, M_k> prod_{j != k} tr rho_j
        row["step_inners"] = sum(
            float(np.vdot(r, m).real) * math.prod(traces[:k] + traces[k + 1:])
            for k, (r, m) in enumerate(zip(rhos, ms))
        )
        row["losses"] = float(value + err)

        for k, m in enumerate(ms):
            s = sums[k] + m
            sums[k] = 0.5 * (s + s.conj().T)
        decs = [herm_eig(s) for s in sums]
        # lambda_min of a Kronecker sum is the sum of the factors' lambda_min.
        row["sum_min_eig"] = sum(float(dec.eigenvalues[-1]) for dec in decs)
        row["sum_eig_err"] = sum(dec.error_bound for dec in decs)
        for name, values in records.items():
            values.append(row[name])

        if row["losses"] < upper:
            upper, upper_err = row["losses"], err
        # The round's image is bound * (2 M - I), M before any clip.
        mine = bound * (2.0 * (low - row["m_eig_err"]) - 1.0)
        if mine > single:
            single, single_err = mine, 2.0 * bound * row["m_eig_err"]
        # The averaged witness's image is bound * (2 S / t - I), S the loss sum.
        averaged = bound * (2.0 * (row["sum_min_eig"] - row["sum_eig_err"]) / t - 1.0)
        if upper - max(single, averaged) <= cfg.delta * bound:
            reason = "bracket"
            break

    trace = SolverTrace(
        dim=dim, epsilon=eps, rounds=planned, delta=cfg.delta, delta1=cfg.resolved_delta1(),
        loss_sums=tuple(sums), stop_reason=reason,
        **{name: np.asarray(values, dtype=np.float64) for name, values in records.items()},
    )
    decs = [herm_eig(f) for f in adjoint_op(witness_sum / trace.executed)]
    avg_err = sum(dec.error_bound for dec in decs)
    lower_avg = sum(float(dec.eigenvalues[-1]) for dec in decs) - avg_err
    if lower_avg >= single:
        lower, lower_err = lower_avg, avg_err
    else:
        lower, lower_err = float(single), single_err
    return EquilibriumResult(lower_cert=lower, upper_cert=upper, trace=trace, bound=bound,
                             widening=lower_err + upper_err)


def solve_equilibrium(inst: ReducedInstance, cfg: MMWConfig | None = None) -> EquilibriumResult:
    """Equilibrium value of a reduced channel-pair instance.

    Each loss is (I + G+ (x) I - I (x) G-) / 2, a Kronecker sum, so the
    solver's density on X0 (x) X1 stays a product rho_0 (x) rho_1 and the
    loop runs on two n x n factors. Each round plays the positive-eigenspace
    projector of the difference output (the exact best response, with its
    measured error) and feeds back the shifted adjoint image as the loss.
    The certified bracket lies in [0, 1] up to roundoff.
    """
    n = inst.input_dim
    return solve_generic(
        (n, n),
        lambda first, second: marginal_difference_output(inst, first, second),
        lambda witness: difference_adjoint_factors(inst, witness),
        best_effect,
        1.0,
        cfg,
        loss_range=(0.0, 1.0),
    )
